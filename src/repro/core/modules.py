"""CTA derivation for parallel OIL modules, sources, sinks and black boxes
(Sec. V-C, Fig. 10).

Every instantiation of a module is converted to a CTA component:

* sequential modules use the derivation of :mod:`repro.core.loops`,
* parallel modules get two ports per stream (modelling artifacts with an
  unbounded maximum rate); input streams are forwarded from the first port to
  every instantiated sub-component using the stream, with a reverse
  connection back to the second port (and symmetrically for output streams),
* FIFOs between module instantiations become two oppositely directed
  connections between the writer's and each reader's stream ports; the
  reverse connection carries the FIFO capacity as a rate-dependent delay
  ``-delta/r``,
* periodic sources and sinks become components with a data port pinned at
  their frequency and an internal connection with constant delay ``1/f``;
  their communication with modules is modelled exactly like FIFO
  communication,
* latency constraints between sources and sinks become single constraint
  connections between the corresponding components,
* registered black-box modules become single components built from their
  declared interface (ports with access counts, a firing duration and an
  optional maximum rate), exactly like a task component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.core.actor_to_cta import build_task_component
from repro.core.loops import DerivedSequentialModule, derive_sequential_module
from repro.core.streams import StreamInterface, ensure_stream_ports
from repro.cta.latency import LatencyConstraint, add_latency_constraint
from repro.cta.model import BufferParameter, Component, PortRef
from repro.graph.extraction import extract_task_graph
from repro.graph.taskgraph import Access, Task, TaskGraph
from repro.lang import ast
from repro.lang.semantics import BlackBoxModule
from repro.util.rational import Rat


@dataclass
class DerivedInstance:
    """One instantiated component plus its per-stream interface ports."""

    component: Component
    #: parameter name (of the instantiated module) -> interface
    interfaces: Dict[str, StreamInterface]
    buffers: Dict[str, BufferParameter] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    #: for sequential modules: the task components (used by reports/tests)
    sequential: Optional[DerivedSequentialModule] = None
    #: for parallel modules: the instance of each call, in call order; the
    #: simulator names and sizes its runtime instances after them
    calls: List["DerivedInstance"] = field(default_factory=list)


class DerivationContext:
    """Shared state of one program derivation."""

    def __init__(
        self,
        program: ast.Program,
        *,
        task_graphs: Dict[str, TaskGraph],
        black_boxes: Dict[str, BlackBoxModule],
        default_black_box_duration: Rat = Fraction(0),
    ) -> None:
        self.program = program
        self.task_graphs = task_graphs
        self.black_boxes = black_boxes
        self.default_black_box_duration = default_black_box_duration
        self.buffers: Dict[str, BufferParameter] = {}
        self.warnings: List[str] = []
        self.latency_constraints: List[LatencyConstraint] = []
        self.source_ports: Dict[str, PortRef] = {}
        self.sink_ports: Dict[str, PortRef] = {}
        self._instance_counter: Dict[str, int] = {}

    def instance_name(self, module_name: str) -> str:
        index = self._instance_counter.get(module_name, 0)
        self._instance_counter[module_name] = index + 1
        return module_name if index == 0 else f"{module_name}_{index + 1}"

    def register_buffers(self, buffers: Dict[str, BufferParameter]) -> None:
        self.buffers.update(buffers)


# --------------------------------------------------------------------------
# Sources, sinks, black boxes
# --------------------------------------------------------------------------

def build_source_component(
    parent: Component, decl: ast.SourceDecl, *, instance_name: Optional[str] = None
) -> DerivedInstance:
    """A periodic source: data output pinned at its frequency, internal
    connection with constant delay ``1/f`` (Sec. V-C)."""
    frequency = Fraction(decl.frequency_hz)
    component = parent.new_component(instance_name or f"src_{decl.name}", kind="source")
    component.metadata["function"] = decl.function
    component.metadata["frequency_hz"] = frequency
    component.add_port("in", direction="in", max_rate=frequency, fixed_rate=frequency)
    component.add_port("out", direction="out", max_rate=frequency, fixed_rate=frequency)
    component.connect(
        component.port_ref("in"),
        component.port_ref("out"),
        epsilon=Fraction(1) / frequency,
        purpose="firing",
        label=f"{decl.name}:period",
    )
    interface = StreamInterface(
        name=decl.name,
        is_output=True,
        entry=component.port_ref("in"),
        exit=component.port_ref("out"),
    )
    return DerivedInstance(component=component, interfaces={decl.name: interface})


def build_sink_component(
    parent: Component, decl: ast.SinkDecl, *, instance_name: Optional[str] = None
) -> DerivedInstance:
    """A periodic sink: data input pinned at its frequency, internal
    connection with constant delay ``1/f``."""
    frequency = Fraction(decl.frequency_hz)
    component = parent.new_component(instance_name or f"snk_{decl.name}", kind="sink")
    component.metadata["function"] = decl.function
    component.metadata["frequency_hz"] = frequency
    component.add_port("in", direction="in", max_rate=frequency, fixed_rate=frequency)
    component.add_port("out", direction="out", max_rate=frequency, fixed_rate=frequency)
    component.connect(
        component.port_ref("in"),
        component.port_ref("out"),
        epsilon=Fraction(1) / frequency,
        purpose="firing",
        label=f"{decl.name}:period",
    )
    interface = StreamInterface(
        name=decl.name,
        is_output=False,
        entry=component.port_ref("in"),
        exit=component.port_ref("out"),
    )
    return DerivedInstance(component=component, interfaces={decl.name: interface})


def build_black_box_component(
    parent: Component,
    box: BlackBoxModule,
    *,
    instance_name: Optional[str] = None,
    default_duration: Rat = Fraction(0),
) -> DerivedInstance:
    """A black-box module: a single task-style component built from the
    declared interface (access counts per port, firing duration, optional
    maximum rate).  This is how library components with temporal interfaces
    are composed (Sec. I / Sec. V-C)."""
    duration = box.firing_duration if box.firing_duration else default_duration
    task = Task(name=box.name, kind="call", function=box.name, firing_duration=duration)
    task.reads = [Access(port.name, port.count) for port in box.ports if not port.is_output]
    task.writes = [Access(port.name, port.count) for port in box.ports if port.is_output]
    component = build_task_component(task, parent, name=instance_name or box.name)
    component.kind = "black-box"
    component.metadata["black_box"] = box.name

    if box.max_rate is not None:
        for port in box.ports:
            for suffix in ("take", "give"):
                port_obj = component.ports[f"{port.name}.{suffix}"]
                cap = Fraction(box.max_rate) * port.count
                if port_obj.max_rate is None or cap < port_obj.max_rate:
                    port_obj.max_rate = cap

    interfaces: Dict[str, StreamInterface] = {}
    for port in box.ports:
        if port.is_output:
            entry = component.port_ref(f"{port.name}.take")   # space in
            exit_ = component.port_ref(f"{port.name}.give")   # data out
        else:
            entry = component.port_ref(f"{port.name}.take")   # data in
            exit_ = component.port_ref(f"{port.name}.give")   # space out
        interfaces[port.name] = StreamInterface(
            name=port.name,
            is_output=port.is_output,
            entry=entry,
            exit=exit_,
            transfer_count=port.count,
        )
    return DerivedInstance(component=component, interfaces=interfaces)


# --------------------------------------------------------------------------
# Module instantiation
# --------------------------------------------------------------------------

def instantiate_module(
    context: DerivationContext,
    parent: Component,
    module_name: str,
) -> DerivedInstance:
    """Instantiate *module_name* (sequential, parallel or black box) under
    *parent* and return the derived instance."""
    if module_name in context.black_boxes:
        instance = build_black_box_component(
            parent,
            context.black_boxes[module_name],
            instance_name=context.instance_name(module_name),
            default_duration=context.default_black_box_duration,
        )
        return instance

    module = context.program.module(module_name)
    if isinstance(module, ast.SequentialModule):
        graph = context.task_graphs[module_name]
        derived = derive_sequential_module(
            graph, parent, instance_name=context.instance_name(module_name)
        )
        context.register_buffers(derived.buffers)
        context.warnings.extend(derived.warnings)
        return DerivedInstance(
            component=derived.component,
            interfaces=derived.interfaces,
            buffers=derived.buffers,
            warnings=derived.warnings,
            sequential=derived,
        )
    if isinstance(module, ast.ParallelModule):
        return build_parallel_module(context, parent, module)
    raise TypeError(f"unknown module kind for {module_name!r}")  # pragma: no cover


def build_parallel_module(
    context: DerivationContext,
    parent: Component,
    module: ast.ParallelModule,
    *,
    instance_name: Optional[str] = None,
) -> DerivedInstance:
    """Derive the CTA component of a parallel module (Sec. V-C, Fig. 10)."""
    component = parent.new_component(
        instance_name or context.instance_name(module.name), kind="module-par"
    )
    component.metadata["module"] = module.name

    # Module-level stream ports (modelling artifacts, unbounded max rate).
    interfaces: Dict[str, StreamInterface] = {}
    for param in module.params:
        entry, exit_ = ensure_stream_ports(component, param.name)
        interfaces[param.name] = StreamInterface(
            name=param.name, is_output=param.is_output, entry=entry, exit=exit_
        )

    # Sources and sinks declared here.
    local_endpoints: Dict[str, DerivedInstance] = {}
    for source in module.sources:
        instance = build_source_component(component, source)
        local_endpoints[source.name] = instance
        context.source_ports[source.name] = instance.interfaces[source.name].exit
    for sink in module.sinks:
        instance = build_sink_component(component, sink)
        local_endpoints[sink.name] = instance
        context.sink_ports[sink.name] = instance.interfaces[sink.name].entry

    # Instantiate the called modules.
    instances: List[Tuple[ast.ModuleCall, DerivedInstance]] = []
    for call in module.calls:
        instance = instantiate_module(context, component, call.module)
        instances.append((call, instance))

    # Wire every stream: collect the writer interface and reader interfaces.
    stream_writers: Dict[str, List[StreamInterface]] = {}
    stream_readers: Dict[str, List[StreamInterface]] = {}

    def note(stream: str, interface: StreamInterface, is_writer: bool) -> None:
        (stream_writers if is_writer else stream_readers).setdefault(stream, []).append(interface)

    for source_name, instance in local_endpoints.items():
        interface = instance.interfaces[source_name]
        note(source_name, interface, is_writer=interface.is_output)

    for call, instance in instances:
        target = (
            context.black_boxes.get(call.module)
            or context.program.module(call.module)
        )
        params = (
            [(p.name, p.is_output) for p in target.ports]
            if isinstance(target, BlackBoxModule)
            else [(p.name, p.is_output) for p in target.params]
        )
        for (param_name, param_is_out), argument in zip(params, call.arguments):
            interface = instance.interfaces[param_name]
            note(argument.name, interface, is_writer=param_is_out)

    fifo_types = {f.name for f in module.fifos}
    declared_here = fifo_types | {s.name for s in module.sources} | {s.name for s in module.sinks}

    for stream, readers in stream_readers.items():
        writers = stream_writers.get(stream, [])
        if stream in declared_here or writers:
            _wire_buffered_stream(context, component, module, stream, writers, readers)
        else:
            # Input parameter of this module: forward the module ports.
            _wire_module_parameter(component, interfaces.get(stream), readers, is_output=False)

    for stream, writers in stream_writers.items():
        if stream in declared_here:
            continue
        if stream in stream_readers:
            continue  # already handled above
        # Output parameter written by a sub-component but not read locally.
        _wire_module_parameter(component, interfaces.get(stream), writers, is_output=True)

    # Latency constraints between sources and sinks.
    for constraint in module.latency_constraints:
        subject = context.source_ports.get(constraint.subject) or context.sink_ports.get(
            constraint.subject
        )
        reference = context.source_ports.get(constraint.reference) or context.sink_ports.get(
            constraint.reference
        )
        if subject is None or reference is None:
            context.warnings.append(
                f"latency constraint between {constraint.subject!r} and "
                f"{constraint.reference!r} skipped (undeclared endpoints)"
            )
            continue
        latency = LatencyConstraint(
            subject=subject,
            reference=reference,
            bound=Fraction(constraint.amount_seconds),
            kind=constraint.relation,
        )
        context.latency_constraints.append(latency)

    return DerivedInstance(
        component=component,
        interfaces=interfaces,
        calls=[instance for _, instance in instances],
    )


def _wire_buffered_stream(
    context: DerivationContext,
    component: Component,
    module: ast.ParallelModule,
    stream: str,
    writers: List[StreamInterface],
    readers: List[StreamInterface],
) -> None:
    """FIFO / source / sink communication: forward data connection plus a
    reverse connection carrying the capacity (Sec. V-C)."""
    if not writers or not readers:
        context.warnings.append(
            f"stream {stream!r} in module {module.name!r} has "
            f"{len(writers)} writer(s) and {len(readers)} reader(s); not wired"
        )
        return
    writer = writers[0]
    initial = writer.initial_tokens
    # The FIFO must at least hold the largest single transfer of any endpoint
    # (otherwise the implementation deadlocks regardless of timing) plus any
    # initially available values.
    minimum = max(
        [1, initial, writer.transfer_count] + [reader.transfer_count for reader in readers]
    )
    capacity = BufferParameter(f"{module.name}/{stream}", minimum=minimum)
    context.buffers[capacity.name] = capacity
    for reader in readers:
        component.connect(
            writer.exit,
            reader.entry,
            phi=-initial,
            purpose="buffer-data",
            label=f"{stream}:data",
        )
        component.connect(
            reader.exit,
            writer.entry,
            phi=initial,
            buffer=capacity,
            purpose="buffer",
            label=f"{stream}:space",
        )


def _wire_module_parameter(
    component: Component,
    interface: Optional[StreamInterface],
    inner: List[StreamInterface],
    *,
    is_output: bool,
) -> None:
    """Forward a module parameter's ports to the sub-components using it."""
    if interface is None:
        return
    # Propagate the boundary characteristics of the inner users so that the
    # enclosing level sizes its FIFOs correctly.
    if inner:
        interface.transfer_count = max(
            [interface.transfer_count] + [sub.transfer_count for sub in inner]
        )
        if is_output:
            interface.initial_tokens = max(
                [interface.initial_tokens] + [sub.initial_tokens for sub in inner]
            )
    for sub in inner:
        component.connect(
            interface.entry,
            sub.entry,
            purpose="periodicity",
            label=f"{interface.name}:forward",
        )
        component.connect(
            sub.exit,
            interface.exit,
            purpose="periodicity",
            label=f"{interface.name}:return",
        )
