"""Discrete-event execution of compiled OIL programs.

The simulator instantiates the module hierarchy of a compiled program --
FIFOs, sources, sinks, sequential-module task graphs and black boxes -- and
executes it with self-timed (data-driven) task semantics on virtual
unbounded-parallel hardware by default: every task occupies its own
processor, exactly the execution model the CTA analysis bounds.  This
replaces the paper's multi-core MPSoC platform (ref. [28]); each task firing
takes its registered worst-case response time.  Execution is the scheduler
engine's (:mod:`repro.engine`): one dispatch loop, one start and one
completion for every scheduling policy, whether it bounds the processors,
fixes a static order, or models a platform with speeds and preemption.

The simulation is used by the examples and benchmarks to validate the
analysis results: with the buffer capacities computed by
:mod:`repro.cta.buffer_sizing`, periodic sources never find their buffer full
and periodic sinks never find it empty.  Too-small capacities show up as
those deadline misses, which the trace counts at every level.  Each buffer
also reports its occupancy high-water mark; the runtime capacity bounds it
by construction (every acquire checks it), so the mark shows how much of a
buffer a run used, not whether the analysed capacity sufficed.

Modal behaviour: a sequential module with a single (infinite) top-level loop
runs fully data-driven; a module with several top-level loops switches
between them according to a *mode schedule* (iteration quotas per loop)
supplied by the caller -- the adversarial mode sequences of experiment E10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.compiler import CompilationResult
from repro.engine.dispatcher import ExecutionEngine
from repro.engine.steady_state import check_fast_forward, function_qualification
from repro.graph.circular_buffer import CircularBuffer
from repro.graph.taskgraph import Access, Task, TaskGraph
from repro.lang import ast
from repro.lang.semantics import BlackBoxModule
from repro.runtime.events import EventQueue
from repro.runtime.functions import FunctionRegistry, FunctionSpec
from repro.runtime.sources import SinkDriver, SourceDriver, Stimulus
from repro.runtime.tasks import OilRuntimeError, RuntimeTask
from repro.runtime.trace import TraceRecorder
from repro.util.rational import Rat, TimeBase, as_rational
from repro.util.validation import check_non_negative

if TYPE_CHECKING:  # annotations only
    from repro.platform.model import Platform
    from repro.platform.policies import PlatformPolicy

#: A mode schedule: per module instance path (or module name), the cyclic list
#: of (loop identifier, iteration quota) phases.
ModeSchedule = Mapping[str, Sequence[Tuple[str, int]]]


@dataclass
class SequentialInstance:
    """Book-keeping of one instantiated sequential module."""

    path: str
    graph: TaskGraph
    tasks: List[RuntimeTask] = field(default_factory=list)
    #: phases: list of (loop identifier, iteration quota); empty = single mode
    phases: List[Tuple[str, int]] = field(default_factory=list)
    phase_index: int = 0

    def tasks_of_loop(self, loop: Optional[str]) -> List[RuntimeTask]:
        return [t for t in self.tasks if (t.task.loop or "").split(".")[0] == (loop or "")]

    def active_loop(self) -> Optional[str]:
        if not self.phases:
            return None
        return self.phases[self.phase_index % len(self.phases)][0]

    def apply_activation(self) -> None:
        """Activate the tasks of the current phase (single-mode: all tasks).

        When a mode switch activates a loop, the windows of its tasks are
        moved forward to the frontier the previous mode left behind -- this is
        the runtime counterpart of the distribution/combination tasks of
        Sec. V-B.3 (the next values of a stream go to whichever loop executes
        next), and the windows of inactive loops are excluded from the buffer
        availability computations so that an idle mode never blocks the
        active one.
        """
        if not self.phases:
            for task in self.tasks:
                task.active = True
            return
        active = self.active_loop()
        newly_active: List[RuntimeTask] = []
        for task in self.tasks:
            if task.one_shot:
                task.active = True
                continue
            top_loop = (task.task.loop or "").split(".")[0]
            was_active = task.active
            task.active = top_loop == active
            if task.active and not was_active:
                newly_active.append(task)
            if not task.active:
                task.phase_firings = 0

        # Reflect activation on the buffer windows.
        for task in self.tasks:
            if task.one_shot:
                continue
            key = task.producer_key()
            for access in task.task.reads:
                task.buffers[access.buffer].set_consumer_active(key, task.active)
            for access in task.task.writes:
                task.buffers[access.buffer].set_producer_active(key, task.active)

        # Newly activated tasks continue from the frontier of the instance.
        for task in newly_active:
            key = task.producer_key()
            for access in task.task.reads:
                buffer = task.buffers[access.buffer]
                frontier = max(
                    (
                        buffer.consumer_position(other.producer_key())
                        for other in self.tasks
                        if not other.one_shot
                        and any(a.buffer == access.buffer for a in other.task.reads)
                    ),
                    default=0,
                )
                buffer.advance_consumer_to(key, frontier)
            for access in task.task.writes:
                buffer = task.buffers[access.buffer]
                frontier = max(
                    (
                        buffer.producer_position(other.producer_key())
                        for other in self.tasks
                        if not other.one_shot
                        and any(a.buffer == access.buffer for a in other.task.writes)
                    ),
                    default=0,
                )
                buffer.advance_producer_to(key, frontier)

    def maybe_advance_phase(self) -> bool:
        """Advance to the next phase when the iteration quota is reached."""
        if not self.phases:
            return False
        loop, quota = self.phases[self.phase_index % len(self.phases)]
        loop_tasks = [t for t in self.tasks if not t.one_shot and (t.task.loop or "").split(".")[0] == loop]
        if not loop_tasks:
            return False
        if min(t.phase_firings for t in loop_tasks) >= quota:
            for task in loop_tasks:
                task.phase_firings = 0
            self.phase_index += 1
            self.apply_activation()
            return True
        return False


class Simulation:
    """A runnable instantiation of a compiled OIL program.

    Execution is delegated to the pluggable scheduler engine
    (:mod:`repro.engine`): this class instantiates the module hierarchy --
    buffers, drivers, runtime tasks, mode schedules -- and registers the
    resulting task fleet with an :class:`~repro.engine.dispatcher.ExecutionEngine`
    that performs indexed ready-set dispatch: one dispatch loop for every
    scheduler, on either time base.

    Parameters (scheduling)
    -----------------------
    scheduler:
        A scheduling policy (:class:`~repro.platform.policies.PlatformPolicy`)
        deciding which eligible task occupies which processor when: one of
        :mod:`repro.engine.policies` or :mod:`repro.platform.policies`;
        default :class:`~repro.engine.policies.SelfTimedUnbounded` (one
        processor per task, the execution model the CTA analysis bounds).
    platform:
        A :class:`~repro.platform.model.Platform` shorthand for
        ``scheduler=platform.policy()`` -- partitioned when the platform
        carries an affinity mapping, greedy list scheduling otherwise.
        Mutually exclusive with ``scheduler``.  The platform's speed-scaled
        firing durations join the tick-base derivation, so heterogeneous
        runs stay on exact integer ticks.
    trace_level:
        Granularity of the :class:`~repro.runtime.trace.TraceRecorder`
        (``"full"``, ``"endpoints"`` or ``"off"``).  Deadline misses are
        counted at every level; the recorder stores native-unit records and
        converts them to exact seconds when they are read.
    mode_schedules:
        Per sequential instance path or module name, the cyclic list of
        ``(top-level loop, iteration quota)`` phases of a multi-loop module.
        A key that names no sequential instance or module, or a loop that is
        not a top-level loop of that module, raises :class:`ValueError`.
    fast_forward:
        Online steady-state detection and O(1) period skipping
        (:mod:`repro.engine.steady_state`):

        * ``"auto"`` (default) engages the value-exact detector when the
          program qualifies -- every source stimulus declared periodic in
          value (:class:`~repro.runtime.sources.Stimulus`) and every
          coordinated function declaring jump-exact behaviour
          (:class:`~repro.runtime.functions.FunctionSpec`).  Qualified
          runs are bit-identical to naive execution, data values
          included.  Unqualified runs step naively; undeclared functions
          record an ``undeclared-function`` warning, while aperiodic
          stimuli and engine-level refusals fall back silently.
        * ``False`` always steps naively.

        Any other value raises :class:`ValueError`.
    trace_retention:
        Keep only the most recent N records per trace stream (see
        :class:`~repro.runtime.trace.TraceRecorder`); ``None`` (default)
        stores everything.  Anything but ``None`` or an integer ``>= 0``
        raises :class:`TypeError` or :class:`ValueError` here, before the
        run.  Streaming counters and rates remain exact either
        way; long fast-forwarded horizons need a cap (or a coarser
        ``trace_level``) to avoid materialising billions of records.

    The time base is derived, never chosen: once the program is
    instantiated, :meth:`ExecutionEngine.derive_time_base
    <repro.engine.dispatcher.ExecutionEngine.derive_time_base>` puts the
    queue on integer ticks covering every driver period and offset and every
    (speed-scaled) response time, or on exact :class:`~fractions.Fraction`
    timestamps when no such grid exists.  :attr:`time_base` reports which.
    A policy that migrates firings across speeds gets the grid too; the
    instants its rescaled remainders push between two ticks are exact
    fractional tick counts.  Both representations give bit-identical traces.
    """

    def __init__(
        self,
        result: CompilationResult,
        registry: FunctionRegistry,
        *,
        source_signals: Optional[Mapping[str, Union[Stimulus, Iterable, Callable[[], Iterator]]]] = None,
        capacities: Optional[Mapping[str, Optional[int]]] = None,
        default_capacity: int = 64,
        mode_schedules: Optional[ModeSchedule] = None,
        sink_start_times: Optional[Mapping[str, Rat]] = None,
        top: Optional[str] = None,
        scheduler: Optional["PlatformPolicy"] = None,
        platform: Optional["Platform"] = None,
        trace_level: str = "full",
        fast_forward: Union[bool, str] = "auto",
        trace_retention: Optional[int] = None,
    ) -> None:
        check_fast_forward(fast_forward)
        self.result = result
        self.registry = registry
        if platform is not None:
            if scheduler is not None:
                raise OilRuntimeError("pass either scheduler= or platform=, not both")
            scheduler = platform.policy()
        self.queue = EventQueue()
        self.trace = TraceRecorder(level=trace_level, retention=trace_retention)
        self.engine = ExecutionEngine(self.queue, self.trace, policy=scheduler)
        #: the platform the policy runs on, or None for policies on
        #: anonymous processors
        self.platform = self.engine.policy.platform
        self.engine.on_complete = self._after_firing
        self.fast_forward = fast_forward
        #: fast-forward qualification warnings recorded for this simulation
        #: (see the ``warnings`` property for the merged view)
        self._warnings: List[str] = []
        #: cached auto-mode qualification: (qualified, function specs);
        #: computed once at the first install so warnings appear once
        self._auto_setup: Optional[Tuple[bool, Dict[str, FunctionSpec]]] = None
        self.default_capacity = default_capacity
        self.mode_schedules = dict(mode_schedules or {})
        self.sink_start_times = {k: as_rational(v) for k, v in (sink_start_times or {}).items()}
        self._signals = dict(source_signals or {})

        provided = capacities if capacities is not None else result.buffer_capacities()
        self.capacities: Dict[str, int] = {
            name: value for name, value in provided.items() if value is not None
        }

        self.buffers: Dict[str, CircularBuffer] = {}
        self.sources: Dict[str, SourceDriver] = {}
        self.sinks: Dict[str, SinkDriver] = {}
        #: the delayed-start sinks that have not started yet, in registration
        #: order (set when the drivers start; ``started`` never resets)
        self._waiting_sinks: List[SinkDriver] = []
        self.instances: List[SequentialInstance] = []
        #: O(1) task -> owning instance lookup (replaces the seed's linear
        #: scan over all instances on every firing completion)
        self._instance_of: Dict[RuntimeTask, SequentialInstance] = {}
        self._wired = False

        top_name = top or self._default_top()
        top_module = result.program.module(top_name)
        if isinstance(top_module, ast.SequentialModule):
            raise OilRuntimeError(
                "the simulation entry point must be a parallel module with sources and sinks"
            )
        #: the keys a mode schedule may use: every sequential instance's path
        #: and module name
        self._schedulable: set = set()
        self._instantiate_parallel(top_module, bindings={}, path=top_name)
        unknown = sorted(self.mode_schedules.keys() - self._schedulable)
        if unknown:
            raise ValueError(
                f"mode schedules for {unknown} name no sequential module "
                f"instance; valid keys: {sorted(self._schedulable)}"
            )

        for instance in self.instances:
            instance.apply_activation()

        #: the tick grid the queue runs on, or ``None`` in fraction mode
        #: (only when no grid exists); derived once the instantiated
        #: program's durations are known and before any event is scheduled.
        #: Under a speed-migrating policy some instants fall between ticks
        #: and are exact fractional tick counts on this grid.
        self.time_base: Optional[TimeBase] = self.engine.derive_time_base(
            self._driver_durations()
        )

    # -------------------------------------------------------------- time base
    def _driver_durations(self) -> List[Rat]:
        """Every duration the drivers schedule with: periods, start offsets
        and the instants delayed-start sinks phase in at (by default half a
        period).  The engine adds the response times."""
        durations: List[Rat] = []
        for source in self.sources.values():
            durations.append(source.period)
            durations.append(source.start_offset)
        for sink in self.sinks.values():
            durations.append(sink.period)
            if sink.start_time is not None:
                durations.append(sink.start_time)
            else:
                durations.append(sink.period / 2)
        return durations

    # ------------------------------------------------------------------ build
    def _default_top(self) -> str:
        metadata = self.result.root.component.metadata
        name = metadata.get("module")
        if isinstance(name, str):
            return name
        if self.result.program.main is not None:
            return self.result.program.main.name
        raise OilRuntimeError("cannot determine the top-level module of the simulation")

    def _capacity_for(self, *keys: str, minimum: int = 1) -> int:
        """Combine the analysis capacities of the buffers chained between two
        modules into the capacity of the single runtime buffer implementing
        them (a series of buffers of sizes a and b behaves like one buffer of
        size a+b for the purposes of back pressure)."""
        total = 0
        matched = False
        for key in keys:
            if key in self.capacities:
                total += self.capacities[key]
                matched = True
        if not matched:
            total = self.default_capacity
        return max(total, minimum)

    def _access_capacity_keys(self, module_name: str, param: str) -> List[str]:
        """The analysis buffer names of all distribution/combination buffers
        that sit between *param* of *module_name* and the tasks that finally
        access it.

        For a sequential module these are its own ``<param>.access*`` buffers;
        for a parallel module the stream is forwarded to inner module calls,
        so the walk recurses into every call that receives the parameter.
        Black boxes contribute nothing (they access the FIFO directly).
        """
        boxes = self.result.analysis.black_boxes
        if module_name in boxes:
            return []
        try:
            definition = self.result.program.module(module_name)
        except KeyError:
            return []
        if isinstance(definition, ast.SequentialModule):
            prefix = f"{module_name}/"
            needle = f"/{param}.access"
            return [
                name for name in self.capacities if name.startswith(prefix) and needle in name
            ]
        keys: List[str] = []
        for call in definition.calls:
            target = boxes.get(call.module)
            if target is not None:
                params = [p.name for p in target.ports]
            else:
                params = [p.name for p in self.result.program.module(call.module).params]
            for inner_param, argument in zip(params, call.arguments):
                if argument.name == param:
                    keys.extend(self._access_capacity_keys(call.module, inner_param))
        return keys

    def _transfer_floor(self, module_name: str, param: str) -> int:
        """The largest number of values transferred in one access of *param*
        by *module_name* (a lower bound for any runtime buffer capacity)."""
        boxes = self.result.analysis.black_boxes
        if module_name in boxes:
            counts = [p.count for p in boxes[module_name].ports if p.name == param]
            return max(counts, default=1)
        try:
            definition = self.result.program.module(module_name)
        except KeyError:
            return 1
        if isinstance(definition, ast.SequentialModule):
            graph = self.result.task_graphs.get(module_name)
            if graph and param in graph.streams:
                counts = list(graph.streams[param].per_loop_counts.values())
                buffer_spec = graph.buffers.get(param)
                if buffer_spec is not None:
                    counts.extend(count for _, count in buffer_spec.producers)
                    counts.extend(count for _, count in buffer_spec.consumers)
                return max(counts, default=1)
            return 1
        floor = 1
        for call in definition.calls:
            target = boxes.get(call.module)
            if target is not None:
                params = [p.name for p in target.ports]
            else:
                params = [p.name for p in self.result.program.module(call.module).params]
            for inner_param, argument in zip(params, call.arguments):
                if argument.name == param:
                    floor = max(floor, self._transfer_floor(call.module, inner_param))
        return floor

    def _instantiate_parallel(
        self,
        module: ast.ParallelModule,
        bindings: Mapping[str, CircularBuffer],
        path: str,
    ) -> None:
        local: Dict[str, CircularBuffer] = dict(bindings)

        # Who uses each locally declared stream? (for capacity aggregation)
        users: Dict[str, List[Tuple[str, str]]] = {}
        for call in module.calls:
            target = self.result.analysis.black_boxes.get(call.module)
            params: List[Tuple[str, bool]]
            if target is not None:
                params = [(p.name, p.is_output) for p in target.ports]
            else:
                definition = self.result.program.module(call.module)
                params = [(p.name, p.is_output) for p in definition.params]
            for (param_name, _), argument in zip(params, call.arguments):
                users.setdefault(argument.name, []).append((call.module, param_name))

        def stream_capacity(par_key: str, stream: str) -> int:
            keys = [f"{par_key}/{stream}"]
            floor = 1
            for user_module, user_param in users.get(stream, []):
                keys.extend(self._access_capacity_keys(user_module, user_param))
                floor = max(floor, self._transfer_floor(user_module, user_param))
            return self._capacity_for(*keys, minimum=floor)

        # FIFOs declared here.
        for fifo in module.fifos:
            capacity = stream_capacity(module.name, fifo.name)
            buffer = CircularBuffer(f"{path}/{fifo.name}", capacity)
            self.buffers[buffer.name] = buffer
            local[fifo.name] = buffer

        # Sources and sinks declared here.
        for source in module.sources:
            capacity = stream_capacity(module.name, source.name)
            buffer = CircularBuffer(f"{path}/{source.name}", capacity)
            self.buffers[buffer.name] = buffer
            local[source.name] = buffer
            # SourceDriver normalises a None, list or factory signal into a
            # Stimulus and refuses a bare iterator; see
            # repro.runtime.sources.as_stimulus.
            driver = SourceDriver(
                name=source.name,
                buffer=buffer,
                period=Fraction(1) / Fraction(source.frequency_hz),
                values=self._signals.get(source.name),
                trace=self.trace,
                queue=self.queue,
                on_change=self._schedule_dispatch,
            )
            self.sources[source.name] = driver

        for sink in module.sinks:
            capacity = stream_capacity(module.name, sink.name)
            buffer = CircularBuffer(f"{path}/{sink.name}", capacity)
            self.buffers[buffer.name] = buffer
            local[sink.name] = buffer
            driver = SinkDriver(
                name=sink.name,
                buffer=buffer,
                period=Fraction(1) / Fraction(sink.frequency_hz),
                trace=self.trace,
                queue=self.queue,
                start_time=self.sink_start_times.get(sink.name),
                on_change=self._schedule_dispatch,
            )
            self.sinks[sink.name] = driver

        # Instantiate the called modules.
        for index, call in enumerate(module.calls):
            child_path = f"{path}/{call.module}" if path else call.module
            if call.module in self.result.analysis.black_boxes:
                box = self.result.analysis.black_boxes[call.module]
                child_bindings = {
                    port.name: local[argument.name]
                    for port, argument in zip(box.ports, call.arguments)
                }
                self._instantiate_black_box(box, child_bindings, child_path)
                continue
            definition = self.result.program.module(call.module)
            child_bindings = {
                param.name: local[argument.name]
                for param, argument in zip(definition.params, call.arguments)
            }
            if isinstance(definition, ast.ParallelModule):
                self._instantiate_parallel(definition, child_bindings, child_path)
            else:
                self._instantiate_sequential(definition, child_bindings, child_path)

    def _instantiate_sequential(
        self,
        module: ast.SequentialModule,
        bindings: Mapping[str, CircularBuffer],
        path: str,
    ) -> None:
        graph = self.result.task_graphs[module.name]
        instance = SequentialInstance(path=path, graph=graph)

        # Local variable buffers.
        buffers: Dict[str, CircularBuffer] = dict(bindings)
        for buffer_spec in graph.buffers.values():
            if buffer_spec.kind != "variable":
                continue
            capacity = self._capacity_for(f"{module.name}/{buffer_spec.name}", minimum=2)
            buffer = CircularBuffer(f"{path}/{buffer_spec.name}", capacity)
            self.buffers[buffer.name] = buffer
            buffers[buffer_spec.name] = buffer

        # Runtime tasks.
        for task in sorted(graph.tasks.values(), key=lambda t: t.order):
            runtime_task = RuntimeTask(
                name=task.name,
                task=task,
                instance=path,
                registry=self.registry,
                buffers=buffers,
                wcet=task.firing_duration,
                one_shot=task.loop is None,
            )
            key = runtime_task.producer_key()
            for access in task.reads:
                buffers[access.buffer].register_consumer(key)
            for access in task.writes:
                buffers[access.buffer].register_producer(key)
            instance.tasks.append(runtime_task)
            self._register_task(runtime_task, instance)

        # Mode schedule (multiple top-level loops).
        top_loops = graph.top_level_loops()
        self._schedulable.update((path, module.name))
        schedule = self.mode_schedules.get(path) or self.mode_schedules.get(module.name)
        if schedule:
            loops = [loop.identifier for loop in top_loops]
            unknown = sorted({loop for loop, _ in schedule} - set(loops))
            if unknown:
                raise ValueError(
                    f"the mode schedule of {path!r} names {unknown}, which are "
                    f"not top-level loops of module {module.name!r}: {loops}"
                )
            instance.phases = [(loop, int(quota)) for loop, quota in schedule]
        elif len(top_loops) > 1:
            # Default: round-robin with one iteration per loop.
            instance.phases = [(loop.identifier, 1) for loop in top_loops]
        self.instances.append(instance)

    def _instantiate_black_box(
        self,
        box: BlackBoxModule,
        bindings: Mapping[str, CircularBuffer],
        path: str,
    ) -> None:
        task = Task(name=box.name, kind="call", function=box.name, firing_duration=box.firing_duration)
        task.reads = [Access(port.name, port.count) for port in box.ports if not port.is_output]
        task.writes = [Access(port.name, port.count) for port in box.ports if port.is_output]
        runtime_task = RuntimeTask(
            name=f"{box.name}",
            task=task,
            instance=path,
            registry=self.registry,
            buffers=dict(bindings),
            wcet=box.firing_duration,
        )
        key = runtime_task.producer_key()
        for access in task.reads:
            bindings[access.buffer].register_consumer(key)
        for access in task.writes:
            bindings[access.buffer].register_producer(key)
        instance = SequentialInstance(path=path, graph=TaskGraph(box.name))
        instance.tasks.append(runtime_task)
        self.instances.append(instance)
        self._register_task(runtime_task, instance)

    # -------------------------------------------------------------- scheduling
    @property
    def tasks(self) -> List[RuntimeTask]:
        """The task fleet, in registration (static priority) order.  The
        engine owns the list; this is a read-only view."""
        return self.engine.tasks

    def _register_task(self, task: RuntimeTask, instance: SequentialInstance) -> None:
        self._instance_of[task] = instance
        self.engine.register_task(task)

    def _schedule_dispatch(self) -> None:
        """Driver change callback: ask the engine for a dispatch round."""
        self.engine.schedule_dispatch()

    def _after_firing(self, task: RuntimeTask) -> None:
        """Engine completion hook: advance mode schedules and wake sinks.

        A phase switch (de)activates whole loops; besides the buffer-floor
        notifications that already woke dependents, every task of the
        instance is re-queued because activation alone can change
        eligibility without moving any floor.
        """
        instance = self._instance_of.get(task)
        if instance is not None and instance.maybe_advance_phase():
            self.engine.wake_tasks(instance.tasks)
        if self._waiting_sinks:
            self._notify_sinks()

    def _notify_sinks(self) -> None:
        """Offer data to the sinks still waiting to start; a sink leaves the
        list once it has started."""
        waiting = self._waiting_sinks
        for driver in waiting:
            driver.notify_data_available()
        self._waiting_sinks = [driver for driver in waiting if not driver.started]

    # ---------------------------------------------------------- fast-forward
    @property
    def warnings(self) -> List[str]:
        """Fast-forward fallbacks and give-ups recorded so far (the same
        strings a :class:`~repro.api.sweep.SweepReport` collects)."""
        steady = self.engine.steady_state
        extra = list(steady.warnings) if steady is not None else []
        return self._warnings + extra

    def _mode_state(self) -> tuple:
        """Mode-schedule progress, folded into the fast-forward state key.

        The engine's detector deliberately excludes ``task.phase_firings``
        (it grows without bound on unphased tasks); under a mode schedule the
        counter is bounded -- reset at every quota boundary and deactivation
        -- and, together with the cyclic phase index, it *is* the schedule's
        progress, so phased instances contribute exactly that here.
        """
        items = []
        for instance in self.instances:
            if not instance.phases:
                continue
            items.append(
                (
                    instance.path,
                    instance.phase_index % len(instance.phases),
                    tuple(
                        task.phase_firings
                        for task in instance.tasks
                        if not task.one_shot
                    ),
                )
            )
        return tuple(items)

    def _value_exact_qualification(self) -> Tuple[bool, Dict[str, FunctionSpec]]:
        """Qualify the program for value-exact fast-forward.

        Qualified means: every source stimulus is declared value-periodic
        and every function the fleet can invoke declares jump-exact
        behaviour.  A function with no declaration records the
        ``undeclared-function`` warning; aperiodic stimuli (ramps,
        generator factories, finite lists) and unregistered fallback names
        disqualify silently (the user declared exactly what the stream is;
        auto simply cannot jump it).
        """
        qualified, specs, warning = function_qualification(self.engine.tasks)
        if warning is not None:
            self._warnings.append(warning)
        periodic = all(driver.values.value_periodic for driver in self.sources.values())
        return qualified and periodic, specs

    def _install_fast_forward(self, horizon: Rat) -> None:
        if self._auto_setup is None:
            self._auto_setup = self._value_exact_qualification()
        qualified, specs = self._auto_setup
        if not qualified:
            return
        # Engine-level refusals are silent ("auto" never promised a jump).
        self.engine.enable_fast_forward(
            horizon,
            extra_state=self._mode_state,
            sources=list(self.sources.values()),
            sinks=list(self.sinks.values()),
            functions=specs,
        )

    # ------------------------------------------------------------------- run
    def _start_drivers(self) -> None:
        """Launch sources and sinks (idempotently) and queue the task fleet.

        Driver windows must exist before the engine's buffer index is wired,
        so wiring happens on the first call -- after which buffer-floor
        notifications drive all dispatching.  Calling a run method again
        neither re-registers windows nor duplicates the periodic tick chains
        (the drivers' ``start`` is idempotent); it only re-queues the fleet.
        """
        for driver in self.sources.values():
            driver.start()
        for driver in self.sinks.values():
            driver.start()
        self._waiting_sinks = [driver for driver in self.sinks.values() if not driver.started]
        if not self._wired:
            self._wired = True
            self.engine.wire_buffers()
        self.engine.wake_all()
        self.engine.schedule_dispatch()

    def run(self, duration: Rat) -> TraceRecorder:
        """Run the simulation until the absolute simulated time *duration*.

        *duration* is an end time measured from simulation start (t = 0),
        not an increment: a repeated call resumes where the previous one
        stopped and runs up to the new end time, so ``run(1); run(2)``
        simulates two seconds in total and a second ``run(1)`` is a no-op.
        A negative *duration* raises :class:`ValueError`.
        """
        duration = check_non_negative(as_rational(duration), "run duration")
        self._start_drivers()
        if self.fast_forward:
            self._install_fast_forward(duration)
        self.queue.run_until(duration)
        return self.trace
