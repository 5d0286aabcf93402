"""The engine's test and benchmark fleets, printed as OIL programs.

Every property of the execution engine -- dispatch against the polling
oracle, ticks against the fraction oracle, fast-forward against a naive run,
static order against the generated sequential program, a policy against its
degenerate twin -- is checked on programs that take the path every workload
takes: OIL source through :meth:`repro.api.Program.from_source`, the
compiler's instantiation and :class:`~repro.runtime.simulator.Simulation`.
Three fixed families cover the engine's fleet shapes:

* :func:`ring` -- N modules in a cycle with K tokens seeded by ``init``
  statements, a response-time stagger and a per-buffer capacity.  With a
  stagger (almost) every firing triggers its own dispatch round while most
  modules wait: the dispatch-bound regime of the engine benchmarks.
* :func:`fork_join` -- a split, W calls of one ``Work`` module and a join,
  iterated round by round through a feedback stream seeded by the join: the
  Fig. 4 speedup-vs-processors workload.
* :func:`sdf` -- one module per actor of an SDF graph, each edge a FIFO, the
  edge's initial tokens an ``init`` in the producer: a static-order schedule
  computed by the dataflow analysis runs against the OIL tasks.

Token rings and fork/joins fail the CTA analysis (a ring reads inconsistent,
and sizing a fork/join finds a cycle whose delay does not depend on the
rate), so a :class:`Fleet` runs with explicit ``capacities=`` and never
sizes.  Every body is declared ``stateless``: ring tokens circulate
unchanged, workers pass their value on, joins and actors average, so the
value state recurs and ``fast_forward="auto"`` may jump; runs that must step
naively pass ``fast_forward=False``.  Task keys read ``<par>/<module>:t_<function>``,
for instance ``Ring/R3:t_step2`` or ``G/M_tg:t_init``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Mapping, Sequence

from repro.api import Program
from repro.dataflow.analysis import repetition_vector
from repro.dataflow.sdf import SDFGraph
from repro.runtime.functions import FunctionRegistry


class Fleet:
    """A printed program and the capacities of its FIFOs."""

    def __init__(
        self,
        source: str,
        *,
        name: str,
        wcets: Mapping[str, Fraction],
        registry: FunctionRegistry,
        capacities: Mapping[str, int],
    ) -> None:
        self.source = source
        self.capacities = dict(capacities)
        #: the longest response time: a live fleet keeps a processor busy,
        #: so it completes a firing at least this often on unit speed
        self.slowest = max(Fraction(wcet) for wcet in wcets.values())
        self.program = Program.from_source(
            source, name=name, function_wcets={"init": 0, **wcets}, registry=registry
        )

    def horizon(self, firings: int) -> Fraction:
        """A run long enough for at least *firings* completions."""
        return firings * self.slowest

    def simulation(self, **kwargs):
        """A fresh :class:`~repro.runtime.simulator.Simulation` on the
        fleet's capacities (``Analysis.simulation`` keywords)."""
        return self.program.analyze().simulation(capacities=self.capacities, **kwargs)

    def run(self, duration, **kwargs):
        """Run up to *duration* seconds (``Analysis.run`` keywords)."""
        return self.program.analyze().run(duration, capacities=self.capacities, **kwargs)


def _access(name: str, count: int) -> str:
    return name if count == 1 else f"{name}:{count}"


def _identity(value):
    return value


# ---------------------------------------------------------------------------
# Ring
# ---------------------------------------------------------------------------

def ring_source(task_count: int, *, tokens: int, stagger: int = 1) -> str:
    """Module ``R{i}`` reads ``b{i}`` and writes ``b{i+1}`` (mod N); the
    tokens are spread evenly, each an ``init`` of the buffer's producer
    carrying the buffer's index, and ``R{i}`` calls ``step{1 + i % stagger}``."""
    if not 0 < tokens < task_count:
        raise ValueError("a ring needs between 1 and task_count - 1 tokens")
    if stagger < 1:
        raise ValueError("stagger must be positive")
    seeded = {(i * task_count) // tokens for i in range(tokens)}
    lines: List[str] = []
    for i in range(task_count):
        following = (i + 1) % task_count
        lines.append(f"mod seq R{i}(float x, out float y){{")
        if following in seeded:
            lines.append(f"  init({following}, out y);")
        lines.append(f"  loop{{ step{1 + i % stagger}(x, out y); }} while(1);")
        lines.append("}")
    fifos = ", ".join(f"b{i}" for i in range(task_count))
    calls = " ||\n".join(
        f"  R{i}(b{i}, out b{(i + 1) % task_count})" for i in range(task_count)
    )
    lines.append(f"mod par Ring(){{\n  fifo float {fifos};\n{calls}\n}}")
    return "\n".join(lines) + "\n"


def ring(
    task_count: int,
    *,
    tokens: int,
    stagger: int = 1,
    capacity: int = 2,
    wcet: Fraction = Fraction(1, 1000),
) -> Fleet:
    """*task_count* modules in a cycle with *tokens* values circulating.

    ``R{i}`` takes ``wcet * (1 + i % stagger)`` per firing.  Every buffer
    holds *capacity* values (at least 2: one in flight, one seeded).  Token
    count is conserved, so the ring runs until the horizon."""
    if capacity < 2:
        raise ValueError("ring buffers need capacity >= 2 (one in flight + one initial)")
    registry = FunctionRegistry()
    registry.register("init", float, description="seed a token", stateless=True)
    for k in range(1, stagger + 1):
        registry.register(f"step{k}", _identity, description="pass the token on", stateless=True)
    return Fleet(
        ring_source(task_count, tokens=tokens, stagger=stagger),
        name=f"ring{task_count}",
        wcets={f"step{k}": Fraction(wcet) * k for k in range(1, stagger + 1)},
        registry=registry,
        capacities={f"Ring/b{i}": capacity for i in range(task_count)},
    )


# ---------------------------------------------------------------------------
# Fork / join
# ---------------------------------------------------------------------------

def fork_join_source(width: int) -> str:
    """``Split`` hands the round's value to *width* calls of ``Work``;
    ``Join`` combines their results and returns the token, which its
    ``init`` seeds."""
    if width < 1:
        raise ValueError("width must be positive")
    ins = [f"i{k}" for k in range(width)]
    outs = [f"o{k}" for k in range(width)]
    split_params = ", ".join(f"out float {name}" for name in ins)
    split_args = ", ".join(f"out {name}" for name in ins)
    join_params = ", ".join(f"float {name}" for name in outs)
    join_args = ", ".join(outs)
    workers = " ||\n".join(f"  Work({i}, out {o})" for i, o in zip(ins, outs))
    return (
        f"mod seq Split(float fb, {split_params}){{\n"
        f"  loop{{ split(fb, {split_args}); }} while(1);\n"
        "}\n"
        "mod seq Work(float x, out float y){\n"
        "  loop{ work(x, out y); } while(1);\n"
        "}\n"
        f"mod seq Join({join_params}, out float fb){{\n"
        "  init(0, out fb);\n"
        f"  loop{{ join({join_args}, out fb); }} while(1);\n"
        "}\n"
        "mod par ForkJoin(){\n"
        f"  fifo float fb, {', '.join(ins + outs)};\n"
        f"  Split(fb, {split_args}) ||\n{workers} ||\n  Join({join_args}, out fb)\n"
        "}\n"
    )


def fork_join(
    width: int,
    *,
    worker_wcet: Fraction = Fraction(1),
    overhead_wcet: Fraction = Fraction(1, 1000),
) -> Fleet:
    """A split -> *width* workers -> join diamond, iterated in rounds.  With
    ``BoundedProcessors(n)`` a round takes about ``ceil(width / n)`` worker
    durations, so the firings over a fixed horizon give the Fig. 4
    speedup curve."""
    registry = FunctionRegistry()
    registry.register("init", float, description="seed the round token", stateless=True)
    registry.register(
        "split",
        (lambda value: (value,) * width) if width > 1 else _identity,
        description="hand the round value to every worker",
        stateless=True,
    )
    registry.register("work", _identity, description="one unit of work", stateless=True)
    registry.register(
        "join",
        lambda *values: sum(values) / len(values),
        description="combine the round results",
        stateless=True,
    )
    streams = ["fb", *(f"i{k}" for k in range(width)), *(f"o{k}" for k in range(width))]
    return Fleet(
        fork_join_source(width),
        name=f"fork-join{width}",
        wcets={"split": overhead_wcet, "work": worker_wcet, "join": overhead_wcet},
        registry=registry,
        capacities={f"ForkJoin/{stream}": 2 for stream in streams},
    )


# ---------------------------------------------------------------------------
# SDF graphs
# ---------------------------------------------------------------------------

def sdf_source(graph: SDFGraph) -> str:
    """Module ``M_<actor>`` calls ``<actor>`` once per loop iteration,
    reading and writing each edge stream by the edge's rates; an edge's
    initial tokens are an ``init`` of its producer.  Edges are FIFOs of the
    parallel module ``G``; self-loops have no OIL form."""
    lines: List[str] = []
    calls: List[str] = []
    for actor in graph.actors:
        ins = graph.in_edges(actor)
        outs = graph.out_edges(actor)
        if any(edge.producer == edge.consumer for edge in ins):
            raise ValueError(f"actor {actor!r} has a self-loop, which OIL cannot express")
        params = [f"float {e.name}" for e in ins] + [f"out float {e.name}" for e in outs]
        arguments = [_access(e.name, e.consumption) for e in ins] + [
            f"out {_access(e.name, e.production)}" for e in outs
        ]
        lines.append(f"mod seq M_{actor}({', '.join(params)}){{")
        for edge in outs:
            if edge.initial_tokens:
                count = edge.initial_tokens
                lines.append(f"  init({count}, out {_access(edge.name, count)});")
        lines.append(f"  loop{{ {actor}({', '.join(arguments)}); }} while(1);")
        lines.append("}")
        streams = [e.name for e in ins] + [f"out {e.name}" for e in outs]
        calls.append(f"  M_{actor}({', '.join(streams)})")
    fifos = ", ".join(graph.edges)
    lines.append(f"mod par G(){{\n  fifo float {fifos};\n" + " ||\n".join(calls) + "\n}")
    return "\n".join(lines) + "\n"


def sdf(graph: SDFGraph, *, iterations: int = 1) -> Fleet:
    """One module per actor of *graph*.  Each FIFO holds *iterations* whole
    graph iterations plus its initial tokens, so capacity never throttles
    the run within that budget and the policy alone shapes the schedule.
    Actor bodies average their inputs and replicate the average on every
    output."""
    q = repetition_vector(graph)
    registry = FunctionRegistry()
    registry.register("init", lambda count: [0.0] * count, description="initial tokens",
                      stateless=True)
    for actor in graph.actors:
        registry.register(
            actor,
            _actor_body([e.production for e in graph.out_edges(actor)]),
            description=f"body of SDF actor {actor!r}",
            stateless=True,
        )
    return Fleet(
        sdf_source(graph),
        name=graph.name,
        wcets={name: actor.firing_duration for name, actor in graph.actors.items()},
        registry=registry,
        capacities={
            f"G/{name}": q[edge.producer] * edge.production * iterations
            + max(edge.initial_tokens, 1)
            for name, edge in graph.edges.items()
        },
    )


def _actor_body(write_counts: Sequence[int]):
    """Average the inputs and replicate the average on every output."""

    def body(*inputs):
        flat: List[float] = []
        for value in inputs:
            flat.extend(value if isinstance(value, list) else [value])
        value = sum(flat) / len(flat) if flat else 0.0
        produced = [[value] * count if count > 1 else value for count in write_counts]
        if not produced:
            return None
        return produced[0] if len(produced) == 1 else tuple(produced)

    return body


def firing_sequence(trace) -> List[str]:
    """The functions of the recorded firings in completion order, without
    the ``init`` firings (on one processor: the executed schedule)."""
    functions = (key.split(":t_", 1)[1] for key in trace.firing_tasks())
    return [function for function in functions if function != "init"]
