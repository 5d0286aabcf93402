"""Baseline: writing multi-rate applications as sequential programs.

Section III-A of the paper argues that expressing multi-rate behaviour in a
sequential language forces the programmer to spell out the complete
static-order schedule (one statement per firing, Fig. 2b), whose length is the
sum of the repetition vector and can grow very large for applications whose
rates have large co-prime factors.

This module generalises the Fig. 2 comparison: given any consistent SDF graph,
it produces the explicit sequential program (the schedule with array-index
bookkeeping) and reports its size, so the benchmark can sweep rate pairs and
show how the sequential specification grows while the OIL specification stays
constant (one call per task).

The baseline is also *executable*: :func:`static_order_policy` turns the same
schedule into a :class:`~repro.engine.policies.StaticOrder` scheduling policy
of the execution engine, so "run the program the sequential way" is a policy
choice rather than a separate simulator code path -- the engine's
static-order firing sequence and the generated program's statement order are
one and the same schedule (the equivalence tests assert exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Tuple

from repro.dataflow.analysis import check_deadlock, repetition_vector
from repro.dataflow.sdf import SDFGraph
from repro.engine.policies import StaticOrder


@dataclass
class SequentialProgram:
    """The rendered sequential program and its size metrics."""

    text: str
    schedule: List[str]
    statement_count: int
    array_declarations: int

    @property
    def schedule_length(self) -> int:
        return len(self.schedule)


def generate_sequential_program(graph: SDFGraph) -> SequentialProgram:
    """Render the explicit sequential program for one iteration of *graph*.

    Every actor firing becomes one function-call statement whose arguments
    name the array slices read and written (the Fig. 2b style); the loop-while
    wrapper repeats the iteration indefinitely.
    """
    deadlock = check_deadlock(graph)
    if not deadlock.deadlock_free:
        raise ValueError(f"graph {graph.name!r} deadlocks; no sequential schedule exists")
    schedule = deadlock.schedule
    q = repetition_vector(graph)

    # Array capacity per edge: tokens moved per iteration plus initial tokens.
    capacities: Dict[str, int] = {}
    for name, edge in graph.edges.items():
        capacities[name] = q[edge.producer] * edge.production + edge.initial_tokens

    lines: List[str] = []
    declarations = 0
    for name, capacity in capacities.items():
        lines.append(f"int {name.replace('.', '_')}[{capacity}];")
        declarations += 1
    for name, edge in graph.edges.items():
        if edge.initial_tokens:
            lines.append(
                f"init_{name.replace('.', '_')}(out {name.replace('.', '_')}[0:{edge.initial_tokens - 1}]);"
            )

    lines.append("loop{")
    read_position = {name: 0 for name in graph.edges}
    write_position = {name: edge.initial_tokens for name, edge in graph.edges.items()}
    statement_count = 0
    for firing in schedule:
        arguments: List[str] = []
        for edge in graph.out_edges(firing):
            buffer = edge.name.replace(".", "_")
            start = write_position[edge.name] % capacities[edge.name]
            end = (write_position[edge.name] + edge.production - 1) % capacities[edge.name]
            arguments.append(f"out {buffer}[{start}:{end}]")
            write_position[edge.name] += edge.production
        for edge in graph.in_edges(firing):
            buffer = edge.name.replace(".", "_")
            start = read_position[edge.name] % capacities[edge.name]
            end = (read_position[edge.name] + edge.consumption - 1) % capacities[edge.name]
            arguments.append(f"{buffer}[{start}:{end}]")
            read_position[edge.name] += edge.consumption
        lines.append(f"  {firing}({', '.join(arguments)});")
        statement_count += 1
    lines.append("} while(1);")

    return SequentialProgram(
        text="\n".join(lines),
        schedule=schedule,
        statement_count=statement_count,
        array_declarations=declarations,
    )


def _called_function(task) -> str:
    """Schedule key of an actor's task: the function it calls.  A
    module-level function, so the policy pickles for process sweeps."""
    return task.task.function


def static_order_policy(graph: SDFGraph, *, cyclic: bool = True) -> StaticOrder:
    """The explicit sequential schedule of *graph* as a scheduler policy.

    Executing the graph written as an OIL program -- one module per actor,
    calling the actor's function once per loop iteration, each edge a FIFO
    and its initial tokens an ``init`` of the producer -- under the returned
    :class:`~repro.engine.policies.StaticOrder` policy reproduces firing
    for firing the program :func:`generate_sequential_program` renders: the
    Fig. 2b baseline as a plug-in of the engine instead of a parallel code
    path.  Tasks are matched by the function they call, so the one-shot
    ``init`` firings stay outside the schedule.  Raises ``ValueError`` when
    the graph deadlocks (no schedule exists).
    """
    deadlock = check_deadlock(graph)
    if not deadlock.deadlock_free:
        raise ValueError(f"graph {graph.name!r} deadlocks; no static-order policy exists")
    return StaticOrder(deadlock.schedule, cyclic=cyclic, key=_called_function)


def rate_conversion_graph(produce: int, consume: int, *, initial_factor: int = 2) -> SDFGraph:
    """A two-actor cyclic rate converter (the Fig. 2a shape) with arbitrary
    production/consumption counts; the initial tokens are chosen large enough
    for deadlock freedom (``initial_factor`` times the larger count)."""
    graph = SDFGraph(f"conv_{produce}_{consume}")
    graph.add_actor("tf", firing_duration=1)
    graph.add_actor("tg", firing_duration=1)
    graph.add_edge("bx", "tf", "tg", production=produce, consumption=consume)
    graph.add_edge(
        "by",
        "tg",
        "tf",
        production=consume,
        consumption=produce,
        initial_tokens=initial_factor * max(produce, consume),
    )
    return graph


@dataclass
class ScheduleGrowthRow:
    """One row of the schedule-growth comparison."""

    produce: int
    consume: int
    schedule_length: int
    sequential_statements: int
    oil_statements: int

    @property
    def growth_factor(self) -> float:
        return self.sequential_statements / max(self.oil_statements, 1)


def schedule_growth(rate_pairs: List[Tuple[int, int]]) -> List[ScheduleGrowthRow]:
    """Schedule length of the sequential formulation vs. the (constant) OIL
    formulation for a family of rate-conversion factors."""
    rows: List[ScheduleGrowthRow] = []
    for produce, consume in rate_pairs:
        graph = rate_conversion_graph(produce, consume)
        program = generate_sequential_program(graph)
        # The OIL formulation always needs exactly one call per task plus the
        # init statement, independent of the rates.
        rows.append(
            ScheduleGrowthRow(
                produce=produce,
                consume=consume,
                schedule_length=program.schedule_length,
                sequential_statements=program.statement_count + 1,
                oil_statements=3,
            )
        )
    return rows
