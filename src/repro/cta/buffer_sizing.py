"""Buffer-capacity sizing on CTA models.

Buffer capacities appear in the CTA model as rate-dependent delays of
``-delta / r`` on the connection that models giving space back to the producer
(Sec. V-B.1 and V-C).  A capacity that is too small creates a cycle with
positive total delay: the producer has to wait for space longer than the
required period allows, so data arrives too late -- the model is inconsistent.

This module determines *sufficient* capacities so that the model is consistent
at the required rates, using only polynomially many Bellman-Ford runs:

1. start every unsized buffer at its structural minimum,
2. while the delay graph of a rate component (at its required scale) has a
   positive cycle, pick the buffer connection on the witness cycle that needs
   the fewest additional tokens to neutralise the cycle and enlarge it by
   exactly that amount (every iteration eliminates at least the witness
   cycle; capacities only grow and are bounded by the final sizes),
3. optionally run a minimisation pass that shrinks each buffer in turn with a
   binary search while preserving consistency.

The procedure mirrors the paper's claim that "the CTA model can be used to
determine buffer sizes such that throughput and latency constraints can be
met" with polynomial-time algorithms.  Latency-constraint connections are part
of the delay graph, so capacities computed here also respect latency
constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.cta.consistency import (
    ConsistencyResult,
    _build_graph,
    _DelayEdgeData,
    _prepare_edges,
    check_consistency,
)
from repro.cta.model import BufferParameter, Component, PortRef
from repro.cta.rates import compute_rate_structure
from repro.util.graphs import Edge
from repro.util.rational import Rat, rational_str


class BufferSizingError(ValueError):
    """Raised when no finite buffer capacities can satisfy the constraints."""


@dataclass
class BufferSizingResult:
    """Outcome of the buffer-sizing algorithm."""

    #: buffer name -> assigned capacity (tokens)
    capacities: Dict[str, int]
    #: the consistency result of the model with the assigned capacities
    consistency: ConsistencyResult
    #: number of enlargement iterations performed
    iterations: int
    #: whether the minimisation pass ran
    minimized: bool

    @property
    def total_capacity(self) -> int:
        return sum(self.capacities.values())

    def explain(self) -> str:
        lines = [f"buffer sizing: {len(self.capacities)} buffers, total {self.total_capacity} tokens"]
        for name, value in sorted(self.capacities.items()):
            lines.append(f"  {name}: {value}")
        lines.append(self.consistency.explain())
        return "\n".join(lines)


def size_buffers(
    model: Component,
    *,
    target_rates: Optional[Dict[PortRef, Rat]] = None,
    minimize: bool = True,
    max_iterations: int = 10000,
) -> BufferSizingResult:
    """Determine sufficient buffer capacities for *model*.

    Rate components pinned by sources/sinks are sized for their required
    rates.  Free rate components are sized for the rate implied by
    *target_rates* if one of their ports appears there; otherwise their
    buffers keep their structural minimum (a free component's maximal
    achievable rate simply adapts to the capacity).

    Raises
    ------
    BufferSizingError
        If the required rates cannot be met by any finite capacities (the
        witness cycle contains no buffer connection, or the rates are
        infeasible even with unbounded buffers).
    """
    target_rates = dict(target_rates or {})

    # Feasibility with unbounded buffers: if the required rates cannot be met
    # even then, no sizing will help -- fail early with the analysis output.
    unbounded = check_consistency(model, assume_infinite_unsized=True)
    if not unbounded.consistent:
        raise BufferSizingError(
            "required rates are infeasible even with unbounded buffers:\n" + unbounded.explain()
        )

    structure = compute_rate_structure(model)

    # Required scale per rate component: the fixed scale imposed by sources /
    # sinks, a caller-supplied target rate, or -- for free components -- the
    # maximal scale achievable with unbounded buffers (so that "size the
    # buffers" without further requirements means "do not lose any of the
    # achievable throughput").
    required_scale: List[Optional[Rat]] = []
    for component in structure.components:
        scale: Optional[Rat] = component.fixed_scale
        for port_ref, rho in component.relative_rates.items():
            if port_ref in target_rates:
                implied = target_rates[port_ref] / rho
                if scale is None or implied > scale:
                    scale = implied
        if scale is None and component.index < len(unbounded.scales):
            scale = unbounded.scales[component.index]
        required_scale.append(scale)

    # Initialise every unsized buffer at its minimum.
    for buffer in model.all_buffers():
        if buffer.value is None:
            buffer.value = max(buffer.minimum, 1)

    # One delay graph per rate component with a required scale, built once;
    # every probe below evaluates it at the buffers' current capacities.
    per_component = _prepare_edges(model, structure, assume_infinite_unsized=False)
    graphs = [
        _SizingGraph(per_component[component.index], scale)
        for component, scale in zip(structure.components, required_scale)
        if scale is not None
    ]

    iterations = 0
    for _ in range(max_iterations):
        enlarged = _enlarge_once(graphs)
        if not enlarged:
            break
        iterations += 1
    else:
        raise BufferSizingError(
            f"buffer sizing did not converge within {max_iterations} iterations"
        )

    if minimize:
        _minimize(model, graphs)

    capacities = {buffer.name: buffer.resolved() for buffer in model.all_buffers()}
    consistency = check_consistency(model)
    return BufferSizingResult(
        capacities=capacities,
        consistency=consistency,
        iterations=iterations,
        minimized=minimize,
    )


# --------------------------------------------------------------------------
# internals
# --------------------------------------------------------------------------

class _SizingGraph:
    """The delay graph of one rate component at its required scale.

    Built once per :func:`size_buffers` call.  An edge's delay is read at the
    buffers' current capacities, ``epsilon + effective_phi / rho_src * theta``,
    so a probe after an enlargement or during the minimisation pass needs no
    rebuild; ``edge.parametric`` holds the coefficient at build time and is
    never read here.
    """

    def __init__(self, edges: List[_DelayEdgeData], scale: Rat) -> None:
        self.graph, self._data = _build_graph(edges)
        self.theta = Fraction(1) / scale

    def data(self, edge: Edge) -> _DelayEdgeData:
        return self._data[id(edge)]

    def delay(self, edge: Edge) -> Rat:
        """The edge's delay at the required scale and current capacities."""
        data = self._data[id(edge)]
        return edge.weight + data.connection.effective_phi() / data.rho_src * self.theta

    def positive_cycle(self) -> Optional[List[Edge]]:
        """A witness positive-delay cycle, or None when the component is feasible."""
        result = self.graph.longest_paths(evaluate=self.delay)
        return result.cycle if result.has_positive_cycle else None


def _enlarge_once(graphs: List[_SizingGraph]) -> bool:
    """Run one enlargement step; return True if some buffer was enlarged."""
    for sizing_graph in graphs:
        cycle = sizing_graph.positive_cycle()
        if cycle is None:
            continue
        theta = sizing_graph.theta

        # Total positive delay of the cycle at the required rate.
        total = Fraction(0)
        for edge in cycle:
            total += sizing_graph.delay(edge)
        assert total > 0

        # Candidate buffer connections on the cycle: adding x tokens to buffer
        # b on edge e reduces the cycle delay by x * buffer_scale * theta / rho_src.
        candidates: List[Tuple[int, BufferParameter]] = []
        for edge in cycle:
            data = sizing_graph.data(edge)
            connection = data.connection
            if connection.buffer is None:
                continue
            per_token = connection.buffer_scale * theta / data.rho_src
            if per_token <= 0:
                continue
            needed = total / per_token
            extra = int(math.ceil(needed)) if needed > 0 else 1
            if extra <= 0:
                extra = 1
            candidates.append((extra, connection.buffer))

        if not candidates:
            labels = [edge.label or "?" for edge in cycle]
            raise BufferSizingError(
                "a positive-delay cycle contains no buffer connection; the required rate "
                f"cannot be achieved by enlarging buffers (cycle edges: {labels}, "
                f"excess delay {rational_str(total)} s)"
            )

        extra, buffer = min(candidates, key=lambda item: item[0])
        buffer.value = buffer.resolved() + extra
        return True
    return False


def _minimize(model: Component, graphs: List[_SizingGraph]) -> None:
    """Shrink each buffer in turn to the smallest consistent capacity."""
    buffers = model.all_buffers()
    for buffer in buffers:
        lo = max(buffer.minimum, 1)
        hi = buffer.resolved()
        if hi <= lo:
            continue
        # Binary search the smallest feasible capacity for this buffer while
        # keeping all other capacities fixed.
        best = hi
        low, high = lo, hi
        while low <= high:
            mid = (low + high) // 2
            buffer.value = mid
            if all(graph.positive_cycle() is None for graph in graphs):
                best = mid
                high = mid - 1
            else:
                low = mid + 1
        buffer.value = best
