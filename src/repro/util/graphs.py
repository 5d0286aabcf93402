"""Constraint-graph algorithms used by the temporal analysis layers.

The CTA consistency and buffer-sizing algorithms, as well as the SDF
throughput baseline, reduce to questions about weighted directed graphs:

* *Is there a positive-weight cycle?*  If data can be delayed by a positive
  amount of time around a cycle it arrives too late -- the composition is
  inconsistent (Sec. V-A of the paper).  This is a Bellman-Ford computation
  on the *longest-path* (difference-constraint) formulation.
* *What are feasible start offsets for every port?*  The longest path from a
  virtual super-source gives the earliest feasible offsets when no positive
  cycle exists.
* *What is the extreme ratio of two additive edge weights over all cycles?*
  (maximum / minimum cycle ratio).  Used for SDF throughput (maximum cycle
  mean of the HSDF graph) and for the maximal-achievable-rate computation of
  the CTA consistency algorithm.  Implemented with the standard Newton /
  Howard-style iteration over Bellman-Ford feasibility checks, with a
  bisection fallback; every check is a single Bellman-Ford run, so the whole
  computation is polynomial.

Edge weights are exact :class:`fractions.Fraction` values, so the rate
computations of the analysis are bit-exact.  Bellman-Ford does not relax them
as fractions, though: a query evaluates every edge weight once, multiplies all
of them by the LCM of their denominators and relaxes the resulting integers.
Scaling by a positive constant preserves every comparison, so each relaxation
happens exactly as it would on the rationals, and the offsets map back exactly
(``Fraction(d, L)``).  Edges are relaxed in insertion order, over nodes in
insertion order, for at most ``|V|`` rounds; the witness cycle of a positive
cycle, and so every capacity buffer sizing reads off it, depends on that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.util.rational import Rat, as_rational

Node = Hashable

#: Callable mapping an edge to its effective rational weight.
EdgeEvaluator = Callable[["Edge"], Rat]


@dataclass(frozen=True)
class Edge:
    """A weighted directed edge of a :class:`ConstraintGraph`.

    ``weight`` is the primary (constant) weight; ``parametric`` is an optional
    secondary weight used by the cycle-ratio computations (token counts for
    SDF throughput, rate-dependent delay coefficients for CTA rates).
    """

    source: Node
    target: Node
    weight: Rat
    parametric: Rat = Fraction(0)
    label: Optional[str] = None


@dataclass
class BellmanFordResult:
    """Result of a longest-path / positive-cycle computation."""

    has_positive_cycle: bool
    #: Longest-path distance (earliest feasible start offset) per node; only
    #: meaningful when ``has_positive_cycle`` is False.
    offsets: Dict[Node, Rat] = field(default_factory=dict)
    #: One witness cycle (list of edges) when a positive cycle exists.
    cycle: List[Edge] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.has_positive_cycle


@dataclass
class CycleRatioResult:
    """Result of a cycle-ratio computation.

    ``ratio`` is the extreme value of ``sum(weight) / sum(parametric)`` over
    all cycles with a strictly positive parametric sum.  ``ratio`` is ``None``
    either when no cycle has a positive parametric sum (``unbounded`` False,
    no constraint) or when a cycle with non-positive parametric sum and
    positive weight makes the ratio unbounded (``unbounded`` True); in the
    latter case ``cycle`` carries a witness.
    """

    ratio: Optional[Rat]
    cycle: List[Edge] = field(default_factory=list)
    unbounded: bool = False


class ConstraintGraph:
    """A directed multigraph with exact rational edge weights.

    Nodes may be any hashable objects.  The graph supports the longest-path /
    positive-cycle queries and cycle-ratio computations that the temporal
    analysis layers are built on.
    """

    def __init__(self) -> None:
        #: node -> its insertion index (the index the relaxation loop uses)
        self._nodes: Dict[Node, int] = {}
        self._edges: List[Edge] = []
        self._out: Dict[Node, List[Edge]] = {}
        #: per edge, in insertion order: (source index, target index)
        self._ends: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------ build
    def add_node(self, node: Node) -> None:
        """Add *node* (idempotent)."""
        if node not in self._nodes:
            self._nodes[node] = len(self._nodes)
            self._out.setdefault(node, [])

    def add_edge(
        self,
        source: Node,
        target: Node,
        weight: Rat | int | float | str,
        *,
        parametric: Rat | int | float | str = 0,
        label: Optional[str] = None,
    ) -> Edge:
        """Add a directed edge and return it."""
        self.add_node(source)
        self.add_node(target)
        edge = Edge(source, target, as_rational(weight), as_rational(parametric), label)
        self._edges.append(edge)
        self._out[source].append(edge)
        self._ends.append((self._nodes[source], self._nodes[target]))
        return edge

    # --------------------------------------------------------------- accessors
    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes)

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges)

    def out_edges(self, node: Node) -> List[Edge]:
        return list(self._out.get(node, []))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------- algorithms
    def longest_paths(self, *, evaluate: Optional[EdgeEvaluator] = None) -> BellmanFordResult:
        """Longest-path distances from a virtual super-source to every node.

        The difference-constraint system ``offset[target] >= offset[source] +
        weight(edge)`` for all edges is feasible iff the graph has no
        positive-weight cycle.  When feasible, the returned offsets are the
        componentwise-smallest non-negative solution.

        Every weight is evaluated once and scaled to an integer by the LCM of
        the weights' denominators; the relaxation compares integers and the
        offsets map back to exact fractions (see the module docstring).

        Parameters
        ----------
        evaluate:
            Optional callable mapping an :class:`Edge` to its effective
            rational weight (a ``Fraction`` or an ``int``).  Defaults to
            ``edge.weight``; the CTA consistency algorithm passes a closure
            that folds the rate-dependent part in.
        """
        if evaluate is None:
            weights = [edge.weight for edge in self._edges]
        else:
            weights = [evaluate(edge) for edge in self._edges]
        scale = math.lcm(*{w.denominator for w in weights})
        relax = [
            (source, target, w.numerator * (scale // w.denominator), index)
            for index, ((source, target), w) in enumerate(zip(self._ends, weights))
        ]

        count = len(self._nodes)
        dist = [0] * count
        #: per node, the index of the edge that last relaxed it (-1: none)
        pred = [-1] * count
        updated = -1
        for _ in range(count):
            updated = -1
            for source, target, w, index in relax:
                cand = dist[source] + w
                if cand > dist[target]:
                    dist[target] = cand
                    pred[target] = index
                    updated = target
            if updated < 0:
                break

        if updated >= 0:
            # A node was still relaxed in the n-th round: positive cycle.
            return BellmanFordResult(True, {}, self._extract_cycle(pred, updated))
        offsets = {node: Fraction(d, scale) for node, d in zip(self._nodes, dist)}
        return BellmanFordResult(False, offsets, [])

    def _extract_cycle(self, pred: List[int], start: int) -> List[Edge]:
        """Walk predecessor edges from node index *start* to recover a cycle."""
        ends = self._ends
        node = start
        for _ in range(len(pred)):
            index = pred[node]
            if index < 0:
                return []
            node = ends[index][0]
        # ``node`` is now guaranteed to lie on a cycle of predecessor edges.
        cycle_edges: List[Edge] = []
        cursor = node
        while True:
            index = pred[cursor]
            cycle_edges.append(self._edges[index])
            cursor = ends[index][0]
            if cursor == node:
                break
        cycle_edges.reverse()
        return cycle_edges

    def has_positive_cycle(self, *, evaluate: Optional[EdgeEvaluator] = None) -> bool:
        """Return True if the graph contains a cycle with positive total weight."""
        return self.longest_paths(evaluate=evaluate).has_positive_cycle

    # ------------------------------------------------------- cycle enumeration
    def iter_simple_cycles(self) -> Iterator[List[Edge]]:
        """Enumerate simple cycles (DFS based, exponential).

        Only used by tests and by the exact exponential baselines; the
        polynomial-time algorithms never enumerate cycles.
        """
        index = {n: i for i, n in enumerate(self._nodes)}
        nodes = list(self._nodes)

        for start_idx, start in enumerate(nodes):
            stack: List[Tuple[Node, Iterator[Edge]]] = [(start, iter(self._out.get(start, [])))]
            path_edges: List[Edge] = []
            on_path = {start}
            while stack:
                node, it = stack[-1]
                advanced = False
                for edge in it:
                    if index[edge.target] < start_idx:
                        continue
                    if edge.target == start:
                        yield path_edges + [edge]
                        continue
                    if edge.target in on_path:
                        continue
                    stack.append((edge.target, iter(self._out.get(edge.target, []))))
                    path_edges.append(edge)
                    on_path.add(edge.target)
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
                    if path_edges and stack:
                        removed = path_edges.pop()
                        on_path.discard(removed.target)
                    elif not stack:
                        on_path = {start}
                        path_edges = []

    # ---------------------------------------------------------- cycle ratios
    def maximum_cycle_ratio(self) -> CycleRatioResult:
        """Maximum of ``sum(weight)/sum(parametric)`` over all cycles.

        Precondition: every parametric edge weight is non-negative (as is the
        case for SDF token counts and execution times).  Cycles whose
        parametric sum is zero but whose weight sum is positive make the
        ratio unbounded (``unbounded=True``).

        The computation is the standard Newton iteration: for a candidate
        ratio ``lam`` a cycle with ratio greater than ``lam`` exists iff the
        graph with edge weights ``weight - lam * parametric`` has a positive
        cycle (one Bellman-Ford run).  The candidate is then raised to the
        exact ratio of the witness cycle; iteration stops when no cycle beats
        the candidate.  Each step is one Bellman-Ford run.
        """
        for edge in self._edges:
            if edge.parametric < 0:
                raise ValueError(
                    "maximum_cycle_ratio requires non-negative parametric weights; "
                    f"edge {edge.label or (edge.source, edge.target)} has {edge.parametric}"
                )

        # Cycles consisting solely of parametric == 0 edges with positive total
        # weight make the ratio unbounded.
        zero_edges = [edge for edge in self._edges if edge.parametric == 0]
        zero_graph = ConstraintGraph()
        for edge in zero_edges:
            zero_graph.add_edge(edge.source, edge.target, edge.weight, label=edge.label)
        zero_result = zero_graph.longest_paths()
        if zero_result.has_positive_cycle:
            witness = _map_back(zero_edges, zero_graph, zero_result.cycle)
            return CycleRatioResult(None, witness, unbounded=True)

        if all(edge.parametric == 0 for edge in self._edges):
            return CycleRatioResult(None, [], unbounded=False)

        def shifted(lam: Rat) -> EdgeEvaluator:
            return lambda e: e.weight - lam * e.parametric

        # Start below any possible cycle ratio.
        total_weight = sum((abs(e.weight) for e in self._edges), Fraction(0))
        min_param = min(e.parametric for e in self._edges if e.parametric > 0)
        lam = -(total_weight / min_param) - 1

        best_cycle: List[Edge] = []
        best_ratio: Optional[Rat] = None
        max_iterations = 4 * len(self._edges) * max(len(self._nodes), 1) + 64
        for _ in range(max_iterations):
            result = self.longest_paths(evaluate=shifted(lam))
            if not result.has_positive_cycle:
                return CycleRatioResult(best_ratio, best_cycle, unbounded=False)
            cycle = result.cycle
            weight_sum = sum((e.weight for e in cycle), Fraction(0))
            param_sum = sum((e.parametric for e in cycle), Fraction(0))
            if param_sum == 0:
                # Should have been caught by the zero-parametric pre-check,
                # but a mixed cycle may still contain only zero-parametric
                # edges after relaxation quirks; report as unbounded.
                return CycleRatioResult(None, cycle, unbounded=True)
            ratio = weight_sum / param_sum
            if best_ratio is not None and ratio <= best_ratio:
                # No strict progress: the witness is optimal.
                return CycleRatioResult(best_ratio, best_cycle, unbounded=False)
            best_ratio = ratio
            best_cycle = cycle
            lam = ratio
        # Fallback (should not happen): return the best witness found.
        return CycleRatioResult(best_ratio, best_cycle, unbounded=False)

    def minimum_cycle_ratio(self) -> CycleRatioResult:
        """Minimum of ``sum(weight)/sum(parametric)`` over all cycles.

        Computed as the negated maximum cycle ratio of the graph with negated
        weights.  Same precondition as :meth:`maximum_cycle_ratio`.
        """
        negated = ConstraintGraph()
        for edge in self._edges:
            negated.add_edge(
                edge.source,
                edge.target,
                -edge.weight,
                parametric=edge.parametric,
                label=edge.label,
            )
        result = negated.maximum_cycle_ratio()
        ratio = None if result.ratio is None else -result.ratio
        return CycleRatioResult(ratio, _map_back(self._edges, negated, result.cycle), result.unbounded)


def _map_back(originals: Sequence[Edge], derived: ConstraintGraph, cycle: Sequence[Edge]) -> List[Edge]:
    """Map witness edges of *derived*, which was built edge for edge from
    *originals* in order, back onto *originals* by position (parallel edges
    may share endpoints and label, so nothing else identifies them)."""
    position = {id(edge): index for index, edge in enumerate(derived._edges)}
    return [originals[position[id(edge)]] for edge in cycle]


# --------------------------------------------------------------------------
# Free-function wrappers (convenience API used by the analysis layers)
# --------------------------------------------------------------------------

def detect_positive_cycle(
    graph: ConstraintGraph, *, evaluate: Optional[EdgeEvaluator] = None
) -> BellmanFordResult:
    """Run the positive-cycle detection on *graph* and return the full result."""
    return graph.longest_paths(evaluate=evaluate)


def longest_path_offsets(
    graph: ConstraintGraph, *, evaluate: Optional[EdgeEvaluator] = None
) -> Dict[Node, Rat]:
    """Feasible start offsets (longest path distances); raises if infeasible."""
    result = graph.longest_paths(evaluate=evaluate)
    if result.has_positive_cycle:
        labels = [e.label or f"{e.source}->{e.target}" for e in result.cycle]
        raise ValueError(
            "constraint graph has a positive-delay cycle (infeasible): "
            + " -> ".join(map(str, labels))
        )
    return result.offsets


def maximum_cycle_ratio(graph: ConstraintGraph) -> CycleRatioResult:
    """Maximum cycle ratio of *graph* (see :meth:`ConstraintGraph.maximum_cycle_ratio`)."""
    return graph.maximum_cycle_ratio()


def minimum_cycle_ratio(graph: ConstraintGraph) -> CycleRatioResult:
    """Minimum cycle ratio of *graph* (see :meth:`ConstraintGraph.minimum_cycle_ratio`)."""
    return graph.minimum_cycle_ratio()


def simple_cycles(graph: ConstraintGraph) -> List[List[Edge]]:
    """All simple cycles of *graph* as edge lists (exponential; test helper)."""
    return list(graph.iter_simple_cycles())
