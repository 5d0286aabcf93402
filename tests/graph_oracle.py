"""The seed's ``Fraction`` Bellman-Ford loop, kept as the reference oracle.

:meth:`repro.util.graphs.ConstraintGraph.longest_paths` relaxes exact
integers: it scales every edge weight by the LCM of their denominators, which
preserves every comparison.  The seed relaxed the rational weights directly.
That loop is the reference the integer kernel must match exactly -- the same
``has_positive_cycle``, equal offsets and the same witness cycle, edge object
for edge object (``tests/test_util_graphs.py``).  It is not a library option,
so it lives here, in one copy::

    with fraction_longest_paths():
        reference = check_consistency(model)  # every graph in the block
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, Iterator, List, Optional

from repro.util.graphs import BellmanFordResult, ConstraintGraph, Edge, EdgeEvaluator, Node
from repro.util.rational import Rat


def longest_paths(
    graph: ConstraintGraph, *, evaluate: Optional[EdgeEvaluator] = None
) -> BellmanFordResult:
    """Longest-path distances from a virtual super-source, relaxing
    :class:`~fractions.Fraction` weights."""
    if evaluate is None:
        evaluate = lambda e: e.weight  # noqa: E731 - tiny adapter

    nodes = graph.nodes
    dist: Dict[Node, Rat] = {n: Fraction(0) for n in nodes}
    pred: Dict[Node, Optional[Edge]] = {n: None for n in nodes}

    weights = [(edge, evaluate(edge)) for edge in graph.edges]

    updated_node: Optional[Node] = None
    for _ in range(len(nodes)):
        updated_node = None
        for edge, w in weights:
            cand = dist[edge.source] + w
            if cand > dist[edge.target]:
                dist[edge.target] = cand
                pred[edge.target] = edge
                updated_node = edge.target
        if updated_node is None:
            break

    if updated_node is not None:
        # A node was still relaxed in the n-th round: positive cycle.
        cycle = _extract_cycle(graph, pred, updated_node)
        return BellmanFordResult(True, {}, cycle)
    return BellmanFordResult(False, dist, [])


def _extract_cycle(graph: ConstraintGraph, pred: Dict[Node, Optional[Edge]], start: Node) -> List[Edge]:
    """Walk predecessor edges from *start* to recover a cycle."""
    node = start
    for _ in range(len(graph)):
        edge = pred[node]
        if edge is None:
            return []
        node = edge.source
    # ``node`` is now guaranteed to lie on a cycle of predecessor edges.
    cycle_edges: List[Edge] = []
    cursor = node
    while True:
        edge = pred[cursor]
        assert edge is not None
        cycle_edges.append(edge)
        cursor = edge.source
        if cursor == node:
            break
    cycle_edges.reverse()
    return cycle_edges


@contextmanager
def fraction_longest_paths() -> Iterator[None]:
    """Answer every ``longest_paths`` query inside the block with the oracle."""
    saved = ConstraintGraph.longest_paths
    ConstraintGraph.longest_paths = longest_paths
    try:
        yield
    finally:
        ConstraintGraph.longest_paths = saved
