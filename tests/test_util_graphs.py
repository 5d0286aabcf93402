"""Tests for the constraint-graph algorithms (Bellman-Ford, cycle ratios)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.graphs import (
    ConstraintGraph,
    detect_positive_cycle,
    longest_path_offsets,
    maximum_cycle_ratio,
    minimum_cycle_ratio,
    simple_cycles,
)

import graph_oracle


def chain_graph():
    g = ConstraintGraph()
    g.add_edge("a", "b", 2)
    g.add_edge("b", "c", 3)
    return g


class TestLongestPaths:
    def test_acyclic_offsets(self):
        offsets = longest_path_offsets(chain_graph())
        assert offsets["a"] == 0
        assert offsets["b"] == 2
        assert offsets["c"] == 5

    def test_negative_cycle_is_feasible(self):
        g = chain_graph()
        g.add_edge("c", "a", -10)
        result = detect_positive_cycle(g)
        assert result.feasible

    def test_zero_cycle_is_feasible(self):
        g = chain_graph()
        g.add_edge("c", "a", -5)
        assert detect_positive_cycle(g).feasible

    def test_positive_cycle_detected(self):
        g = chain_graph()
        g.add_edge("c", "a", -4)  # total +1
        result = detect_positive_cycle(g)
        assert result.has_positive_cycle
        assert len(result.cycle) == 3

    def test_positive_cycle_raises_in_offsets(self):
        g = chain_graph()
        g.add_edge("c", "a", 0)
        with pytest.raises(ValueError):
            longest_path_offsets(g)

    def test_offsets_satisfy_constraints(self):
        g = ConstraintGraph()
        g.add_edge("a", "b", Fraction(1, 3))
        g.add_edge("a", "c", Fraction(5, 7))
        g.add_edge("c", "b", Fraction(-1, 2))
        g.add_edge("b", "d", Fraction(2))
        offsets = longest_path_offsets(g)
        for edge in g.edges:
            assert offsets[edge.target] >= offsets[edge.source] + edge.weight

    def test_custom_evaluator(self):
        g = chain_graph()
        g.add_edge("c", "a", 0)
        # With the raw weights the cycle a->b->c->a is positive; an evaluator
        # shifting every edge by -2 makes the cycle total 5 - 6 < 0.
        assert g.longest_paths().has_positive_cycle
        result = g.longest_paths(evaluate=lambda e: e.weight - 2)
        assert result.feasible


class TestCycleRatios:
    def test_single_cycle_ratio(self):
        g = ConstraintGraph()
        g.add_edge("a", "b", 3, parametric=1)
        g.add_edge("b", "a", 2, parametric=1)
        result = maximum_cycle_ratio(g)
        assert result.ratio == Fraction(5, 2)

    def test_two_cycles_max(self):
        g = ConstraintGraph()
        g.add_edge("a", "b", 3, parametric=1)
        g.add_edge("b", "a", 3, parametric=1)  # ratio 3
        g.add_edge("a", "c", 10, parametric=1)
        g.add_edge("c", "a", 0, parametric=4)  # ratio 2
        assert maximum_cycle_ratio(g).ratio == 3

    def test_min_cycle_ratio(self):
        g = ConstraintGraph()
        g.add_edge("a", "b", 3, parametric=1)
        g.add_edge("b", "a", 3, parametric=1)  # ratio 3
        g.add_edge("a", "c", 10, parametric=1)
        g.add_edge("c", "a", 0, parametric=4)  # ratio 2
        assert minimum_cycle_ratio(g).ratio == 2

    def test_unbounded_ratio(self):
        g = ConstraintGraph()
        g.add_edge("a", "b", 1, parametric=0)
        g.add_edge("b", "a", 1, parametric=0)
        result = maximum_cycle_ratio(g)
        assert result.unbounded
        assert result.ratio is None

    def test_no_cycles(self):
        g = chain_graph()
        result = maximum_cycle_ratio(g)
        assert result.ratio is None
        assert not result.unbounded

    def test_negative_parametric_rejected(self):
        g = ConstraintGraph()
        g.add_edge("a", "b", 1, parametric=-1)
        with pytest.raises(ValueError):
            maximum_cycle_ratio(g)

    def test_min_cycle_ratio_witness_on_parallel_edges(self):
        # Two unlabeled a->b edges share endpoints; the witness must run
        # through the weight-1 edge, the one that attains the ratio.
        g = ConstraintGraph()
        g.add_edge("a", "b", 5, parametric=1)
        light = g.add_edge("a", "b", 1, parametric=1)
        back = g.add_edge("b", "a", 1, parametric=1)
        result = minimum_cycle_ratio(g)
        assert result.ratio == 1
        assert len(result.cycle) == 2
        assert result.cycle[0] is light and result.cycle[1] is back

    @pytest.mark.parametrize("sign, ratio", [(1, maximum_cycle_ratio), (-1, minimum_cycle_ratio)])
    def test_unbounded_witness_is_made_of_the_graphs_own_edges(self, sign, ratio):
        g = ConstraintGraph()
        g.add_edge("a", "b", sign, parametric=1)
        g.add_edge("a", "b", sign)
        g.add_edge("b", "a", sign)
        result = ratio(g)
        assert result.unbounded
        assert len(result.cycle) == 2
        assert all(mine is own for mine, own in zip(result.cycle, g.edges[1:]))

    def test_ratio_with_exact_fractions(self):
        g = ConstraintGraph()
        g.add_edge("a", "b", Fraction(1, 3), parametric=Fraction(1, 7))
        g.add_edge("b", "a", Fraction(1, 5), parametric=Fraction(2, 7))
        expected = (Fraction(1, 3) + Fraction(1, 5)) / (Fraction(3, 7))
        assert maximum_cycle_ratio(g).ratio == expected


class TestSimpleCycles:
    def test_enumeration(self):
        g = ConstraintGraph()
        g.add_edge("a", "b", 1)
        g.add_edge("b", "a", 1)
        g.add_edge("b", "c", 1)
        g.add_edge("c", "b", 1)
        cycles = simple_cycles(g)
        assert len(cycles) == 2

    def test_self_loop(self):
        g = ConstraintGraph()
        g.add_edge("a", "a", 1)
        assert len(simple_cycles(g)) == 1


@st.composite
def random_ring(draw):
    n = draw(st.integers(2, 6))
    weights = [draw(st.integers(-5, 5)) for _ in range(n)]
    tokens = [draw(st.integers(0, 3)) for _ in range(n)]
    return weights, tokens


@given(random_ring())
@settings(max_examples=60, deadline=None)
def test_max_cycle_ratio_matches_bruteforce_on_ring(data):
    weights, tokens = data
    if sum(tokens) == 0:
        tokens[0] = 1
    g = ConstraintGraph()
    n = len(weights)
    for i in range(n):
        g.add_edge(f"n{i}", f"n{(i + 1) % n}", weights[i], parametric=tokens[i])
    # A ring has exactly one simple cycle: the ratio is directly computable.
    expected = Fraction(sum(weights), sum(tokens))
    assert maximum_cycle_ratio(g).ratio == expected


@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-4, 4)), min_size=1, max_size=14)
)
@settings(max_examples=60, deadline=None)
def test_bellman_ford_agrees_with_cycle_enumeration(edges):
    g = ConstraintGraph()
    for src, dst, weight in edges:
        g.add_edge(f"n{src}", f"n{dst}", weight)
    has_positive = any(
        sum(e.weight for e in cycle) > 0 for cycle in simple_cycles(g)
    )
    assert detect_positive_cycle(g).has_positive_cycle == has_positive


#: large co-prime denominators next to small ones: the scaled integers span
#: many orders of magnitude, as they do for MHz/kHz periods
DENOMINATORS = (1, 2, 3, 7, 6400, 32000, 1000003)


def rationals(bound=5):
    return st.sampled_from(DENOMINATORS).flatmap(
        lambda d: st.integers(-bound * d, bound * d).map(lambda n: Fraction(n, d))
    )


@st.composite
def random_multigraph(draw):
    """Up to 10 nodes (some isolated, in a random insertion order) and 30
    edges; parallel edges and self-loops allowed."""
    count = draw(st.integers(1, 10))
    order = draw(st.permutations(range(count)))
    node = st.integers(0, count - 1)
    edges = draw(st.lists(st.tuples(node, node, rationals(), rationals()), max_size=30))
    graph = ConstraintGraph()
    for index in order[: draw(st.integers(0, count))]:
        graph.add_node(f"n{index}")
    for source, target, weight, parametric in edges:
        graph.add_edge(f"n{source}", f"n{target}", weight, parametric=parametric)
    theta = draw(st.one_of(st.none(), rationals(bound=3)))
    return graph, theta


@given(random_multigraph())
@settings(max_examples=300, deadline=None)
def test_integer_kernel_matches_fraction_oracle(case):
    graph, theta = case
    evaluate = None if theta is None else (lambda e: e.weight + e.parametric * theta)
    expected = graph_oracle.longest_paths(graph, evaluate=evaluate)
    actual = graph.longest_paths(evaluate=evaluate)
    assert actual.has_positive_cycle == expected.has_positive_cycle
    assert list(actual.offsets.items()) == list(expected.offsets.items())
    assert all(type(value) is Fraction for value in actual.offsets.values())
    assert len(actual.cycle) == len(expected.cycle)
    assert all(mine is theirs for mine, theirs in zip(actual.cycle, expected.cycle))
