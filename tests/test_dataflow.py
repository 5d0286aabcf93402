"""Tests for the SDF substrate: graphs, repetition vectors, deadlock,
HSDF expansion, throughput and the exact state-space baseline."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow import (
    SDFConsistencyError,
    SDFGraph,
    check_deadlock,
    expansion_statistics,
    hsdf_maximum_cycle_ratio,
    is_consistent,
    iteration_token_balance,
    minimal_buffer_capacities,
    repetition_vector,
    sdf_throughput,
    self_timed_statespace,
    size_sdf_buffers,
    to_hsdf,
)
from repro.apps.rate_converter import fig2_task_graph


class TestGraphConstruction:
    def test_duplicate_actor(self):
        g = SDFGraph()
        g.add_actor("a")
        with pytest.raises(ValueError):
            g.add_actor("a")

    def test_unknown_endpoint(self):
        g = SDFGraph()
        g.add_actor("a")
        with pytest.raises(ValueError):
            g.add_edge("e", "a", "ghost")

    def test_buffer_creates_space_edge(self):
        g = SDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        data, space = g.add_buffer("buf", "a", "b", production=2, consumption=3, capacity=6)
        assert data.initial_tokens == 0
        assert space.initial_tokens == 6
        assert space.producer == "b" and space.consumer == "a"

    def test_buffer_capacity_below_initial_rejected(self):
        g = SDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        with pytest.raises(ValueError):
            g.add_buffer("buf", "a", "b", initial_tokens=4, capacity=2)

    def test_copy_is_independent(self):
        g = fig2_task_graph()
        clone = g.copy()
        clone.add_actor("extra")
        assert "extra" not in g


class TestRepetitionVector:
    def test_fig2_vector(self):
        q = repetition_vector(fig2_task_graph())
        assert q.as_dict() == {"tf": 2, "tg": 3}

    def test_single_rate_graph(self):
        g = SDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        g.add_edge("e", "a", "b")
        assert repetition_vector(g).as_dict() == {"a": 1, "b": 1}

    def test_inconsistent_rates(self):
        g = SDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        g.add_edge("e1", "a", "b", production=2, consumption=1)
        g.add_edge("e2", "a", "b", production=1, consumption=1)
        assert not is_consistent(g)
        with pytest.raises(SDFConsistencyError):
            repetition_vector(g)

    def test_balance_is_zero(self):
        balance = iteration_token_balance(fig2_task_graph())
        assert all(v == 0 for v in balance.values())

    def test_empty_graph(self):
        assert repetition_vector(SDFGraph()).as_dict() == {}


class TestDeadlock:
    def test_fig2_deadlock_free_with_4_tokens(self):
        result = check_deadlock(fig2_task_graph())
        assert result.deadlock_free
        assert len(result.schedule) == 5  # 2 firings of tf + 3 of tg

    def test_deadlock_without_initial_tokens(self):
        g = fig2_task_graph(initial_tokens=0)
        result = check_deadlock(g)
        assert not result.deadlock_free
        assert result.remaining

    def test_deadlock_with_too_few_tokens(self):
        g = fig2_task_graph(initial_tokens=2)
        assert not check_deadlock(g).deadlock_free

    def test_schedule_is_admissible(self):
        graph = fig2_task_graph()
        result = check_deadlock(graph)
        tokens = {name: e.initial_tokens for name, e in graph.edges.items()}
        for firing in result.schedule:
            for e in graph.in_edges(firing):
                tokens[e.name] -= e.consumption
                assert tokens[e.name] >= 0
            for e in graph.out_edges(firing):
                tokens[e.name] += e.production


class TestHSDF:
    def test_expansion_size(self):
        stats = expansion_statistics(fig2_task_graph())
        assert stats.sdf_actors == 2
        assert stats.hsdf_actors == 5  # repetition vector sum

    def test_hsdf_is_single_rate(self):
        hsdf = to_hsdf(fig2_task_graph())
        assert all(e.production == 1 and e.consumption == 1 for e in hsdf.edges.values())

    def test_hsdf_token_preservation(self):
        graph = fig2_task_graph()
        hsdf = to_hsdf(graph)
        original_tokens = sum(e.initial_tokens for e in graph.edges.values())
        expanded_tokens = sum(
            e.initial_tokens for e in hsdf.edges.values() if not e.name.split(".")[-1].startswith("se")
        )
        # every initial token appears at least once in the expansion
        assert expanded_tokens >= original_tokens - 1


class TestThroughput:
    def test_fig2_iteration_period(self):
        result = sdf_throughput(fig2_task_graph(f_duration=1, g_duration=1))
        assert result.iteration_period == 5  # unit firing durations, serialised firings
        assert result.actor_throughput["tf"] == Fraction(2, 5)
        assert result.actor_throughput["tg"] == Fraction(3, 5)

    def test_statespace_matches_mcr_on_fig2(self):
        graph = fig2_task_graph()
        exact = self_timed_statespace(graph)
        mcr = sdf_throughput(graph)
        assert exact.iteration_period == mcr.iteration_period

    def test_deadlocked_graph(self):
        g = fig2_task_graph(initial_tokens=0)
        assert sdf_throughput(g).deadlocked
        assert self_timed_statespace(g).deadlocked

    def test_faster_actor_durations_increase_throughput(self):
        slow = sdf_throughput(fig2_task_graph(f_duration=2, g_duration=2))
        fast = sdf_throughput(fig2_task_graph(f_duration=1, g_duration=1))
        assert fast.actor_throughput["tf"] > slow.actor_throughput["tf"]

    def test_hsdf_mcr_simple_ring(self):
        g = SDFGraph()
        g.add_actor("a", firing_duration=2)
        g.add_actor("b", firing_duration=3)
        g.add_edge("ab", "a", "b")
        g.add_edge("ba", "b", "a", initial_tokens=1)
        assert hsdf_maximum_cycle_ratio(to_hsdf(g)) == 5


class TestOnlinePeriodicityCrossCheck:
    """The engine's online steady-state detector must agree with the exact
    offline state-space split computed by ``self_timed_statespace``."""

    def _steady(self, graph, horizon):
        from repro.engine import run_tasks
        from repro.engine.synthetic import tasks_from_sdf

        tasks = tasks_from_sdf(graph, iterations=64)
        # Declare the synthetic actor bodies (pure averagers) stateless, so
        # the default "auto" detector may arm on the fleet.
        registry = tasks[0].registry
        for task in tasks:
            registry.register(task.name, registry.get(task.name).callable, stateless=True)
        run = run_tasks(tasks, horizon=Fraction(horizon))
        return run, run.engine.steady_state

    def test_online_period_is_integer_iteration_multiple(self):
        graph = fig2_task_graph()
        offline = self_timed_statespace(graph)
        run, steady = self._steady(graph, 500)
        assert steady.jumps >= 1 and steady.period_ticks is not None
        # The detected anchor period spans a whole number of graph
        # iterations: its span in seconds is an exact integer multiple of
        # the offline iteration period, and its firing count is the same
        # multiple of the repetition-vector total.
        period_seconds = run.queue.to_time(steady.period_ticks)
        multiple = period_seconds / offline.iteration_period
        assert multiple.denominator == 1 and multiple >= 1
        q = repetition_vector(graph)
        assert steady.period_firings == multiple * q.total_firings()

    def test_online_transient_bounded_by_horizon(self):
        graph = fig2_task_graph()
        run, steady = self._steady(graph, 500)
        assert steady.transient_ticks is not None
        # Detection happens strictly inside the naive prefix of the run.
        transient_seconds = run.queue.to_time(steady.transient_ticks)
        assert 0 <= transient_seconds < Fraction(500)

    def test_online_throughput_matches_offline(self):
        graph = fig2_task_graph(f_duration=2, g_duration=3)
        offline = self_timed_statespace(graph)
        # The value state only recurs once every oversized edge buffer has
        # wrapped, which takes this slower graph past 700 s.
        run, steady = self._steady(graph, 5000)
        assert steady.period_ticks is not None
        period_seconds = run.queue.to_time(steady.period_ticks)
        q = repetition_vector(graph)
        online_period_per_iteration = (
            period_seconds * q.total_firings() / steady.period_firings
        )
        assert online_period_per_iteration == offline.iteration_period


class TestSDFBufferSizing:
    def test_minimal_capacities(self):
        graph = fig2_task_graph()
        minima = minimal_buffer_capacities(_forward_only(graph))
        assert minima["bx"] == 3
        assert minima["by"] == 7  # max(2,3) + 4 initial

    def test_sizing_reaches_requirement(self):
        graph = _forward_only(fig2_task_graph())
        result = size_sdf_buffers(graph, Fraction(10))
        assert result.achieved_iteration_period is not None
        assert result.achieved_iteration_period <= 10

    def test_sizing_monotone_in_requirement(self):
        graph = _forward_only(fig2_task_graph())
        loose = size_sdf_buffers(graph, Fraction(100))
        tight = size_sdf_buffers(_forward_only(fig2_task_graph()), Fraction(6))
        assert tight.total_capacity >= loose.total_capacity


def _forward_only(graph):
    """Strip reverse edges and tag the forward edges as named buffers."""
    g = SDFGraph(graph.name + "_fwd")
    for actor in graph.actors.values():
        g.add_actor(actor.name, firing_duration=actor.firing_duration)
    for edge in graph.edges.values():
        g.add_edge(
            edge.name,
            edge.producer,
            edge.consumer,
            production=edge.production,
            consumption=edge.consumption,
            initial_tokens=edge.initial_tokens,
            buffer_name=edge.name,
        )
    return g


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_two_actor_cycle_properties(produce, consume, initial):
    """Repetition vector and deadlock behaviour of a two-actor cycle."""
    g = SDFGraph("prop")
    g.add_actor("p", firing_duration=1)
    g.add_actor("c", firing_duration=1)
    g.add_edge("fwd", "p", "c", production=produce, consumption=consume)
    g.add_edge("bwd", "c", "p", production=consume, consumption=produce, initial_tokens=initial)
    q = repetition_vector(g)
    # Balance: q[p]*produce == q[c]*consume
    assert q["p"] * produce == q["c"] * consume
    result = check_deadlock(g)
    if result.deadlock_free:
        # One iteration returns the token distribution to the initial one, so
        # the schedule contains exactly the repetition vector firings.
        assert len(result.schedule) == q.total_firings()
        assert not sdf_throughput(g).deadlocked
    else:
        # Without enough initial tokens the state-space analysis agrees.
        assert self_timed_statespace(g).deadlocked
