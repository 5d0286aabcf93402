"""Tests for the CTA consistency algorithm (feasibility, maximal rates)."""

from fractions import Fraction

import pytest

from graph_oracle import fraction_longest_paths
from repro.api import Program
from repro.cta import (
    BufferParameter,
    CTAModel,
    check_consistency,
    maximal_rates,
    verify_throughput,
)


def producer_consumer_model(*, wcet_p=Fraction(1, 100), wcet_c=Fraction(1, 100), sink_rate=None, capacity=None):
    """Producer -> consumer pipeline with a capacity-constrained buffer."""
    model = CTAModel("pc")
    producer = model.new_component("producer", kind="task")
    consumer = model.new_component("consumer", kind="task")
    producer.add_port("space", direction="in")
    producer.add_port("data", direction="out")
    consumer.add_port("data", direction="in", fixed_rate=sink_rate)
    consumer.add_port("space", direction="out")
    producer.connect(producer.port_ref("space"), producer.port_ref("data"), epsilon=wcet_p, purpose="firing")
    consumer.connect(consumer.port_ref("data"), consumer.port_ref("space"), epsilon=wcet_c, purpose="firing")
    buffer = BufferParameter("b", minimum=1, value=capacity)
    model.connect(producer.port_ref("data"), consumer.port_ref("data"), purpose="buffer-data")
    model.connect(consumer.port_ref("space"), producer.port_ref("space"), buffer=buffer, purpose="buffer")
    return model, buffer


class TestFixedRateConsistency:
    def test_feasible_with_big_buffer(self):
        model, _ = producer_consumer_model(sink_rate=10, capacity=4)
        result = check_consistency(model)
        assert result.consistent
        # Every port of the single rate component runs at the sink rate.
        assert set(result.port_rates.values()) == {Fraction(10)}

    def test_infeasible_when_buffer_too_small_for_rate(self):
        # Cycle delay: 0.2 s of processing, buffer 1 token, required rate 10/s
        # -> 0.2 - 1/10 > 0: inconsistent.
        model, _ = producer_consumer_model(
            wcet_p=Fraction(1, 10), wcet_c=Fraction(1, 10), sink_rate=10, capacity=1
        )
        result = check_consistency(model)
        assert not result.consistent
        assert any(v.kind == "cycle" for v in result.violations)

    def test_offsets_satisfy_all_connections(self):
        model, _ = producer_consumer_model(sink_rate=10, capacity=4)
        result = check_consistency(model)
        for connection in model.all_connections():
            src_rate = result.port_rates[connection.src]
            delay = connection.delay(src_rate)
            assert result.offsets[connection.dst] >= result.offsets[connection.src] + delay

    def test_rate_conflict_reported(self):
        model = CTAModel("m")
        a = model.new_component("a")
        b = model.new_component("b")
        a.add_port("p", fixed_rate=10)
        b.add_port("p", fixed_rate=11)
        model.connect(a.port_ref("p"), b.port_ref("p"))
        result = check_consistency(model)
        assert not result.consistent
        assert any(v.kind == "rate" for v in result.violations)


class TestMaximalRates:
    def test_rate_limited_by_buffer_cycle(self):
        # Free component: max rate = capacity / total processing time.
        model, _ = producer_consumer_model(
            wcet_p=Fraction(1, 10), wcet_c=Fraction(1, 10), capacity=3
        )
        rates = maximal_rates(model)
        assert set(rates.values()) == {Fraction(3) / Fraction(1, 5)}

    def test_rate_limited_by_max_rate_cap(self):
        model = CTAModel("m")
        a = model.new_component("a")
        a.add_port("p", max_rate=42)
        rates = maximal_rates(model)
        assert rates[a.port_ref("p")] == 42

    def test_unbounded_rate(self):
        model = CTAModel("m")
        a = model.new_component("a")
        a.add_port("p")
        rates = maximal_rates(model)
        assert rates[a.port_ref("p")] is None

    def test_larger_buffer_allows_higher_rate(self):
        model_small, _ = producer_consumer_model(capacity=2)
        model_large, _ = producer_consumer_model(capacity=6)
        small = set(maximal_rates(model_small).values()).pop()
        large = set(maximal_rates(model_large).values()).pop()
        assert large > small

    def test_infeasible_at_any_rate(self):
        # A purely constant positive cycle cannot be fixed by slowing down.
        model = CTAModel("m")
        a = model.new_component("a")
        a.add_port("x")
        a.add_port("y")
        model.connect(a.port_ref("x"), a.port_ref("y"), epsilon=1)
        model.connect(a.port_ref("y"), a.port_ref("x"), epsilon=1)
        result = check_consistency(model)
        assert not result.consistent


class TestUnsizedBuffers:
    def test_unsized_requires_flag(self):
        model, buffer = producer_consumer_model(sink_rate=10)
        assert buffer.value is None
        with pytest.raises(ValueError):
            check_consistency(model)

    def test_unsized_treated_as_infinite(self):
        model, _ = producer_consumer_model(sink_rate=10)
        result = check_consistency(model, assume_infinite_unsized=True)
        assert result.consistent


class TestVerifyThroughput:
    def test_requirement_met(self):
        model, _ = producer_consumer_model(capacity=4)
        port = model.child("consumer").port_ref("data")
        ok, problems = verify_throughput(model, {port: Fraction(10)})
        assert ok, problems

    def test_requirement_not_met(self):
        model, _ = producer_consumer_model(
            wcet_p=Fraction(1, 2), wcet_c=Fraction(1, 2), capacity=1
        )
        port = model.child("consumer").port_ref("data")
        ok, problems = verify_throughput(model, {port: Fraction(100)})
        assert not ok
        assert problems


@pytest.mark.parametrize(
    "app", ["quickstart", "pal_decoder", "rate_converter", "modal_mute", "modal_two_mode"]
)
def test_analysis_equals_the_fraction_oracle(app):
    """Every Bellman-Ford query of a whole analysis (pinned-scale checks,
    the maximal-scale search, offsets, sizing probes) answered by the
    integer kernel and by the seed's Fraction loop gives the same results."""

    def analyse():
        analysis = Program.from_app(app).analyze()
        consistency, sizing = analysis.consistency, analysis.sizing
        return (
            consistency.scales, consistency.port_rates, consistency.offsets,
            sizing.capacities, sizing.iterations, sizing.consistency.offsets,
        )

    with fraction_longest_paths():
        expected = analyse()
    assert analyse() == expected
