"""Tests for the baselines and cross-cutting integration properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Analysis
from repro.baselines import (
    compare_scaling,
    decimation_pipeline_source,
    exact_analysis,
    format_comparison,
    generate_sequential_program,
    multirate_chain,
    multirate_cycle,
    rate_conversion_graph,
    schedule_growth,
)
from repro.core import compile_program
from repro.dataflow import repetition_vector, sdf_throughput, self_timed_statespace


class TestSequentialScheduleBaseline:
    def test_program_statement_count_equals_schedule(self):
        graph = rate_conversion_graph(3, 2)
        program = generate_sequential_program(graph)
        assert program.statement_count == len(program.schedule)
        assert program.statement_count == repetition_vector(graph).total_firings()

    def test_growth_with_coprime_rates(self):
        rows = schedule_growth([(3, 2), (7, 5), (16, 10), (25, 16)])
        lengths = [row.schedule_length for row in rows]
        assert lengths[0] < lengths[-1]
        assert all(row.oil_statements == 3 for row in rows)
        assert rows[-1].growth_factor > 5

    def test_deadlocked_graph_rejected(self):
        graph = rate_conversion_graph(3, 2, initial_factor=0)
        with pytest.raises(ValueError):
            generate_sequential_program(graph)


class TestExactBaseline:
    def test_chain_repetition_grows_exponentially(self):
        shallow = exact_analysis(multirate_chain(2), run_statespace=False)
        deep = exact_analysis(multirate_chain(5), run_statespace=False)
        assert deep.repetition_sum > 4 * shallow.repetition_sum
        assert deep.hsdf_actors == deep.repetition_sum

    def test_chain_throughput_finite(self):
        report = exact_analysis(multirate_chain(3), run_statespace=True)
        assert report.iteration_period is not None
        assert report.statespace_period is not None

    def test_cycle_workload(self):
        graph = multirate_cycle(4)
        result = sdf_throughput(graph)
        assert not result.deadlocked


class TestScalingComparison:
    def test_rows_and_formatting(self):
        rows = compare_scaling([1, 2, 3], rate=2, base_hz=1 << 12, size_buffers=False)
        assert [row.stages for row in rows] == [1, 2, 3]
        assert all(row.cta_consistent for row in rows)
        # The CTA model grows linearly, the repetition sum exponentially.
        assert rows[2].cta_ports - rows[1].cta_ports == rows[1].cta_ports - rows[0].cta_ports
        assert rows[2].sdf_repetition_sum > 2 * rows[1].sdf_repetition_sum
        text = format_comparison(rows)
        assert "stages" in text and len(text.splitlines()) == len(rows) + 2

    def test_decimation_source_compiles_at_depth(self):
        source = decimation_pipeline_source(4, rate=2, base_hz=1 << 12)
        wcets = {f"dec{i}": Fraction(1, 1 << 14) for i in range(4)}
        result = compile_program(source, function_wcets=wcets)
        consistency = result.check_consistency(assume_infinite_unsized=True)
        assert consistency.consistent


class TestAnalysisVsExecutionConservativeness:
    """The central soundness property: executing an application with the
    buffer capacities computed by the CTA analysis never violates the
    periodic source/sink deadlines."""

    def test_quickstart(self, quickstart_sized):
        from repro.apps.producer_consumer import quickstart_program

        result, sizing = quickstart_sized
        run = Analysis(quickstart_program(), result, sizing=sizing).run(Fraction(1, 2))
        assert run.trace.deadline_miss_count() == 0

    def test_mute(self, mute_sized):
        from repro.apps.modal_audio import mute_program

        result, sizing = mute_sized
        signal = [float(i % 7 - 3) for i in range(8000)]
        run = Analysis(mute_program(signal=signal), result, sizing=sizing).run(Fraction(1, 4))
        assert run.trace.deadline_miss_count() == 0

    @given(
        st.lists(
            st.tuples(st.sampled_from(["loop0", "loop1"]), st.integers(1, 6)),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=8, deadline=None)
    def test_two_mode_any_schedule(self, two_mode_sized, schedule):
        from repro.apps.modal_audio import two_mode_program

        result, sizing = two_mode_sized
        # Ensure both loops appear so the schedule cycles sensibly.
        schedule = list(schedule) + [("loop1", 1), ("loop0", 1)]
        run = Analysis(
            two_mode_program(mode_schedule=schedule), result, sizing=sizing
        ).run(Fraction(1, 25))
        assert run.trace.deadline_miss_count() == 0


class TestExactVsCTAThroughputRelation:
    def test_cta_rate_is_conservative_for_single_rate_pipeline(self):
        """For a simple pipeline the maximal rate reported by the CTA analysis
        never exceeds the exact self-timed throughput of the equivalent SDF
        graph with the same buffer capacities."""
        wcet = Fraction(1, 100)
        source = (
            "mod seq P(int i, out int o){ loop{ work(i, out o); } while(1); }\n"
            "mod par Top(){ fifo int a, b; Feed(out a) || P(a, out b) || Drain(b) }\n"
            "mod seq Feed(out int o){ loop{ feed(out o); } while(1); }\n"
            "mod seq Drain(int i){ loop{ drain(i); } while(1); }\n"
        )
        result = compile_program(
            source, function_wcets={"work": wcet, "feed": wcet, "drain": wcet}
        )
        sizing = result.size_buffers()
        consistency = sizing.consistency
        rates = [r for r in consistency.port_rates.values() if r is not None]
        assert rates
        cta_rate = max(rates)

        from repro.dataflow import SDFGraph

        graph = SDFGraph("pipeline")
        for name in ("feed", "work", "drain"):
            graph.add_actor(name, firing_duration=wcet)
        capacity = max(sizing.capacities.values())
        graph.add_buffer("a", "feed", "work", capacity=capacity)
        graph.add_buffer("b", "work", "drain", capacity=capacity)
        exact = sdf_throughput(graph)
        assert exact.actor_throughput["work"] >= cta_rate or exact.iteration_period is None
