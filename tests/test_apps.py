"""Tests for the packaged applications (Fig. 2, modal pipelines, quickstart)."""

from fractions import Fraction

import pytest

from repro.api import Analysis
from repro.apps.modal_audio import mute_program, two_mode_program
from repro.apps.producer_consumer import quickstart_program
from repro.apps.rate_converter import (
    FIG2_OIL_SOURCE,
    compare_specifications,
    compile_fig2,
    fig2_oil_source,
    fig2_registry,
    fig2_task_graph,
    minimal_initial_tokens_for_cta,
    sequential_program_text,
    sequential_schedule,
)
from repro.dataflow import repetition_vector, sdf_throughput


class TestFig2RateConverter:
    def test_repetition_vector(self):
        q = repetition_vector(fig2_task_graph())
        assert q.as_dict() == {"tf": 2, "tg": 3}

    def test_sequential_schedule_length(self):
        schedule = sequential_schedule()
        assert len(schedule) == 5
        assert schedule.count("tf") == 2 and schedule.count("tg") == 3

    def test_sequential_program_text_matches_fig2b(self):
        text = sequential_program_text()
        # 5 schedule statements + init + declarations + loop wrapper
        assert text.count("f(out") == 2
        assert text.count("g(out") == 3
        assert "init(" in text and "while(1)" in text

    def test_oil_program_constant_size(self):
        comparison = compare_specifications()
        assert comparison.oil_function_calls == 2
        assert comparison.sequential_statement_count == 6
        assert comparison.reduction_factor == 3.0

    def test_cta_conservatism_vs_exact(self):
        """Self-timed execution needs 4 initial values (the paper's example);
        the strictly periodic CTA abstraction needs a few more."""
        exact = sdf_throughput(fig2_task_graph())
        assert not exact.deadlocked
        minimal = minimal_initial_tokens_for_cta()
        assert minimal > 4
        assert minimal <= 8
        assert not compile_fig2(initial_tokens=4).check_consistency(
            assume_infinite_unsized=True
        ).consistent
        assert compile_fig2(initial_tokens=minimal).check_consistency(
            assume_infinite_unsized=True
        ).consistent

    def test_buffer_sizing_with_sufficient_initial_tokens(self):
        result = compile_fig2(initial_tokens=minimal_initial_tokens_for_cta())
        sizing = result.size_buffers()
        assert sizing.consistency.consistent
        assert all(value >= 1 for value in sizing.capacities.values())

    def test_source_template_validation(self):
        with pytest.raises(ValueError):
            fig2_oil_source(0)
        assert "init(out c:4)" in FIG2_OIL_SOURCE

    def test_registry_functions(self):
        registry = fig2_registry()
        assert registry.call("f", [1.0, 2.0, 3.0]) == [3.0, 5.0, 7.0]
        assert registry.call("g", [2.0, 4.0]) == [3.0, 3.0]
        assert len(registry.call("init")) == 4


class TestFig2SelfTimedExecution:
    """Regression for the Fig. 2 runtime blocker: the one-shot ``init``
    producer window used to pin the produced floor of stream ``c``/``y``
    forever (and hide the initial values from ``tf`` until ``tg`` produced,
    which needed exactly those values) -- the program deadlocked at t=0.
    One-shot window retirement makes the cyclic program self-time."""

    def test_rate_converter_self_times_end_to_end(self):
        from repro.api import Program

        analysis = Program.from_app("rate_converter").analyze()
        assert analysis.consistent
        run = analysis.run(Fraction(1, 10))
        counts = {"t_init": 0, "t_f": 0, "t_g": 0}
        for firing in run.trace.firings:
            name = firing.task.rsplit(":", 1)[-1]
            if name in counts:
                counts[name] += 1
        # the init prefix fires exactly once, then the loop tasks stream on
        assert counts["t_init"] == 1
        assert counts["t_f"] >= 20 and counts["t_g"] >= 30
        # steady-state firing ratio approaches the repetition vector (2, 3)
        ratio = counts["t_g"] / counts["t_f"]
        assert abs(ratio - 1.5) < 0.1
        assert run.occupancy_ok

    def test_execution_consumes_the_init_prefix(self):
        from repro.api import Program

        # Stop right after f's first firing completes (wcet 1/1000): f must
        # have read the init prefix (zeros) and written 2*0+1 = 1.0 values.
        run = Program.from_app("rate_converter").analyze().run(Fraction(3, 2000))
        f_values = run.simulation.buffers["C/x"]._storage
        assert 1.0 in [value for value in f_values if value is not None]

    def test_longer_run_scales_firings(self):
        from repro.api import Program

        program = Program.from_app("rate_converter")
        analysis = program.analyze()
        short = analysis.run(Fraction(1, 100)).completed_firings
        longer = analysis.run(Fraction(1, 50)).completed_firings
        assert longer > short


class TestQuickstartApp:
    def test_analysis(self, quickstart_sized):
        result, sizing = quickstart_sized
        consistency = sizing.consistency
        assert consistency.consistent
        assert consistency.port_rates[result.source_ports["samples"]] == 2000
        assert consistency.port_rates[result.sink_ports["averages"]] == 1000

    def test_latency_constraints_hold(self, quickstart_sized):
        result, sizing = quickstart_sized
        checks = result.verify_latency(sizing.consistency)
        assert len(checks) == 2
        assert all(check.satisfied for check in checks)

    def test_simulation_values_and_rate(self, quickstart_sized):
        result, sizing = quickstart_sized
        run = Analysis(quickstart_program(), result, sizing=sizing).run(Fraction(1, 5))
        simulation, trace = run.simulation, run.trace
        assert trace.deadline_miss_count() == 0
        assert simulation.sinks["averages"].consumed[:4] == [0.5, 2.5, 4.5, 6.5]
        assert trace.measured_rate("averages") == 1000


class TestModalApps:
    def test_mute_modal_behaviour(self, mute_sized):
        result, sizing = mute_sized
        # 40 good samples then 40 bad samples, repeated.
        signal = ([1.0] * 40 + [-1.0] * 40) * 100
        run = Analysis(mute_program(signal=signal), result, sizing=sizing).run(Fraction(1, 10))
        simulation, trace = run.simulation, run.trace
        speaker = simulation.sinks["speaker"].consumed
        assert trace.deadline_miss_count() == 0
        assert 0.0 in speaker and 1.0 in speaker  # both modes observed
        assert trace.measured_rate("speaker") == 2000

    def test_mute_analysis_rates(self, mute_sized):
        result, sizing = mute_sized
        consistency = sizing.consistency
        assert consistency.port_rates[result.source_ports["mic"]] == 8000
        assert consistency.port_rates[result.sink_ports["speaker"]] == 2000

    @pytest.mark.parametrize(
        "schedule",
        [(("loop0", 1), ("loop1", 1)), (("loop0", 4), ("loop1", 2)), (("loop0", 2), ("loop1", 9))],
        ids=["alternate", "calib-heavy", "process-heavy"],
    )
    def test_two_mode_conservative_under_any_schedule(self, two_mode_sized, schedule):
        result, sizing = two_mode_sized
        run = Analysis(
            two_mode_program(mode_schedule=schedule), result, sizing=sizing
        ).run(Fraction(1, 20))
        simulation, trace = run.simulation, run.trace
        assert trace.deadline_miss_count() == 0
        assert trace.measured_rate("dac") == 2000
        for name, mark in trace.buffer_high_water.items():
            assert mark <= simulation.buffers[name].capacity

    def test_two_mode_modes_visible_in_output(self, two_mode_sized):
        result, sizing = two_mode_sized
        run = Analysis(
            two_mode_program(mode_schedule=(("loop0", 2), ("loop1", 2))), result, sizing=sizing
        ).run(Fraction(1, 25))
        simulation = run.simulation
        values = simulation.sinks["dac"].consumed
        assert any(v >= 50 for v in values)   # calibration mode marks its output
        assert any(v < 50 for v in values)    # processing mode
