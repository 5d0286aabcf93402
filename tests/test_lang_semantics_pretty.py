"""Tests for OIL semantic validation and the pretty printer."""

import pytest
from hypothesis import given, settings, strategies as st

import oil_fleets
from repro.baselines.sequential_schedule import rate_conversion_graph
from repro.core.compiler import compile_program
from repro.lang import (
    BlackBoxModule,
    BlackBoxPort,
    OilSemanticError,
    analyze_program,
    format_program,
    parse_program,
)
from repro.apps.modal_audio import MUTE_OIL_SOURCE, TWO_MODE_OIL_SOURCE
from repro.apps.pal_decoder import PalDecoderApp
from repro.apps.producer_consumer import QUICKSTART_OIL_SOURCE
from repro.apps.rate_converter import FIG2_OIL_SOURCE, fig2_task_graph


def errors_of(source, boxes=None):
    program = parse_program(source)
    analysis = analyze_program(program, boxes or [])
    return [d.message for d in analysis.diagnostics.errors]


class TestValidPrograms:
    @pytest.mark.parametrize(
        "source",
        [FIG2_OIL_SOURCE, QUICKSTART_OIL_SOURCE, MUTE_OIL_SOURCE, TWO_MODE_OIL_SOURCE],
        ids=["fig2", "quickstart", "mute", "two-mode"],
    )
    def test_shipped_programs_are_clean(self, source):
        assert errors_of(source) == []

    def test_pal_program_with_black_boxes(self):
        app = PalDecoderApp(scale=1000)
        assert errors_of(app.source_text(), app.black_boxes()) == []

    def test_pal_program_without_black_boxes_fails(self):
        app = PalDecoderApp(scale=1000)
        messages = errors_of(app.source_text())
        assert any("unknown module" in m for m in messages)


class TestModuleCalls:
    def test_unknown_module(self):
        messages = errors_of("mod par Top(){ fifo int x; Ghost(out x) }")
        assert any("unknown module" in m for m in messages)

    def test_arity_mismatch(self):
        source = """
        mod seq S(int a, out int b){ loop{ f(a, out b); } while(1); }
        mod par Top(){ fifo int x; S(out x) }
        """
        assert any("arguments" in m for m in errors_of(source))

    def test_direction_mismatch(self):
        source = """
        mod seq S(int a, out int b){ loop{ f(a, out b); } while(1); }
        mod par Top(){ fifo int x, y; S(out x, out y) }
        """
        assert any("input argument" in m for m in errors_of(source))

    def test_recursive_instantiation(self):
        source = """
        mod par A(){ B() }
        mod par B(){ A() }
        """
        assert any("recursive" in m.lower() for m in errors_of(source))

    def test_self_instantiation(self):
        assert any("itself" in m for m in errors_of("mod par A(){ A() }"))


class TestStreamRules:
    def test_fifo_multiple_writers(self):
        source = """
        mod seq P(out int o){ loop{ f(out o); } while(1); }
        mod par Top(){ fifo int x; P(out x) || P(out x) }
        """
        assert any("multiple writers" in m for m in errors_of(source))

    def test_fifo_without_writer(self):
        source = """
        mod seq C(int i){ loop{ f(i); } while(1); }
        mod par Top(){ fifo int x; C(x) }
        """
        assert any("no writer" in m for m in errors_of(source))

    def test_source_cannot_be_written(self):
        source = """
        mod seq P(out int o){ loop{ f(out o); } while(1); }
        mod par Top(){ source int s = gen() @ 1 kHz; P(out s) }
        """
        assert any("sources are produced" in m for m in errors_of(source))

    def test_sink_must_be_written(self):
        source = "mod par Top(){ sink int s = put() @ 1 kHz; }"
        assert any("never written" in m for m in errors_of(source))

    def test_latency_requires_sources_or_sinks(self):
        source = """
        mod seq P(out int o){ loop{ f(out o); } while(1); }
        mod seq C(int i){ loop{ g(i); } while(1); }
        mod par Top(){ fifo int x; start x 1 ms after x; P(out x) || C(x) }
        """
        assert any("not a source or sink" in m for m in errors_of(source))


class TestSequentialRules:
    def test_undeclared_name(self):
        source = "mod seq S(out int o){ loop{ o = f(ghost); } while(1); }"
        assert any("undeclared" in m for m in errors_of(source))

    def test_input_stream_not_writable(self):
        source = "mod seq S(int i, out int o){ loop{ i = f(); o = g(); } while(1); }"
        assert any("read-only" in m for m in errors_of(source))

    def test_output_stream_not_readable(self):
        source = "mod seq S(out int o){ loop{ o = f(o); } while(1); }"
        assert any("write-only" in m for m in errors_of(source))

    def test_output_written_on_every_path(self):
        source = """
        mod seq S(int i, out int o){
          loop{ if (i > 0) { o = f(); } } while(1);
        }
        """
        assert any("not written" in m for m in errors_of(source))

    def test_output_written_in_both_branches_is_ok(self):
        source = """
        mod seq S(int i, out int o){
          loop{ if (i > 0) { o = f(); } else { o = g(); } } while(1);
        }
        """
        assert errors_of(source) == []

    def test_switch_all_cases_write(self):
        source = """
        mod seq S(int i, out int o){
          loop{ switch(i) case 0 { o = f(); } default { o = g(); } } while(1);
        }
        """
        assert errors_of(source) == []

    def test_colon_on_local_variable_rejected(self):
        source = "mod seq S(out int o){ int y; loop{ y = f(); o = g(y:2); } while(1); }"
        assert any("colon notation" in m for m in errors_of(source))

    def test_strict_mode_raises(self):
        program = parse_program("mod seq S(out int o){ loop{ o = f(ghost); } while(1); }")
        with pytest.raises(OilSemanticError):
            analyze_program(program, strict=True)

    def test_stream_usage_summary(self):
        program = parse_program(
            "mod seq S(sample i, out sample o){ loop{ f(i:25, out o:10); } while(1); }"
        )
        analysis = analyze_program(program)
        usage = analysis.stream_usage["S"]
        assert usage["i"].max_read_count == 25
        assert usage["o"].max_write_count == 10
        assert analysis.functions["S"] == {"f"}

    def test_input_not_accessed_every_loop_warns(self):
        source = """
        mod seq S(int i, int j, out int o){
          loop{ if (j > 0) { o = f(i); } else { o = g(j); } } while(1);
        }
        """
        program = parse_program(source)
        analysis = analyze_program(program)
        assert any("not accessed" in d.message for d in analysis.diagnostics.warnings)


class TestPrettyPrinter:
    @pytest.mark.parametrize(
        "source",
        [FIG2_OIL_SOURCE, QUICKSTART_OIL_SOURCE, MUTE_OIL_SOURCE, TWO_MODE_OIL_SOURCE],
        ids=["fig2", "quickstart", "mute", "two-mode"],
    )
    def test_round_trip(self, source):
        program = parse_program(source)
        printed = format_program(program)
        reparsed = parse_program(printed)
        assert [m.name for m in reparsed.modules] == [m.name for m in program.modules]
        # Round-tripping again is a fixed point.
        assert format_program(reparsed) == printed

    def test_pal_round_trip(self):
        app = PalDecoderApp(scale=1000)
        program = parse_program(app.source_text())
        printed = format_program(program)
        reparsed = parse_program(printed)
        assert reparsed.module("Splitter").calls == program.module("Splitter").calls

    def test_frequencies_rendered_with_units(self):
        app = PalDecoderApp(scale=1)
        printed = format_program(parse_program(app.source_text()))
        assert "6.4 MHz" in printed
        assert "32 kHz" in printed


@st.composite
def printed_fleets(draw):
    """OIL source of one of the printed engine fleets (tests/oil_fleets.py):
    a ring (2-12 modules, 1..n-1 tokens, stagger 1-3), a fork/join of width
    1-8, or an SDF graph of the rate pairs the engine tests run."""
    shape = draw(st.sampled_from(["ring", "fork-join", "sdf"]))
    if shape == "ring":
        task_count = draw(st.integers(2, 12))
        return oil_fleets.ring_source(
            task_count,
            tokens=draw(st.integers(1, task_count - 1)),
            stagger=draw(st.integers(1, 3)),
        )
    if shape == "fork-join":
        return oil_fleets.fork_join_source(draw(st.integers(1, 8)))
    produce, consume = draw(st.sampled_from([(3, 2), (5, 3), (4, 7)]))
    return oil_fleets.sdf_source(rate_conversion_graph(produce, consume))


@given(printed_fleets())
@settings(max_examples=40, deadline=None)
def test_printed_fleets_compile_and_round_trip(printed):
    compile_program(printed)  # raises on any semantic error
    formatted = format_program(parse_program(printed))
    assert format_program(parse_program(formatted)) == formatted


def test_fig2_graph_prints_as_a_clean_program():
    printed = oil_fleets.sdf_source(fig2_task_graph())
    assert errors_of(printed) == []
    assert "init(4, out by:4);" in printed
