"""Tests for the PAL decoder case study (Sec. VI, Figs. 11 and 12)."""

from fractions import Fraction

import pytest

from repro.api import Analysis
from repro.apps.pal_decoder import (
    AUDIO_DECIMATION,
    AUDIO_FINAL_DECIMATION,
    AUDIO_RATE_HZ,
    RF_RATE_HZ,
    VIDEO_DOWN,
    VIDEO_RATE_HZ,
    VIDEO_UP,
    PalDecoderApp,
    pal_source_text,
)
from repro.cta import compute_rate_structure
from repro.dsp import dominant_frequency
from repro.lang import parse_program


class TestProgramText:
    def test_rates_of_the_paper(self):
        text = pal_source_text(1)
        assert "@ 6400000 Hz" in text
        assert "@ 4000000 Hz" in text
        assert "@ 32000 Hz" in text
        assert "si:25" in text
        assert "si:16" in text and "so:10" in text

    def test_scale_must_divide(self):
        with pytest.raises(ValueError):
            pal_source_text(7)

    def test_rate_ratios_are_scale_invariant(self):
        assert RF_RATE_HZ // AUDIO_DECIMATION // AUDIO_FINAL_DECIMATION == AUDIO_RATE_HZ
        assert RF_RATE_HZ * VIDEO_UP // VIDEO_DOWN == VIDEO_RATE_HZ

    def test_program_parses(self):
        program = parse_program(pal_source_text(1000))
        assert {m.name for m in program.modules} == {"SRC_A", "SRC_V", "Splitter", "main"}


class TestDerivedModel:
    def test_structure(self, pal_compiled):
        model = pal_compiled.model
        splitter = model.child("main").child("Splitter")
        assert set(splitter.children) >= {"Mix_A", "SRC_A", "LPF_V", "SRC_V"}
        kinds = {c.kind for c in model.walk()}
        assert {"source", "sink", "black-box", "module", "while-loop", "stream-access"} <= kinds

    def test_rate_conversion_ratios(self, pal_compiled):
        """The gamma factors of Fig. 12: 1/25 (SRC_A), 10/16 (SRC_V), 1/8 (Audio)."""
        result = pal_compiled
        structure = compute_rate_structure(result.model)
        rf = structure.relative_rate(result.source_ports["rf"])
        screen = structure.relative_rate(result.sink_ports["screen"])
        speakers = structure.relative_rate(result.sink_ports["speakers"])
        assert screen / rf == Fraction(VIDEO_UP, VIDEO_DOWN)
        assert speakers / rf == Fraction(1, AUDIO_DECIMATION * AUDIO_FINAL_DECIMATION)

    def test_consistency_and_absolute_rates(self, pal_app, pal_compiled):
        consistency = pal_compiled.check_consistency(assume_infinite_unsized=True)
        assert consistency.consistent
        assert consistency.port_rates[pal_compiled.source_ports["rf"]] == pal_app.rf_rate
        assert consistency.port_rates[pal_compiled.sink_ports["screen"]] == pal_app.video_rate
        assert consistency.port_rates[pal_compiled.sink_ports["speakers"]] == pal_app.audio_rate

    def test_inconsistent_when_sink_rate_wrong(self, pal_app):
        """Declaring a 3 MHz screen makes the fixed rates conflict."""
        text = pal_app.source_text().replace("@ 4000 Hz", "@ 3000 Hz")
        from repro.core import compile_program

        result = compile_program(
            text,
            function_wcets=pal_app.function_wcets(),
            black_boxes=pal_app.black_boxes(),
        )
        assert not result.check_consistency(assume_infinite_unsized=True).consistent

    def test_buffer_sizing(self, pal_sized):
        result, sizing = pal_sized
        assert sizing.consistency.consistent
        capacities = sizing.capacities
        # The SRC_A distribution buffer must hold at least one 25-sample block.
        assert capacities["SRC_A/loop0/si.access0"] >= AUDIO_DECIMATION
        assert capacities["SRC_V/loop0/si.access0"] >= VIDEO_DOWN
        assert capacities["SRC_V/loop0/so.access0"] >= VIDEO_UP
        assert all(value >= 1 for value in capacities.values())

    def test_audio_video_sync_constraint(self, pal_sized):
        result, sizing = pal_sized
        checks = result.verify_latency(sizing.consistency)
        assert len(checks) == 2
        assert all(check.satisfied for check in checks)
        # The two constraints force equal start times.
        screen = sizing.consistency.offsets[result.sink_ports["screen"]]
        speakers = sizing.consistency.offsets[result.sink_ports["speakers"]]
        assert screen == speakers

    def test_report_renders(self, pal_compiled):
        text = pal_compiled.report()
        assert "CTA model" in text
        assert "source rf" in text


class TestPalSimulation:
    def test_decoder_end_to_end(self, pal_app, pal_sized):
        result, sizing = pal_sized
        run = Analysis(pal_app.program(), result, sizing=sizing).run(Fraction(3, 2))
        simulation, trace = run.simulation, run.trace

        # Real-time behaviour: no deadline misses with the analysed capacities.
        assert trace.deadline_miss_count() == 0
        assert trace.measured_rate("screen") == pal_app.video_rate
        assert trace.measured_rate("speakers") == pal_app.audio_rate

        # Buffer occupancies stay within the analysed capacities.
        for name, mark in trace.buffer_high_water.items():
            assert mark <= simulation.buffers[name].capacity

        # Functional behaviour: the audio tone is recovered at the speakers
        # and the video band tone appears at the screen.
        audio = simulation.sinks["speakers"].consumed
        video = simulation.sinks["screen"].consumed
        assert len(audio) >= 32
        assert len(video) >= 1000
        expected_audio = pal_app.signal.audio_tone * AUDIO_DECIMATION * AUDIO_FINAL_DECIMATION
        assert dominant_frequency(audio[8:]) == pytest.approx(expected_audio, rel=0.15)
        expected_video = pal_app.signal.video_tones[0] * VIDEO_DOWN / VIDEO_UP
        assert dominant_frequency(video[64:]) == pytest.approx(expected_video, rel=0.15)

    def test_mute_mode_activates_on_weak_signal(self, pal_sized):
        result, sizing = pal_sized
        app = PalDecoderApp(scale=1000, mute_threshold=10.0)  # absurdly high threshold
        simulation = Analysis(app.program(), result, sizing=sizing).run(Fraction(1, 2)).simulation
        audio = simulation.sinks["speakers"].consumed
        assert audio and all(value == 0.0 for value in audio)
