"""Tests for the DSP kernels (filters, resamplers, mixer, PAL signal)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dsp_oracle
from repro.api import Program
from repro.apps.pal_decoder import PalDecoderApp, VIDEO_UP
from repro.runtime.functions import FunctionRegistry
from repro.dsp import (
    Decimator,
    Mixer,
    PALSignalConfig,
    PALSignalGenerator,
    RationalResampler,
    StreamingFIR,
    band_power,
    block_convolve,
    design_lowpass,
    dominant_frequency,
    synthesize_composite,
    synthesize_composite_at,
    tone,
)


class TestFilterDesign:
    def test_unit_dc_gain(self):
        taps = design_lowpass(0.1, 63)
        assert taps.sum() == pytest.approx(1.0)

    def test_passband_and_stopband(self):
        taps = design_lowpass(0.1, 127)
        fir = StreamingFIR(taps)
        n = 4096
        low = tone(0.02, n)
        high = tone(0.4, n)
        out_low = np.asarray(fir.process(list(low)))
        fir.reset()
        out_high = np.asarray(fir.process(list(high)))
        assert np.std(out_low[200:]) > 0.5 * np.std(low)
        assert np.std(out_high[200:]) < 0.05 * np.std(high)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            design_lowpass(0.7)
        with pytest.raises(ValueError):
            design_lowpass(0.1, 0)


class TestStreamingFIR:
    def test_matches_block_convolution(self):
        taps = design_lowpass(0.2, 21)
        rng = np.random.default_rng(7)
        signal = rng.standard_normal(300)
        fir = StreamingFIR(taps)
        streamed = []
        for start in range(0, 300, 17):
            streamed.extend(fir.process(list(signal[start : start + 17])))
        reference = block_convolve(taps, signal)
        assert np.allclose(streamed, reference)

    def test_scalar_input(self):
        fir = StreamingFIR([1.0])
        assert fir.process(2.5) == [2.5]

    def test_reset_clears_history(self):
        fir = StreamingFIR([0.5, 0.5])
        fir.process([1.0, 1.0])
        fir.reset()
        assert fir.process([0.0]) == [0.0]

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            StreamingFIR([])


class TestResampling:
    def test_decimator_block_counts(self):
        dec = Decimator(25)
        out = dec.process([1.0] * 25)
        assert len(out) == 1

    def test_rational_resampler_block_counts(self):
        resampler = RationalResampler(10, 16)
        for _ in range(5):
            out = resampler.process([0.5] * 16)
            assert len(out) == 10

    def test_resampler_preserves_tone_frequency(self):
        resampler = RationalResampler(10, 16, num_taps=127)
        signal = tone(0.02, 16 * 200)
        output = []
        for start in range(0, signal.size, 16):
            output.extend(resampler.process(list(signal[start : start + 16])))
        measured = dominant_frequency(output[300:])
        assert measured == pytest.approx(0.02 * 16 / 10, rel=0.05)

    def test_decimator_removes_aliases(self):
        dec = Decimator(4, num_taps=127)
        # A tone above the post-decimation Nyquist must be attenuated.
        signal = tone(0.2, 4 * 500)
        output = []
        for start in range(0, signal.size, 4):
            output.extend(dec.process(list(signal[start : start + 4])))
        assert np.std(output[100:]) < 0.1

    def test_invalid_factors(self):
        with pytest.raises(ValueError):
            RationalResampler(0, 4)
        with pytest.raises(ValueError):
            Decimator(0)


class TestMixer:
    def test_shifts_carrier_to_baseband(self):
        carrier = 0.3
        modulation = 0.01
        n = 4096
        samples = (1 + 0.5 * tone(modulation, n)) * tone(carrier, n)
        mixer = Mixer(carrier)
        mixed = mixer.process(list(samples))
        fir = StreamingFIR(design_lowpass(0.05, 127))
        baseband = fir.process(mixed)
        assert dominant_frequency(baseband[300:]) == pytest.approx(modulation, rel=0.1)

    def test_phase_continuity_across_blocks(self):
        mixer_a = Mixer(0.123)
        mixer_b = Mixer(0.123)
        signal = list(tone(0.05, 64))
        whole = mixer_a.process(signal)
        parts = mixer_b.process(signal[:20]) + mixer_b.process(signal[20:])
        assert np.allclose(whole, parts)

    def test_band_power(self):
        signal = tone(0.1, 2048)
        assert band_power(signal, 0.08, 0.12) > 0.9
        assert band_power(signal, 0.3, 0.5) < 0.05


class TestPALSignal:
    def test_contains_video_and_audio_bands(self):
        config = PALSignalConfig(noise_amplitude=0.0)
        signal = synthesize_composite(config, 8192)
        assert band_power(signal, 0.0, 0.1) > 0.3          # video band
        assert band_power(signal, 0.3, 0.4) > 0.1          # audio carrier band

    def test_generator_matches_batch_synthesis(self):
        config = PALSignalConfig(noise_amplitude=0.0)
        generator = PALSignalGenerator(config, block=64)
        streamed = [next(generator) for _ in range(256)]
        batch = synthesize_composite(config, 256)
        assert np.allclose(streamed, batch)

    def test_synthesize_at_is_phase_continuous(self):
        config = PALSignalConfig(noise_amplitude=0.0)
        whole = synthesize_composite(config, 200)
        parts = np.concatenate(
            [synthesize_composite_at(config, 0, 120), synthesize_composite_at(config, 120, 80)]
        )
        assert np.allclose(whole, parts)

    def test_dominant_frequency_detects_tone(self):
        assert dominant_frequency(tone(0.07, 2048)) == pytest.approx(0.07, abs=0.002)


class TestSetStateValidation:
    def test_fir_rejects_a_delay_line_of_the_wrong_length(self):
        fir = StreamingFIR([0.5, 0.25, 0.25])
        with pytest.raises(ValueError, match="holds 2 samples"):
            fir.set_state((1.0, 2.0, 3.0, 4.0))
        with pytest.raises(ValueError, match="holds 2 samples"):
            fir.set_state((1.0,))
        # A rejected state leaves the delay line as it was.
        assert fir.get_state() == (0.0, 0.0)
        fir.set_state((1.0, 2.0))
        assert fir.process([0.0, 0.0]) == [0.75, 0.5]

    def test_single_tap_filter_has_an_empty_delay_line(self):
        fir = StreamingFIR([2.0])
        fir.set_state(())
        assert fir.process([1.5]) == [3.0]
        with pytest.raises(ValueError, match="holds 0 samples"):
            fir.set_state((1.0,))

    @pytest.mark.parametrize("phase", [8, 11, -1])
    def test_resampler_rejects_a_phase_outside_the_decimation_range(self, phase):
        resampler = RationalResampler(10, 16)  # reduced to up 5, down 8
        before = resampler.get_state()
        history = (1.0,) * len(before[0])
        with pytest.raises(ValueError, match="0 <= phase < 8"):
            resampler.set_state((history, phase))
        # The phase is checked before the delay line is replaced.
        assert resampler.get_state() == before
        resampler.set_state((history, 7))
        assert resampler.get_state() == (history, 7)

    def test_decimator_validates_through_its_resampler(self):
        decimator = Decimator(4, num_taps=5)
        with pytest.raises(ValueError, match="0 <= phase < 4"):
            decimator.set_state(((0.0,) * 4, 4))
        with pytest.raises(ValueError, match="holds 4 samples"):
            decimator.set_state(((0.0,) * 5, 0))


# ---------------------------------------------------------------------------
# The seed kernels as the oracle: kept outputs only, bit for bit
# ---------------------------------------------------------------------------

def bits(values):
    """Exact spellings of a sequence of floats (``-0.0`` differs from 0.0)."""
    return [float(value).hex() for value in values]


def as_list(output):
    """A registry function's output as a list (one-output functions return
    the bare value)."""
    return output if isinstance(output, list) else [output]


SAMPLES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
#: one call's input: a block of 0-40 samples, or one bare scalar
BLOCKS = st.one_of(SAMPLES, st.lists(SAMPLES, max_size=40))


@st.composite
def kernel_pairs(draw):
    """A kernel of :mod:`repro.dsp` and its seed twin from the oracle,
    built with the same random parameters."""
    kind = draw(st.sampled_from(["fir", "resampler", "decimator", "mixer"]))
    if kind == "fir":
        taps = draw(st.lists(SAMPLES, min_size=1, max_size=129))
        return StreamingFIR(taps), dsp_oracle.StreamingFIR(taps)
    if kind == "mixer":
        frequency = draw(st.floats(min_value=0.0, max_value=0.5))
        amplitude = draw(st.floats(min_value=-4.0, max_value=4.0))
        return (
            Mixer(frequency, amplitude=amplitude),
            dsp_oracle.Mixer(frequency, amplitude=amplitude),
        )
    num_taps = draw(st.integers(min_value=1, max_value=129))
    if kind == "decimator":
        factor = draw(st.integers(min_value=1, max_value=16))
        return (
            Decimator(factor, num_taps=num_taps),
            dsp_oracle.Decimator(factor, num_taps=num_taps),
        )
    up = draw(st.integers(min_value=1, max_value=16))
    down = draw(st.integers(min_value=1, max_value=16))
    return (
        RationalResampler(up, down, num_taps=num_taps),
        dsp_oracle.RationalResampler(up, down, num_taps=num_taps),
    )


class TestSeedOracle:
    @settings(max_examples=150, deadline=None)
    @given(pair=kernel_pairs(), calls=st.lists(BLOCKS, min_size=1, max_size=8), data=st.data())
    def test_every_call_matches_the_seed_bit_for_bit(self, pair, calls, data):
        kernel, oracle = pair
        round_trip_at = data.draw(st.integers(min_value=0, max_value=len(calls) - 1))
        for position, block in enumerate(calls):
            if position == round_trip_at:
                kernel.set_state(kernel.get_state())
            # A bare scalar may go through the mixer's one-sample entry,
            # the method the PAL registry binds as ``Mix_A``.
            if isinstance(kernel, Mixer) and not isinstance(block, list) and data.draw(st.booleans()):
                produced = [kernel.mix(block)]
            else:
                produced = kernel.process(block)
            expected = oracle.process(block)
            assert all(type(value) is float for value in produced)
            assert bits(produced) == bits(expected)
            state, expected_state = kernel.get_state(), oracle.get_state()
            assert state == expected_state
            assert hash(state) == hash(expected_state)

    def test_fir_state_is_a_tuple_of_python_floats(self):
        fir = StreamingFIR(design_lowpass(0.2, 7))
        fir.process([0.5, -1.25, 3.0])
        state = fir.get_state()
        assert isinstance(state, tuple)
        assert all(type(value) is float for value in state)
        assert state == (0.0, 0.0, 0.0, 0.5, -1.25, 3.0)

    def test_pal_registry_matches_the_seed_registry(self):
        # Every DSP function of the PAL registry, fed the same random
        # stream as the seed's registry, returns the same bits and ends in
        # an equal state.
        app = PalDecoderApp()
        registry, seed = app.registry(), dsp_oracle.seed_registry(app)
        rng = np.random.default_rng(3)
        for name, size in {"Mix_A": 1, "LPF_V": 1, "LPF": 25, "resamp": 16, "Audio": 8}.items():
            function, reference = registry.get(name), seed.get(name)
            for _ in range(40):
                stream = [float(value) for value in rng.standard_normal(size)]
                argument = stream[0] if size == 1 else stream
                got, expected = function.callable(argument), reference.callable(argument)
                assert bits(as_list(got)) == bits(as_list(expected))
            assert function.get_state() == reference.get_state()

    def test_pal_run_matches_the_seed_registry(self):
        app = PalDecoderApp()
        analysis = app.program().analyze()
        runs = [
            analysis.run(Fraction(1, 4), fast_forward=False, trace="off", registry=factory)
            for factory in (app.registry, lambda: dsp_oracle.seed_registry(app))
        ]
        for name in ("screen", "speakers"):
            candidate, reference = (run.simulation.sinks[name].consumed for run in runs)
            assert len(candidate) > 0
            assert bits(candidate) == bits(reference)


@pytest.fixture
def function_calls(monkeypatch):
    """Calls per registered function name, counted by a test-side wrapper."""
    counts = {}
    original = FunctionRegistry.call

    def call(self, name, *args):
        counts[name] = counts.get(name, 0) + 1
        return original(self, name, *args)

    monkeypatch.setattr(FunctionRegistry, "call", call)
    return counts


class TestKeptOutputsOnly:
    def test_pal_computes_one_dot_per_kept_output(self, function_calls):
        # Over 1 s of naive PAL the seed took 44,943 dot products (every
        # position of every zero-stuffed block); only the outputs the
        # decimators and the resampler keep are computed now.
        analysis = Program.from_app("pal_decoder").analyze()
        with dsp_oracle.count_dots() as dots:
            analysis.run(Fraction(1), fast_forward=False, trace="off")
        kept = (
            function_calls["LPF_V"]
            + function_calls["LPF"]
            + function_calls["Audio"]
            + VIDEO_UP * function_calls["resamp"]
        )
        assert dots[0] == kept == 10_676
