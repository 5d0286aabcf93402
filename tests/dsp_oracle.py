"""The seed's streaming DSP kernels, kept as the reference oracle.

:mod:`repro.dsp` computes only the outputs a caller keeps: a decimator or
resampler asks its filter for the phase-0 positions alone, on a float64
delay line.  The seed filtered every position of the zero-stuffed stream
and threw most of the results away.  Each kept output must still be the
very same ``np.dot`` over the very same window, stuffed zeros included --
no batching into one matrix product, no Python-level sum, no polyphase
split -- so the two agree bit for bit (``tests/test_dsp.py``).  The
seed's classes below are that reference, copied verbatim; they are not a
library option, so they live here, in one copy.  :func:`seed_registry`
wraps them exactly as the seed's PAL registry did, and :func:`count_dots`
counts the dot products a block of code computes::

    with count_dots() as dots:
        result = analysis.run(duration)  # every repro.dsp dot is counted
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Callable, Iterator, List, Sequence

import numpy as np

from repro.apps.pal_decoder import (
    AUDIO_DECIMATION,
    AUDIO_FINAL_DECIMATION,
    VIDEO_DOWN,
    VIDEO_UP,
)
from repro.dsp import filters
from repro.dsp.filters import design_lowpass
from repro.runtime.functions import FunctionRegistry


class StreamingFIR:
    """A stateful FIR filter processing samples one block at a time.

    The delay line persists between calls so consecutive calls on consecutive
    blocks produce the same output as filtering the concatenated signal.
    """

    def __init__(self, taps: Sequence[float]) -> None:
        self.taps = np.asarray(list(taps), dtype=float)
        if self.taps.ndim != 1 or self.taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D sequence")
        self._history: List[float] = [0.0] * (self.taps.size - 1)

    def reset(self) -> None:
        """Clear the delay line."""
        self._history = [0.0] * (self.taps.size - 1)

    def get_state(self):
        """The delay line as a serialisable tuple (raw input copies, so a
        periodic input makes the state exactly periodic)."""
        return tuple(self._history)

    def set_state(self, state) -> None:
        self._history = list(state)

    def process(self, samples: Sequence[float]) -> List[float]:
        """Filter *samples* and return one output per input sample."""
        if np.isscalar(samples):
            samples = [float(samples)]  # type: ignore[list-item]
        samples = [float(s) for s in samples]
        if not samples:
            return []
        signal = np.asarray(self._history + samples, dtype=float)
        # Output y[n] = sum_k taps[k] * x[n - k]  for n over the new samples.
        outputs: List[float] = []
        taps = self.taps[::-1]
        width = self.taps.size
        for index in range(len(samples)):
            window = signal[index : index + width]
            outputs.append(float(np.dot(window, taps)))
        keep = max(width - 1, 0)
        self._history = list(signal[-keep:]) if keep else []
        return outputs

    def __call__(self, samples: Sequence[float]) -> List[float]:
        return self.process(samples)


class RationalResampler:
    """A streaming resampler by the rational factor ``up / down``.

    Each call to :meth:`process` may pass any number of input samples; the
    resampler buffers fractional phases internally so that concatenated calls
    are equivalent to one large call.  For block-oriented use (the OIL
    decoder), pass ``down`` samples per call to obtain exactly ``up`` output
    samples per call (after the start-up transient of the filter).
    """

    def __init__(self, up: int, down: int, *, num_taps: int = 63) -> None:
        if up < 1 or down < 1:
            raise ValueError("up and down factors must be positive")
        gcd = math.gcd(up, down)
        self.up = up // gcd
        self.down = down // gcd
        cutoff = 0.45 / max(self.up, self.down)
        self._filter = StreamingFIR(design_lowpass(cutoff, num_taps) * self.up)
        self._phase = 0  # position within the upsampled stream modulo `down`
        self._pending: List[float] = []

    def reset(self) -> None:
        self._filter.reset()
        self._phase = 0
        self._pending = []

    def get_state(self):
        """Filter delay line + decimation phase as a serialisable tuple."""
        return (self._filter.get_state(), self._phase)

    def set_state(self, state) -> None:
        history, phase = state
        self._filter.set_state(history)
        self._phase = int(phase)

    def process(self, samples: Sequence[float]) -> List[float]:
        """Resample *samples*; returns the newly available output samples."""
        if np.isscalar(samples):
            samples = [float(samples)]  # type: ignore[list-item]
        samples = [float(s) for s in samples]
        if not samples:
            return []
        # Zero-stuff by the interpolation factor.
        stuffed: List[float] = []
        for sample in samples:
            stuffed.append(sample)
            stuffed.extend([0.0] * (self.up - 1))
        filtered = self._filter.process(stuffed)
        # Decimate by the decimation factor, honouring the phase left over
        # from the previous call.
        outputs: List[float] = []
        index = (self.down - self._phase) % self.down
        start = index if self._phase else 0
        position = self._phase
        for offset, value in enumerate(filtered):
            if position == 0:
                outputs.append(value)
            position = (position + 1) % self.down
        self._phase = position
        return outputs

    def __call__(self, samples: Sequence[float]) -> List[float]:
        return self.process(samples)


class Decimator:
    """A streaming decimator by an integer factor with anti-alias filtering.

    ``process`` consumes blocks of ``factor`` samples and produces one output
    sample per block (the SRC_A / Audio behaviour of the PAL decoder).
    """

    def __init__(self, factor: int, *, num_taps: int = 63) -> None:
        if factor < 1:
            raise ValueError("decimation factor must be positive")
        self.factor = factor
        self._resampler = RationalResampler(1, factor, num_taps=num_taps)

    def reset(self) -> None:
        self._resampler.reset()

    def get_state(self):
        return self._resampler.get_state()

    def set_state(self, state) -> None:
        self._resampler.set_state(state)

    def process(self, samples: Sequence[float]) -> List[float]:
        return self._resampler.process(samples)

    def __call__(self, samples: Sequence[float]) -> List[float]:
        return self.process(samples)


class Mixer:
    """Multiply a real signal with a cosine local oscillator.

    The oscillator phase argument is ``2*pi*frequency*n``; for a rational
    ``frequency = p/q`` (read off the decimal spelling) the value stream is
    made *exactly* periodic by wrapping the sample index modulo ``q`` --
    ``cos`` of the very same float argument repeats bit for bit, which is
    what lets the fast-forwarder fold :meth:`get_state` into a finite
    periodicity key.

    Parameters
    ----------
    frequency:
        Oscillator frequency in cycles per *sample* (normalised frequency).
    amplitude:
        Oscillator amplitude (2.0 recovers the baseband amplitude of a
        double-sideband signal after low-pass filtering).
    """

    def __init__(self, frequency: float, *, amplitude: float = 2.0) -> None:
        self.frequency = float(frequency)
        self.amplitude = float(amplitude)
        #: oscillator period in samples (the denominator of the decimal
        #: spelling of the frequency; 1.0/3 etc. just get a huge period)
        self.period = Fraction(str(self.frequency)).denominator
        self._sample_index = 0

    def reset(self) -> None:
        self._sample_index = 0

    def get_state(self) -> int:
        """The oscillator position (serialisable, bounded by :attr:`period`)."""
        return self._sample_index

    def set_state(self, state: Any) -> None:
        self._sample_index = int(state) % self.period

    def process(self, samples: Sequence[float]) -> List[float]:
        if np.isscalar(samples):
            samples = [float(samples)]  # type: ignore[list-item]
        samples = [float(s) for s in samples]
        outputs: List[float] = []
        for sample in samples:
            phase = 2.0 * math.pi * self.frequency * self._sample_index
            outputs.append(self.amplitude * sample * math.cos(phase))
            self._sample_index = (self._sample_index + 1) % self.period
        return outputs

    def __call__(self, samples: Sequence[float]) -> List[float]:
        return self.process(samples)


def seed_registry(app) -> FunctionRegistry:
    """*app*'s PAL registry (a :class:`~repro.apps.pal_decoder.PalDecoderApp`)
    with its five DSP functions on the seed kernels, wrapped as the seed's
    registry wrapped them; response times and descriptions are kept."""
    registry = app.registry()
    mixer = Mixer(app.signal.audio_carrier)
    audio_decimator = Decimator(AUDIO_DECIMATION, num_taps=127)
    video_filter = StreamingFIR(design_lowpass(0.15, 63))
    video_resampler = RationalResampler(VIDEO_UP, VIDEO_DOWN, num_taps=63)
    final_decimator = Decimator(AUDIO_FINAL_DECIMATION, num_taps=63)
    threshold = app.mute_threshold

    def audio_box(samples):
        value = final_decimator.process(samples)[0]
        if abs(value) < threshold:
            return 0.0
        return value

    def replace(name: str, function: Callable[..., Any], kernel) -> None:
        spec = registry.get(name)
        registry.register(
            name,
            function,
            wcet=spec.wcet,
            description=spec.description,
            get_state=kernel.get_state,
            set_state=kernel.set_state,
        )

    replace("Mix_A", lambda sample: mixer.process([sample])[0], mixer)
    replace("LPF_V", lambda sample: video_filter.process([sample])[0], video_filter)
    replace("LPF", lambda samples: audio_decimator.process(samples)[0], audio_decimator)
    replace("resamp", lambda samples: video_resampler.process(samples), video_resampler)
    replace("Audio", audio_box, final_decimator)
    return registry


class _CountingNumpy:
    """*numpy* with ``dot`` counted (every other attribute delegates)."""

    def __init__(self, numpy, counter: List[int]) -> None:
        self._numpy = numpy
        self._counter = counter

    def dot(self, *args, **kwargs):
        self._counter[0] += 1
        return self._numpy.dot(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._numpy, name)


@contextmanager
def count_dots() -> Iterator[List[int]]:
    """Count the ``np.dot`` calls :mod:`repro.dsp.filters` makes inside the
    block (every FIR dot product of :mod:`repro.dsp` is taken there).
    Yields a one-element list holding the running count."""
    counter = [0]
    saved = filters.np
    filters.np = _CountingNumpy(saved, counter)
    try:
        yield counter
    finally:
        filters.np = saved
