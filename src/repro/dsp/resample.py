"""Rational sample-rate conversion.

The PAL decoder changes sample rates by rational factors: the audio path is
decimated by 25 and then by 8, the video path is resampled by 10/16
(Sec. VI).  This module implements a streaming rational resampler based on
zero-stuffing, low-pass filtering and decimation (the textbook L/M
structure), with the anti-aliasing/anti-imaging filter shared between the
interpolation and decimation stages.

The streaming interface matches the OIL colon notation: each call consumes a
fixed block of input samples and produces a fixed block of output samples
(``resamp(si:16, out so:10)`` consumes 16 and produces 10 per call).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.dsp.filters import StreamingFIR, design_lowpass


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
