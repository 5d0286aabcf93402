"""Rational sample-rate conversion.

The PAL decoder changes sample rates by rational factors: the audio path is
decimated by 25 and then by 8, the video path is resampled by 10/16
(Sec. VI).  This module implements a streaming rational resampler based on
zero-stuffing, low-pass filtering and decimation (the textbook L/M
structure), with the anti-aliasing/anti-imaging filter shared between the
interpolation and decimation stages.  The filter computes only the samples
decimation keeps.

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
    resampler keeps the decimation phase between calls so that concatenated
    calls are equivalent to one large call.  For block-oriented use (the OIL
    decoder), pass ``down`` samples per call to obtain exactly ``up`` output
    samples per call (after the start-up transient of the filter).

    The filter is asked only for the outputs decimation keeps (one in
    ``down``), each over its full window of the zero-stuffed stream: the
    stuffed zeros stay in every dot product, because dropping them (a
    polyphase split) would reorder the sum.
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

    def reset(self) -> None:
        self._filter.reset()
        self._phase = 0

    def get_state(self):
        """Filter delay line + decimation phase as a serialisable tuple."""
        return (self._filter.get_state(), self._phase)

    def set_state(self, state) -> None:
        history, phase = state
        phase = int(phase)
        if not 0 <= phase < self.down:
            raise ValueError(
                f"the decimation phase must satisfy 0 <= phase < {self.down}, got {phase}"
            )
        self._filter.set_state(history)
        self._phase = phase

    def process(self, samples: Sequence[float]) -> List[float]:
        """Resample *samples*; returns the newly available output samples."""
        block = np.asarray(samples, dtype=float).reshape(-1)
        up, down = self.up, self.down
        if up > 1:
            # Zero-stuff by the interpolation factor.
            stuffed = np.zeros(block.size * up)
            stuffed[::up] = block
            block = stuffed
        # Keep every down-th position of the upsampled stream, honouring the
        # phase left over from the previous call.
        outputs = self._filter._outputs_at(block, (down - self._phase) % down, down)
        self._phase = (self._phase + block.size) % down
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
