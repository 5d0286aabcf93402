"""Frequency mixing (down-conversion).

The PAL decoder's audio path first mixes the audio carrier to zero frequency
(module ``Mix_A`` in Fig. 11) before low-pass filtering and decimation.  The
streaming mixer below multiplies the input with a local oscillator whose phase
persists between calls, so block-wise operation equals sample-wise operation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, List, Sequence

import numpy as np


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

    def mix(self, sample: float) -> float:
        """Mix one sample and advance the oscillator by one position."""
        phase = 2.0 * math.pi * self.frequency * self._sample_index
        value = self.amplitude * float(sample) * math.cos(phase)
        self._sample_index = (self._sample_index + 1) % self.period
        return value

    def process(self, samples: Sequence[float]) -> List[float]:
        """Mix *samples* (a sequence or one scalar), one :meth:`mix` each."""
        if np.isscalar(samples):
            samples = [samples]  # type: ignore[list-item]
        return [self.mix(sample) for sample in samples]

    def __call__(self, samples: Sequence[float]) -> List[float]:
        return self.process(samples)


def tone(frequency: float, count: int, *, amplitude: float = 1.0, phase: float = 0.0) -> np.ndarray:
    """A cosine test tone at normalised *frequency* (cycles per sample)."""
    n = np.arange(count)
    return amplitude * np.cos(2.0 * math.pi * frequency * n + phase)


def band_power(signal: Sequence[float], low: float, high: float) -> float:
    """Fraction of the signal's power contained in the normalised frequency
    band [low, high] (cycles per sample, 0..0.5).  Used by the PAL tests to
    check that the audio/video bands end up where they should."""
    data = np.asarray(list(signal), dtype=float)
    if data.size == 0:
        return 0.0
    spectrum = np.abs(np.fft.rfft(data)) ** 2
    freqs = np.fft.rfftfreq(data.size)
    total = spectrum.sum()
    if total == 0:
        return 0.0
    mask = (freqs >= low) & (freqs <= high)
    return float(spectrum[mask].sum() / total)
