"""FIR filter design and streaming filtering.

The PAL decoder's rate converters and band splitters are built from low-pass
FIR filters (the ``LPF``, ``LPF_V`` and ``resamp`` functions the OIL program
coordinates).  This module provides:

* :func:`design_lowpass` -- windowed-sinc low-pass design (Hamming window),
* :class:`StreamingFIR` -- a stateful, side-effect-free-per-call filter that
  keeps its delay line between calls (state is allowed in OIL functions,
  side effects are not: the filter never touches anything outside its own
  state and produces identical outputs for identical input histories),
* :func:`block_convolve` -- helper used by tests to cross-check the streaming
  implementation against :func:`numpy.convolve`.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np


def design_lowpass(cutoff: float, num_taps: int = 63) -> np.ndarray:
    """Design a linear-phase low-pass FIR filter.

    Parameters
    ----------
    cutoff:
        Normalised cutoff frequency (fraction of the sampling rate, 0 < cutoff
        < 0.5).
    num_taps:
        Number of taps (odd numbers give a symmetric, type-I filter).

    Returns
    -------
    numpy.ndarray
        The filter coefficients, normalised to unit DC gain.
    """
    if not 0 < cutoff < 0.5:
        raise ValueError(f"cutoff must be in (0, 0.5), got {cutoff}")
    if num_taps < 1:
        raise ValueError("num_taps must be positive")
    n = np.arange(num_taps)
    middle = (num_taps - 1) / 2.0
    # Windowed sinc.
    argument = 2.0 * cutoff * (n - middle)
    taps = 2.0 * cutoff * np.sinc(argument)
    window = np.hamming(num_taps)
    taps = taps * window
    total = taps.sum()
    if total != 0:
        taps = taps / total
    return taps


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


def block_convolve(taps: Sequence[float], signal: Sequence[float]) -> np.ndarray:
    """Reference convolution (causal, same length as the input signal)."""
    taps = np.asarray(list(taps), dtype=float)
    signal = np.asarray(list(signal), dtype=float)
    full = np.convolve(signal, taps)
    return full[: signal.size]
