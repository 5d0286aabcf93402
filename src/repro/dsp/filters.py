"""FIR filter design and streaming filtering.

The PAL decoder's rate converters and band splitters are built from low-pass
FIR filters (the ``LPF``, ``LPF_V`` and ``resamp`` functions the OIL program
coordinates).  This module provides:

* :func:`design_lowpass` -- windowed-sinc low-pass design (Hamming window),
* :class:`StreamingFIR` -- a stateful, side-effect-free-per-call filter that
  keeps its delay line between calls (state is allowed in OIL functions,
  side effects are not: the filter never touches anything outside its own
  state and produces identical outputs for identical input histories); it
  computes only the outputs its caller keeps, one ``np.dot`` each,
* :func:`block_convolve` -- helper used by tests to cross-check the streaming
  implementation against :func:`numpy.convolve`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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

    The delay line -- the last ``len(taps) - 1`` input samples, a float64
    array -- persists between calls, so consecutive calls on consecutive
    blocks produce the same output as filtering the concatenated signal.

    Every output is one ``np.dot`` of the full input window with the
    reversed taps, and only the outputs a caller keeps are computed (a
    decimating resampler asks for one position in ``down``).  The
    arithmetic is fixed: a batched matrix-vector product or a Python-level
    sum orders the additions differently and changes the low bits.
    """

    def __init__(self, taps: Sequence[float]) -> None:
        self.taps = np.asarray(list(taps), dtype=float)
        if self.taps.ndim != 1 or self.taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D sequence")
        self._width = self.taps.size
        # numpy copies a negative-stride operand (``taps[::-1]``) to a
        # contiguous array before its BLAS dot, so one copy made here
        # gives the same bits as reversing the taps on every call.
        self._reversed = np.ascontiguousarray(self.taps[::-1])
        self.reset()

    def reset(self) -> None:
        """Clear the delay line."""
        self._history = np.zeros(self._width - 1)

    def get_state(self) -> Tuple[float, ...]:
        """The delay line as a tuple of floats (raw input copies, so a
        periodic input makes the state exactly periodic)."""
        return tuple(self._history.tolist())

    def set_state(self, state) -> None:
        history = np.array(state, dtype=float)
        if history.shape != self._history.shape:
            raise ValueError(
                f"the delay line of a {self._width}-tap filter holds "
                f"{self._width - 1} samples, got shape {history.shape}"
            )
        self._history = history

    def process(self, samples: Sequence[float]) -> List[float]:
        """Filter *samples* (a sequence or one scalar) and return one output
        per input sample."""
        return self._outputs_at(np.asarray(samples, dtype=float).reshape(-1), 0, 1)

    def _outputs_at(self, block: np.ndarray, start: int, step: int) -> List[float]:
        """Advance the delay line by the whole *block*, but compute only the
        outputs at block positions ``start, start + step, ...``."""
        count = block.size
        if not count:
            return []
        width = self._width
        taps = self._reversed
        # Output y[n] = sum_k taps[k] * x[n - k], the window ending at x[n].
        signal = np.concatenate((self._history, block))
        outputs = [
            float(np.dot(signal[index : index + width], taps))
            for index in range(start, count, step)
        ]
        self._history = signal[count:]
        return outputs

    def __call__(self, samples: Sequence[float]) -> List[float]:
        return self.process(samples)


def block_convolve(taps: Sequence[float], signal: Sequence[float]) -> np.ndarray:
    """Reference convolution (causal, same length as the input signal)."""
    taps = np.asarray(list(taps), dtype=float)
    signal = np.asarray(list(signal), dtype=float)
    full = np.convolve(signal, taps)
    return full[: signal.size]
