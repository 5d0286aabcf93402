"""Per-call cost of the PAL decoder's DSP functions against the seed kernels.

The seed's decimators and 10/16 resampler filtered every position of the
zero-stuffed stream and kept one in ``down``; its single-sample filter
round-tripped the delay line through a Python list.  :mod:`repro.dsp` now
computes only the outputs a caller keeps, on float64 delay lines, with the
same ``np.dot`` over the same window for each of them.  This benchmark
records what that is worth per registry function.

Workload: every call of the five DSP functions (``Mix_A``, ``LPF_V``,
``LPF``, ``resamp``, ``Audio``) over 1 simulated second of the naive PAL
decoder, recorded once and replayed, function by function, through a fresh
PAL registry and a fresh seed registry (``tests/dsp_oracle.py``).  The
fastest of the repeats is reported in microseconds per call.  That the
replays agree bit for bit, and that the kernels take one dot product per
kept output, is held by ``tests/test_dsp.py``.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from fractions import Fraction

from _reporting import print_table

from repro.apps.pal_decoder import PalDecoderApp
from repro.runtime.functions import FunctionRegistry

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
import dsp_oracle  # noqa: E402  (the one copy of the seed kernels)

#: BENCH_SMOKE=1 takes fewer repeats and relaxes the floor so CI can run
#: the benchmark as a fast regression tripwire on noisy shared runners.
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

DSP_FUNCTIONS = ("Mix_A", "LPF_V", "LPF", "resamp", "Audio")
DURATION = Fraction(1)
REPEATS = 3 if SMOKE else 7

#: Acceptance floor: the kernels must replay the recorded calls at least
#: this factor faster than the seed kernels (locally measured: 5-6x).
REQUIRED_SPEEDUP = 1.5 if SMOKE else 2.0


def _recorded_calls(app: PalDecoderApp) -> dict:
    """Each DSP function's argument tuples, in call order, over DURATION
    of a naive run (recorded by a wrapper around ``FunctionRegistry.call``)."""
    calls = defaultdict(list)
    original = FunctionRegistry.call

    def record(self, name, *args):
        if name in DSP_FUNCTIONS:
            calls[name].append(tuple(list(arg) if isinstance(arg, list) else arg for arg in args))
        return original(self, name, *args)

    FunctionRegistry.call = record
    try:
        app.program().analyze().run(DURATION, fast_forward=False, trace="off")
    finally:
        FunctionRegistry.call = original
    return calls


def _replay(registry: FunctionRegistry, calls: dict) -> dict:
    """Per function: the seconds it takes to replay its calls."""
    seconds = {}
    for name in DSP_FUNCTIONS:
        function = registry.get(name).callable
        began = time.perf_counter()
        for args in calls[name]:
            function(*args)
        seconds[name] = time.perf_counter() - began
    return seconds


def test_dsp_kernels_against_the_seed():
    app = PalDecoderApp()
    calls = _recorded_calls(app)

    best = {name: [float("inf"), float("inf")] for name in DSP_FUNCTIONS}
    for _ in range(REPEATS):
        for column, registry in enumerate((dsp_oracle.seed_registry(app), app.registry())):
            for name, seconds in _replay(registry, calls).items():
                best[name][column] = min(best[name][column], seconds)

    rows = []
    for name in DSP_FUNCTIONS:
        seed_s, kernel_s = best[name]
        count = len(calls[name])
        rows.append([
            name, f"{count:,}", f"{seed_s / count * 1e6:.2f}", f"{kernel_s / count * 1e6:.2f}",
            f"{seed_s / kernel_s:.1f}x",
        ])
    seed_total = sum(seed_s for seed_s, _ in best.values())
    kernel_total = sum(kernel_s for _, kernel_s in best.values())
    speedup = seed_total / kernel_total
    rows.append(["all", f"{sum(len(c) for c in calls.values()):,}",
                 f"{seed_total * 1e3:.1f} ms", f"{kernel_total * 1e3:.1f} ms", f"{speedup:.1f}x"])
    print_table(
        f"PAL DSP functions over {DURATION} s of naive PAL, best of {REPEATS}",
        ["function", "calls", "seed us/call", "kernels us/call", "speedup"],
        rows,
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"the kernels replayed only {speedup:.1f}x faster than the seed kernels "
        f"(required {REQUIRED_SPEEDUP}x)"
    )
