"""What recording a trace costs: the naive PAL decoder at each trace level.

The :class:`~repro.runtime.trace.TraceRecorder` stores timestamps in the
event queue's native units (integer ticks here) as plain tuples and builds
exact rationals only when a caller reads them; each circular buffer keeps
its own occupancy high-water mark in O(1) per produce.  So ``"full"`` --
the default of ``Analysis.run`` and of every sweep point -- should cost
little more than ``"off"``.  When every record converted its timestamps to
``Fraction`` seconds and every completion rescanned its written buffers'
windows, ``"full"`` took about 1.77x the ``"off"`` run.

Workload: ``Program.from_app("pal_decoder").analyze().run(DURATION,
fast_forward=False, trace=level)``, the three levels alternated in each
repeat; the fastest repeat per level is reported.  That the levels record
the same run, and that a run converts once, is held by
``tests/test_trace.py``.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

from _reporting import print_table

from repro.api import Program
from repro.runtime.trace import TRACE_LEVELS

#: BENCH_SMOKE=1 shrinks the workload and relaxes the bound so CI can run
#: the benchmark as a fast regression tripwire on noisy shared runners.
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

DURATION = Fraction(1, 4) if SMOKE else Fraction(1)
REPEATS = 3 if SMOKE else 5

#: Acceptance bound: a ``"full"`` run may take at most this factor of the
#: ``"off"`` run (locally measured: 1.0-1.1x).
MAX_FULL_OVER_OFF = 1.5 if SMOKE else 1.35


def test_trace_levels_cost():
    analysis = Program.from_app("pal_decoder").analyze()
    best = {level: float("inf") for level in TRACE_LEVELS}
    for _ in range(REPEATS):
        for level in TRACE_LEVELS:
            began = time.perf_counter()
            analysis.run(DURATION, fast_forward=False, trace=level)
            best[level] = min(best[level], time.perf_counter() - began)

    off = best["off"]
    print_table(
        f"naive PAL over {DURATION} s per trace level, best of {REPEATS}",
        ["level", "seconds", "x off"],
        [[level, f"{best[level]:.3f}", f"{best[level] / off:.2f}x"] for level in TRACE_LEVELS],
    )
    ratio = best["full"] / off
    assert ratio <= MAX_FULL_OVER_OFF, (
        f'trace="full" took {ratio:.2f}x the "off" run (bound {MAX_FULL_OVER_OFF}x)'
    )
