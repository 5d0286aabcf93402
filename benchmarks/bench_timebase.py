"""Integer-tick vs exact-fraction event-queue time base.

After the engine refactor (cached floors + ready-set dispatch) the per-firing
constant was dominated by ``Fraction`` comparisons inside the event-queue
heap.  The integer-tick time base removes them: the queue orders plain
``(int, int)`` pairs and converts back to exact rationals only at the public
surfaces.  This benchmark records what that is worth on the same
dispatch-bound 200-task ring as ``bench_engine_dispatch.py``, plus one
app-level row (the quickstart pipeline through ``repro.api``) where firing
bodies and buffer bookkeeping dilute the queue's share of the work, and one
row for PAL at utilisation 0.8 under ``FixedPriorityPreemptive`` on speeds
[2, 1]: a policy that migrates firings across speeds runs on the derived
grid too, and only the instants a rescaled remainder pushes between two
ticks are fractions.

Every run derives its time base, so the tick rows run as any caller would
and the fraction rows run inside the test suite's reference oracle
(``tests/timebase_oracle.py``), the same one the equivalence tests use.
Both modes run the engine's one dispatch loop and execute the identical
event sequence -- the equivalence tests (tests/test_timebase.py) assert
bit-identical traces -- so the ratio below is pure time-representation cost.
Each timed run starts from a fresh garbage collection: under
``BENCH_SMOKE=1`` a timed run lasts milliseconds, and a full collection of
what earlier benchmarks in the same process left on the heap would
otherwise land inside it.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
import time
from fractions import Fraction

from _reporting import print_table

from repro.api import Program
from repro.engine import ring_program, run_tasks
from repro.platform import FixedPriorityPreemptive, Platform
from repro.runtime.trace import TraceRecorder

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from timebase_oracle import fraction_time_base  # noqa: E402  (the one fraction switch)

#: BENCH_SMOKE=1 shrinks the workload and relaxes the floor so CI can run
#: the benchmark as a fast regression tripwire on noisy shared runners.
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

TASK_COUNT = 200
TOKENS = 8
STAGGER = 7
FIRINGS = 1000 if SMOKE else 4000
REPEATS = 1 if SMOKE else 3
APP_DURATION = Fraction(1, 10) if SMOKE else Fraction(1, 2)
MIGRATING_DURATION = Fraction(1, 8)

#: Acceptance floor: tick mode must beat fraction mode by at least this
#: factor on the dispatch-bound ring (the measured gain is well above it;
#: the floor only guards against the tick path silently regressing to --
#: or below -- fraction cost).
REQUIRED_TICK_SPEEDUP = 1.1 if SMOKE else 1.3

#: Floor for the speed-migrating PAL row (measured 1.4-2.3x on a shared
#: 2-vCPU x86 VM, one run or best of three): the derived grid must stay
#: faster than running the whole migrating run on fractions.
REQUIRED_MIGRATING_SPEEDUP = 1.1 if SMOKE else 1.3


def _representation(time_base: str):
    """The derived tick base, or the fraction oracle."""
    return fraction_time_base() if time_base == "fraction" else contextlib.nullcontext()


def _ring_events_per_second(time_base: str) -> float:
    """Best-of-N completed firings per wall-clock second on the ring."""
    best = 0.0
    for _ in range(REPEATS):
        tasks = ring_program(TASK_COUNT, tokens=TOKENS, stagger=STAGGER)
        gc.collect()
        started = time.perf_counter()
        with _representation(time_base):
            run = run_tasks(
                tasks,
                stop_after_firings=FIRINGS,
                trace=TraceRecorder(level="off"),
            )
        elapsed = time.perf_counter() - started
        assert run.engine.completed_firings >= FIRINGS
        assert (run.queue.timebase is None) == (time_base == "fraction")
        best = max(best, run.engine.completed_firings / elapsed)
    return best


def _app_events_per_second(time_base: str) -> float:
    """Completed firings per wall-clock second of the quickstart pipeline."""
    best = 0.0
    for _ in range(REPEATS):
        analysis = Program.from_app("quickstart").analyze()
        gc.collect()
        started = time.perf_counter()
        with _representation(time_base):
            run = analysis.run(APP_DURATION, trace="off")
        elapsed = time.perf_counter() - started
        assert run.time_base == time_base
        best = max(best, run.completed_firings / elapsed)
    return best


def _migrating_events_per_second() -> dict:
    """Best-of-N completed firings per wall-clock second of PAL
    (utilisation 0.8) under preemption across speeds [2, 1], per
    representation.  The two alternate, so a change in machine load hits
    both; the policy reads ``"fraction"`` on both, so the derived grid is
    checked directly."""
    best = {"fraction": 0.0, "ticks": 0.0}
    analysis = Program.from_app("pal_decoder", utilisation=0.8).analyze()
    for _ in range(REPEATS):
        for time_base in best:
            policy = FixedPriorityPreemptive(Platform.heterogeneous([2, 1]))
            gc.collect()
            started = time.perf_counter()
            with _representation(time_base):
                run = analysis.run(MIGRATING_DURATION, scheduler=policy, trace="off")
            elapsed = time.perf_counter() - started
            assert run.metrics()["preemptions"] > 0
            assert (run.simulation.time_base is None) == (time_base == "fraction")
            best[time_base] = max(best[time_base], run.completed_firings / elapsed)
    return best


def test_timebase_throughput():
    ring_fraction = _ring_events_per_second("fraction")
    ring_ticks = _ring_events_per_second("ticks")
    app_fraction = _app_events_per_second("fraction")
    app_ticks = _app_events_per_second("ticks")
    migrating = _migrating_events_per_second()
    migrating_fraction, migrating_ticks = migrating["fraction"], migrating["ticks"]
    migrating_speedup = migrating_ticks / migrating_fraction

    rows = [
        ["200-task ring, fraction queue", f"{ring_fraction:,.0f}", "1.0x"],
        ["200-task ring, tick queue", f"{ring_ticks:,.0f}", f"{ring_ticks / ring_fraction:.2f}x"],
        ["quickstart app, fraction queue", f"{app_fraction:,.0f}", "1.0x"],
        ["quickstart app, tick queue", f"{app_ticks:,.0f}", f"{app_ticks / app_fraction:.2f}x"],
        ["PAL u=0.8, migrating preemption, fraction queue", f"{migrating_fraction:,.0f}", "1.0x"],
        [
            "PAL u=0.8, migrating preemption, derived grid",
            f"{migrating_ticks:,.0f}",
            f"{migrating_speedup:.2f}x",
        ],
    ]
    print_table(
        f"Event-queue time base ({FIRINGS} ring firings, tracing off)",
        ["configuration", "events/s", "speedup"],
        rows,
    )

    assert ring_ticks / ring_fraction >= REQUIRED_TICK_SPEEDUP, (
        f"tick time base delivered only {ring_ticks / ring_fraction:.2f}x over the "
        f"fraction queue on the dispatch-bound ring (required {REQUIRED_TICK_SPEEDUP}x)"
    )
    assert migrating_speedup >= REQUIRED_MIGRATING_SPEEDUP, (
        f"the derived grid delivered only {migrating_speedup:.2f}x over the fraction "
        f"queue on PAL under speed-migrating preemption "
        f"(required {REQUIRED_MIGRATING_SPEEDUP}x)"
    )
