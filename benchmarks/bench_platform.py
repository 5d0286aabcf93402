"""Platform-layer throughput and the heterogeneous PAL speedup curve.

Two questions the platform subsystem must keep answering cheaply:

1. **What do platform decisions cost?**  On the 200-task synthetic ring
   (the dispatch-bound regime of ``bench_engine_dispatch``) we record
   events/s for ``BoundedProcessors`` (list scheduling on anonymous
   processors), ``ListScheduledPlatform`` on the same processors described
   as a ``Platform`` (the same policy and the same engine path, so the
   ratio reads about 1x) and the fully preemptive
   ``FixedPriorityPreemptive`` (suspend/resume with completion events
   cancelled and re-posted).  Every policy runs the engine's one dispatch
   loop.  The floors are deliberately relaxed -- they only trip when a
   policy degenerates pathologically, not on shared-runner jitter -- and
   each timed run starts from a fresh garbage collection, so a collection
   of what earlier benchmarks left on the heap does not land inside a
   run that lasts milliseconds under ``BENCH_SMOKE=1``.

2. **Does the heterogeneous axis reproduce a sane speedup curve?**  The PAL
   decoder is swept over ``1 fast + N slow`` platforms (the asymmetric
   MPSoC shape); per-processor utilisation and firing throughput are
   reported as the speedup table.  Sweeping platforms exercises the same
   facade path users take (``Sweep`` run axis -> ``Analysis.run(platform=)``).

BENCH_SMOKE=1 (the gating CI job) shrinks both workloads; the JSONL tables
land in ``$BENCH_REPORT_JSON`` via ``_reporting.print_table`` like every
other benchmark.
"""

from __future__ import annotations

import gc
import os
import time
from fractions import Fraction

from _reporting import print_table

from repro.api import Sweep
from repro.engine import BoundedProcessors, ring_program, run_tasks
from repro.platform import (
    FixedPriorityPreemptive,
    ListScheduledPlatform,
    Platform,
)
from repro.runtime.trace import TraceRecorder

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

TASK_COUNT = 200
TOKENS = 8
STAGGER = 7
PROCESSORS = 4  # fewer processors than tokens: contention, hence preemption
FIRINGS = 1000 if SMOKE else 4000
REPEATS = 1 if SMOKE else 3

#: Relaxed floors: the described platform and the preemptive policy must
#: stay within these factors of ``BoundedProcessors`` on the identical
#: ring.  Locally measured ratios sit far above both; the floors only catch
#: a pathological regression (e.g. per-event rebinding or accidental
#: O(tasks) resume scans).
REQUIRED_PLATFORM_FACTOR = 0.4 if SMOKE else 0.5
REQUIRED_PREEMPTIVE_FACTOR = 0.25 if SMOKE else 0.35

#: Heterogeneous PAL curve: 1 fast processor + N slow ones.
SLOW_COUNTS = (1, 2, 4) if SMOKE else (1, 2, 4, 8)
PAL_DURATION = Fraction(1, 10) if SMOKE else Fraction(1, 4)


def _events_per_second(policy_factory) -> float:
    """Best-of-N completed firings per wall-clock second on the ring."""
    best = 0.0
    for _ in range(REPEATS):
        tasks = ring_program(TASK_COUNT, tokens=TOKENS, stagger=STAGGER)
        policy = policy_factory()
        gc.collect()
        started = time.perf_counter()
        run = run_tasks(
            tasks,
            policy=policy,
            stop_after_firings=FIRINGS,
            trace=TraceRecorder(level="off"),
        )
        elapsed = time.perf_counter() - started
        assert run.engine.completed_firings >= FIRINGS
        best = max(best, run.engine.completed_firings / elapsed)
    return best


def test_platform_dispatch_throughput():
    bounded_rate = _events_per_second(lambda: BoundedProcessors(PROCESSORS))
    platform_rate = _events_per_second(
        lambda: ListScheduledPlatform(Platform.homogeneous(PROCESSORS))
    )
    preemptive_rate = _events_per_second(
        lambda: FixedPriorityPreemptive(Platform.homogeneous(PROCESSORS))
    )
    # sanity: the preemptive run must actually preempt on this workload
    probe = run_tasks(
        ring_program(TASK_COUNT, tokens=TOKENS, stagger=STAGGER),
        policy=FixedPriorityPreemptive(Platform.homogeneous(PROCESSORS)),
        stop_after_firings=FIRINGS // 2,
        trace=TraceRecorder(level="off"),
    )
    assert probe.engine.preemptions > 0

    rows = [
        ["BoundedProcessors (anonymous processors)", f"{bounded_rate:,.0f}", "1.00x"],
        [
            "ListScheduledPlatform (described platform)",
            f"{platform_rate:,.0f}",
            f"{platform_rate / bounded_rate:.2f}x",
        ],
        [
            "FixedPriorityPreemptive (suspend/resume)",
            f"{preemptive_rate:,.0f}",
            f"{preemptive_rate / bounded_rate:.2f}x",
        ],
    ]
    print_table(
        f"platform dispatch, {TASK_COUNT}-task ring on {PROCESSORS} processors "
        f"({FIRINGS} firings, preemptions={probe.engine.preemptions})",
        ("configuration", "events/sec", "vs bounded"),
        rows,
    )

    assert platform_rate >= REQUIRED_PLATFORM_FACTOR * bounded_rate, (
        f"described-platform list scheduling reached only "
        f"{platform_rate / bounded_rate:.2f}x of BoundedProcessors "
        f"(floor {REQUIRED_PLATFORM_FACTOR}x)"
    )
    assert preemptive_rate >= REQUIRED_PREEMPTIVE_FACTOR * bounded_rate, (
        f"preemptive scheduling reached only "
        f"{preemptive_rate / bounded_rate:.2f}x of BoundedProcessors "
        f"(floor {REQUIRED_PREEMPTIVE_FACTOR}x)"
    )


def test_pal_heterogeneous_speedup_curve():
    """1 fast (2x) + N slow (1x) processors on the PAL decoder grid."""
    platforms = [
        Platform.heterogeneous([2] + [1] * slow, name=f"1fast+{slow}slow")
        for slow in SLOW_COUNTS
    ]
    report = (
        Sweep("pal_decoder", duration=PAL_DURATION, name="pal-heterogeneous")
        .add_axis("platform", platforms)
        .run()
    )
    assert report.ok, [failure.error for failure in report.failures]

    rows = []
    for result in report:
        platform = result.params["platform"]
        utilisation = {
            key[len("util["):-1]: value
            for key, value in result.metrics.items()
            if key.startswith("util[")
        }
        rows.append(
            (
                platform.name,
                len(platform),
                result.metrics["completed_firings"],
                result.metrics["deadline_misses"],
                f"{result.metrics['makespan']:.4f}",
                f"{max(utilisation.values()):.2f}" if utilisation else "-",
            )
        )
    print_table(
        f"PAL decoder on 1 fast + N slow processors (duration {PAL_DURATION})",
        ("platform", "processors", "firings", "misses", "makespan", "max util"),
        rows,
    )
    # The speedup shape the axis exists for: adding slow processors must
    # never lose firings and must never *add* deadline misses (the buffer
    # sizing assumes unbounded hardware, so narrow platforms legitimately
    # miss; the curve has to decay towards the self-timed behaviour).
    firings = [result.metrics["completed_firings"] for result in report]
    assert firings == sorted(firings), "firings decreased while adding processors"
    misses = [result.metrics["deadline_misses"] for result in report]
    assert misses == sorted(misses, reverse=True), (
        f"deadline misses increased while adding processors: {misses}"
    )
    assert misses[-1] < misses[0], "the platform axis had no effect on misses"


if __name__ == "__main__":
    test_platform_dispatch_throughput()
    test_pal_heterogeneous_speedup_curve()
