"""Dispatch throughput of the execution engine on a 200-task program.

The seed simulator dispatched by brute force: every buffer change triggered a
rescan of the whole task fleet (repeated to a fixpoint), and every
eligibility check recomputed ``min()`` over all buffer windows.  The engine
replaced both -- window floors kept current plus dependency-indexed ready-set
dispatch -- and this microbenchmark records what that is worth on a
dispatch-bound workload, so later changes can track engine throughput.

Workload: a 200-task ring with 8 circulating tokens and staggered response
times, i.e. (almost) every firing triggers its own dispatch round while ~192
tasks are ineligible at any instant -- the regime where per-event dispatch
cost dominates.  Tracing is off (the engine's configurable trace levels exist
for exactly this).  Three configurations are measured:

1. the seed-faithful reference: polling dispatch over buffers that recompute
   their window aggregates on every check,
2. polling dispatch over buffers whose floors are kept current (isolates
   the floor gain),
3. the engine: indexed ready-set dispatch over windows bound at
   ``wire_buffers`` time (the one dispatch loop every policy runs; the
   default self-timed policy starts its firings unasked).

Both polling rows run the test suite's reference oracle
(``tests/dispatch_oracle.py``), the same rescan the equivalence tests
(tests/test_engine.py) hold the engine to bit for bit -- here only
throughput differs.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time

from _reporting import print_table

from repro.engine import ring_program, run_tasks
from repro.graph.circular_buffer import CircularBuffer
from repro.runtime.trace import TraceRecorder

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from dispatch_oracle import polling_dispatch  # noqa: E402  (the one polling copy)

#: BENCH_SMOKE=1 shrinks the workload and relaxes the floor so CI can run
#: the benchmark as a fast regression tripwire on noisy shared runners.
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

TASK_COUNT = 200
TOKENS = 8
STAGGER = 7
FIRINGS = 1000 if SMOKE else 4000
REPEATS = 1 if SMOKE else 3

#: Acceptance floor: the engine must deliver at least this factor
#: over the seed-equivalent execution layer on the 200-task program.
REQUIRED_SPEEDUP = 2.0 if SMOKE else 5.0


def _floor_windows(windows):
    return [w for w in windows.values() if w.active] or list(windows.values())


class SeedReferenceBuffer(CircularBuffer):
    """Seed-faithful window aggregates: recompute the producer/consumer
    released floors on every eligibility check, as the pre-engine
    ``can_produce`` / ``can_consume`` / ``tokens_available`` did, instead of
    reading the floors the buffer keeps current.

    The floors are properties here, so every read -- ``RuntimeTask.can_fire``
    reads them as attributes -- recomputes a ``min()`` over the windows.
    The buffer's own floor updates are discarded; a recomputed floor never
    reads as changed, so watchers never run, which the polling rescan this
    row runs under does not need (every completion schedules the next
    rescan)."""

    @property
    def produced_floor(self):
        if not self._producers:
            return self._initial
        return min(w.released for w in _floor_windows(self._producers))

    @produced_floor.setter
    def produced_floor(self, value):
        pass

    @property
    def freed(self):
        if not self._consumers:
            return 0
        return min(w.released for w in _floor_windows(self._consumers))

    @freed.setter
    def freed(self, value):
        pass


def _events_per_second(buffer_factory, *, polling: bool = False) -> float:
    """Best-of-N completed firings per wall-clock second."""
    best = 0.0
    for _ in range(REPEATS):
        tasks = ring_program(
            TASK_COUNT, tokens=TOKENS, stagger=STAGGER, buffer_factory=buffer_factory
        )
        with polling_dispatch() if polling else contextlib.nullcontext():
            started = time.perf_counter()
            run = run_tasks(
                tasks, stop_after_firings=FIRINGS, trace=TraceRecorder(level="off")
            )
            elapsed = time.perf_counter() - started
        assert run.engine.completed_firings >= FIRINGS
        best = max(best, run.engine.completed_firings / elapsed)
    return best


def test_engine_dispatch_throughput():
    seed_rate = _events_per_second(SeedReferenceBuffer, polling=True)
    polling_rate = _events_per_second(CircularBuffer, polling=True)
    engine_rate = _events_per_second(CircularBuffer)

    rows = [
        ["polling + uncached windows (seed)", f"{seed_rate:,.0f}", "1.0x"],
        ["polling + current floors", f"{polling_rate:,.0f}", f"{polling_rate / seed_rate:.1f}x"],
        ["engine (ready set + bound windows)", f"{engine_rate:,.0f}", f"{engine_rate / seed_rate:.1f}x"],
    ]
    print_table(
        f"Engine dispatch throughput ({TASK_COUNT}-task ring, {FIRINGS} firings, tracing off)",
        ["configuration", "events/s", "speedup"],
        rows,
    )

    assert engine_rate >= polling_rate, "indexed dispatch slower than whole-fleet polling"
    assert engine_rate / seed_rate >= REQUIRED_SPEEDUP, (
        f"engine delivered only {engine_rate / seed_rate:.1f}x over the "
        f"seed-equivalent dispatcher (required {REQUIRED_SPEEDUP}x)"
    )
