"""Steady-state fast-forward on the PAL decoder: 1e6 -> 1e9 event horizons.

The naive engine steps every event; at the PAL decoder's ~48k events per
simulated second that caps any study of long-horizon behaviour (jitter
accumulation, counter wraparound, retention policies) at minutes of wall
clock per simulated minute.  The steady-state detector removes the cap: once
the execution state recurs, the remaining horizon is covered by one O(1)
jump that rigidly shifts the pending events and replays the per-period
counter deltas.  Wall clock becomes a function of the *transient* length,
not the horizon.

Every fast-forwarded row runs the default ``fast_forward="auto"``: the PAL
decoder qualifies for value-exact jumps, because its RF stimulus is one
declared period of the composite signal and every filter/mixer/resampler
exposes ``get_state``.  This benchmark pins down the claim on the PAL
decoder application:

1. Exactness -- at a common horizon the fast-forwarded run's aggregate
   metrics equal the naive run's exactly (dict equality, no tolerances).
2. Speed -- the ~1e9-event fast-forwarded run must complete within a small
   multiple of the ~1e6-event naive run's wall clock.  The floor is loose
   (the measured gap is large) so noisy CI runners cannot trip it
   spuriously.
3. Value-exactness -- at a short common horizon the jumped run's *sink
   sample values* are bit-identical to the naive run's (list equality, no
   tolerances).
4. Sampling overhead -- until the first recurrence the detector samples
   its state key once per endpoint hyperperiod (1/32 s on the PAL
   decoder), at the first anchor completion at or after each grid
   instant.  A horizon inside the transient (no jump) measures that pure
   sampling phase; its wall clock must stay within a small multiple of
   naive, and the number of stored states must not exceed one per grid
   step -- a deterministic count that catches a detector sampling every
   anchor completion again (12,289 states over 2 s instead of 62).

``BENCH_SMOKE=1`` shrinks the naive reference horizon (the only part whose
cost scales with events) and relaxes the wall-clock floors.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

from _reporting import print_table

from repro.api import Program

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Naive reference horizon in simulated seconds (~48k events each).  The
#: smoke value must still lie past the value transient (the PAL decoder
#: first recurs past ~3 simulated seconds), or the reference row cannot
#: jump.
NAIVE_SECONDS = 4 if SMOKE else 20
#: Fast-forward horizons: the naive reference point plus two long horizons
#: reaching ~1e8 and ~1e9 events (fast-forward cost is horizon-independent,
#: so these do not shrink under BENCH_SMOKE).
FF_SECONDS = (NAIVE_SECONDS, 2000, 20000)
#: The long-horizon fast-forwarded run must finish within this multiple of
#: the naive reference run's wall clock.
MAX_WALL_RATIO = 10.0 if SMOKE else 5.0
#: Streaming-counter retention keeps the trace memory-bounded at any horizon.
RETENTION = 4096
#: Shortest horizon the value-exact detector jumps at (transient plus two
#: value periods of the composite RF stimulus); sink values are compared at
#: this horizon with unbounded retention, so it does not shrink under smoke.
VALUE_SECONDS = 4
#: Sampling-overhead horizon: strictly inside the value-exact transient
#: (the PAL decoder first recurs past ~3 simulated seconds), so the auto
#: run samples once per grid step (1/32 s) and never jumps -- a pure
#: measurement of the sampling phase.
SAMPLING_SECONDS = 2
#: Sampling grid steps per simulated second on the PAL decoder: the lcm of
#: its endpoint periods is 1/32 s.
GRID_PER_SECOND = 32
#: The sampling-phase run must stay within this multiple of the naive
#: run's wall clock (grid sampling measures ~1.05x).  Relaxed under smoke
#: for noisy runners.
MAX_SAMPLING_RATIO = 3.0 if SMOKE else 2.0


def _run(seconds, fast_forward):
    started = time.perf_counter()
    result = (
        Program.from_app("pal_decoder")
        .analyze()
        .run(
            Fraction(seconds),
            trace="endpoints",
            fast_forward=fast_forward,
            trace_retention=RETENTION,
        )
    )
    return result, time.perf_counter() - started


def _run_for_values(seconds, fast_forward):
    # Unbounded retention: the sinks keep every consumed sample, which is
    # what the bit-identity comparison needs.
    started = time.perf_counter()
    result = (
        Program.from_app("pal_decoder")
        .analyze()
        .run(Fraction(seconds), trace="off", fast_forward=fast_forward)
    )
    return result, time.perf_counter() - started


def test_fastforward_pal_decoder():
    naive, naive_wall = _run(NAIVE_SECONDS, fast_forward=False)
    assert not naive.fast_forwarded

    ff_runs = [_run(seconds, fast_forward="auto") for seconds in FF_SECONDS]

    rows = []
    for label, result, wall in (
        [("naive", naive, naive_wall)]
        + [("fast-forward", result, wall) for result, wall in ff_runs]
    ):
        queue = result.simulation.queue
        steady = result.simulation.engine.steady_state
        rows.append(
            [
                label,
                f"{float(result.duration):g}",
                f"{queue.processed:,}",
                0 if steady is None else steady.jumps,
                0 if steady is None else f"{steady.skipped_events:,}",
                f"{wall:.2f}",
                f"{queue.processed / wall:,.0f}",
            ]
        )
    print_table(
        "PAL decoder: naive vs steady-state fast-forward",
        ["config", "sim s", "events", "jumps", "skipped", "wall s", "events/s"],
        rows,
    )

    # Exactness at the common horizon: aggregate metrics are *equal*, not
    # approximately equal.  (fast_forwarded is the one metric that is
    # supposed to differ.)
    ff_ref, _ = ff_runs[0]
    assert ff_ref.fast_forwarded, "detector never jumped at the reference horizon"
    metrics_naive = naive.metrics()
    metrics_ff = ff_ref.metrics()
    assert metrics_naive.pop("fast_forwarded") is False
    assert metrics_ff.pop("fast_forwarded") is True
    assert metrics_naive == metrics_ff, "fast-forward changed aggregate metrics"

    # Every long horizon is covered by jumps, and the event count scales
    # with the horizon even though the wall clock does not: the longest run
    # covers on the order of 1e9 events.
    previous_processed = naive.simulation.queue.processed
    for result, _wall in ff_runs[1:]:
        assert result.fast_forwarded
        processed = result.simulation.queue.processed
        assert processed > 5 * previous_processed
        previous_processed = processed
    assert previous_processed >= 5 * 10**8

    # The ~1e9-event run must sit within MAX_WALL_RATIO of the ~1e6-event
    # naive run.
    _, longest_wall = ff_runs[-1]
    assert longest_wall <= MAX_WALL_RATIO * naive_wall, (
        f"fast-forwarded long-horizon run took {longest_wall:.2f}s against a "
        f"{naive_wall:.2f}s naive reference (allowed {MAX_WALL_RATIO}x)"
    )

    # The 2000 s row covers a >= 1e6-event horizon at fast-forward speed.
    auto_run, auto_wall = ff_runs[1]
    assert auto_run.simulation.engine.steady_state is not None
    assert auto_run.fast_forwarded
    assert auto_run.simulation.queue.processed >= 10**6
    assert auto_wall <= MAX_WALL_RATIO * naive_wall

    # Value-exactness: at a short horizon spanning a jump, the sink sample
    # values of the auto run are bit-identical to the naive run's.
    naive_values, _ = _run_for_values(VALUE_SECONDS, fast_forward=False)
    auto_values, _ = _run_for_values(VALUE_SECONDS, fast_forward="auto")
    steady = auto_values.simulation.engine.steady_state
    assert auto_values.fast_forwarded and steady.jumps >= 1
    for name in naive_values.simulation.sinks:
        naive_sink = naive_values.simulation.sinks[name].consumed
        auto_sink = auto_values.simulation.sinks[name].consumed
        assert naive_sink == auto_sink, (
            f"sink {name!r}: fast_forward='auto' changed sample values"
        )


def test_sampling_overhead_pal_decoder():
    # Pure sampling phase: a horizon inside the transient, so the auto run
    # samples its state key once per grid step and never jumps.
    naive, naive_wall = _run(SAMPLING_SECONDS, fast_forward=False)
    auto, auto_wall = _run(SAMPLING_SECONDS, fast_forward="auto")
    steady = auto.simulation.engine.steady_state
    assert steady is not None
    assert steady.jumps == 0, "horizon not inside the transient"
    sampled = len(steady._seen)
    assert sampled > 0, "detector never sampled"

    ratio = auto_wall / naive_wall
    print_table(
        "PAL decoder: value-exact sampling overhead (no jump)",
        ["config", "sim s", "states sampled", "wall s", "ratio vs naive"],
        [
            ["naive", f"{SAMPLING_SECONDS:g}", 0, f"{naive_wall:.2f}", "1.00"],
            [
                "auto (sampling)",
                f"{SAMPLING_SECONDS:g}",
                f"{sampled:,}",
                f"{auto_wall:.2f}",
                f"{ratio:.2f}",
            ],
        ],
    )
    # Deterministic tripwire: at most one stored state per grid step.
    assert sampled <= SAMPLING_SECONDS * GRID_PER_SECOND + 1, (
        f"{sampled:,} states sampled over {SAMPLING_SECONDS} s: the detector "
        f"samples more often than once per 1/{GRID_PER_SECOND} s grid step"
    )
    assert ratio <= MAX_SAMPLING_RATIO, (
        f"sampling phase cost {ratio:.2f}x naive "
        f"(allowed {MAX_SAMPLING_RATIO}x): the once-per-grid-step state key "
        f"has regressed"
    )
