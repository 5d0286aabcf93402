"""The four workloads of the end-to-end benchmark.

Each workload is one *operation* that a user of the library performs
afresh -- build a new :class:`~repro.api.Program`, analyse it, run it --
timed from the outside at its phase boundaries.  Every operation also
returns a fingerprint of its deterministic outputs (event and firing
counts, sink counts, sha256 of the retained sink values, buffer capacities)
and the problems it found (deadline misses, occupancy above an analysed
capacity, warnings, a missing fast-forward jump, a warm sweep that
executed anything).  The fingerprint is computed after the timed region.

The benchmark seed reaches the programs only as generated inputs: the PAL
RF noise (``PALSignalConfig(seed=...)``), and for the decimation chains the
assignment of per-stage utilisations and the stimulus values.  The
utilisations are a seeded permutation of a fixed multiset, so every seed
asks the buffer-sizing analysis for the same amount of work.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.api import Program, Sweep
from repro.baselines.comparison import decimation_pipeline_source
from repro.dsp.pal import PALSignalConfig
from repro.engine import BoundedProcessors
from repro.platform import FixedPriorityPreemptive, ListScheduledPlatform, Platform
from repro.runtime.functions import FunctionRegistry
from repro.runtime.sources import PeriodicStimulus
from repro.service.store import ResultStore

#: where operations that need a directory (the sweep's result store) work
WORK_DIR = Path(__file__).resolve().parent / "out"

clock = time.perf_counter


@dataclass
class OpResult:
    """Timings, outputs and problems of one operation."""

    setup_s: float
    run_s: float
    e2e_s: float
    firings: int
    #: deterministic fingerprint, compared across repeats (JSON-native)
    outputs: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    #: per-layer counts only the operation can see (sweep points)
    counts: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: Callable[[int, Mapping[str, Any]], OpResult]
    full: Mapping[str, Any]
    smoke: Mapping[str, Any]
    #: run as the untimed warm-up instead of ``op``; its outputs must
    #: equal the repeats'
    cross_check: Optional[Callable[[int, Mapping[str, Any]], OpResult]] = None


def _sha256(value: Any) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _analysed(program: Program):
    """``program.analyze()`` with every lazy analysis forced (setup cost)."""
    analysis = program.analyze()
    analysis.consistency, analysis.sizing, analysis.latency
    return analysis


def _run_outputs(analysis, result) -> Dict[str, Any]:
    sinks = sorted(result.sink_counts)
    return {
        "events": result.simulation.queue.processed,
        "firings": result.completed_firings,
        "sinks": {name: result.sink_counts[name] for name in sinks},
        "sink_sha256": _sha256([result.sink(name) for name in sinks]),
        "capacity_total": analysis.total_capacity,
        "capacities_sha256": _sha256(sorted(analysis.capacities.items())),
    }


def _run_problems(label: str, result) -> List[str]:
    problems = []
    if result.deadline_misses:
        problems.append(f"{label}: {result.deadline_misses} deadline misses")
    problems += [f"{label}: {violation}" for violation in result.occupancy_violations()]
    problems += [f"{label}: warning {warning}" for warning in result.warnings]
    return problems


# --------------------------------------------------------------------------
# pal-naive / pal-auto: the Sec. VI PAL decoder, build -> analyse -> run
# --------------------------------------------------------------------------

def _pal_op(seed: int, horizon: Fraction, *, fast_forward, retention: Optional[int],
            must_jump: bool) -> OpResult:
    began = clock()
    analysis = _analysed(Program.from_app("pal_decoder", signal=PALSignalConfig(seed=seed)))
    analysed = clock()
    result = analysis.run(
        horizon, fast_forward=fast_forward, trace="endpoints", trace_retention=retention
    )
    ended = clock()
    problems = _run_problems("pal_decoder", result)
    if must_jump and not result.fast_forwarded:
        problems.append("pal_decoder: fast-forward did not jump")
    return OpResult(
        setup_s=analysed - began,
        run_s=ended - analysed,
        e2e_s=ended - began,
        firings=result.completed_firings,
        outputs=_run_outputs(analysis, result),
        problems=problems,
    )


def pal_naive(seed: int, size: Mapping[str, Any]) -> OpResult:
    return _pal_op(seed, size["horizon"], fast_forward=False, retention=4096, must_jump=False)


def pal_naive_cross_check(seed: int, size: Mapping[str, Any]) -> OpResult:
    """The same horizon under value-exact ``fast_forward="auto"``.

    With unbounded retention the jump replays the sink values, so every
    output -- the retained sink values included -- must equal the naive
    run's (the value-exact contract)."""
    return _pal_op(seed, size["horizon"], fast_forward="auto", retention=None,
                   must_jump=size["jumps"])


def pal_auto(seed: int, size: Mapping[str, Any]) -> OpResult:
    return _pal_op(seed, size["horizon"], fast_forward="auto", retention=4096,
                   must_jump=size["jumps"])


# --------------------------------------------------------------------------
# analysis: nine programs built, analysed, checked and run briefly
# --------------------------------------------------------------------------

PACKAGED_APPS = ("quickstart", "pal_decoder", "rate_converter", "modal_mute", "modal_two_mode")
#: (stages, decimation rate) of the seeded decimation chains
CHAIN_SHAPES = ((10, 2), (12, 2), (7, 3), (6, 4))
#: utilisation multiset of a chain's stages, permuted by the seed
CHAIN_UTILISATIONS = (Fraction(6, 20), Fraction(7, 20), Fraction(8, 20))


def _mean(window: List[float]) -> float:
    return sum(window) / len(window)


def chain_source_hz(stages: int, rate: int) -> int:
    """Source rate of a chain: its sink then runs at 4 Hz."""
    return 4 * rate ** stages


def decimation_chain(stages: int, rate: int, rng: random.Random) -> Program:
    """A seeded decimate-by-*rate* chain: per-stage utilisations drawn from
    :data:`CHAIN_UTILISATIONS` by a seeded shuffle, and a 64-value seeded
    periodic stimulus."""
    base_hz = chain_source_hz(stages, rate)
    utilisations = [CHAIN_UTILISATIONS[stage % len(CHAIN_UTILISATIONS)] for stage in range(stages)]
    rng.shuffle(utilisations)
    registry = FunctionRegistry()
    wcets = {}
    for stage, utilisation in enumerate(utilisations):
        wcets[f"dec{stage}"] = Fraction(rate ** (stage + 1), base_hz) * utilisation
        registry.register(f"dec{stage}", _mean, stateless=True)
    values = [rng.uniform(-1.0, 1.0) for _ in range(64)]
    return Program.from_source(
        decimation_pipeline_source(stages, rate=rate, base_hz=base_hz),
        name=f"chain{stages}x{rate}",
        function_wcets=wcets,
        registry=registry,
        signals={"input": PeriodicStimulus(values)},
    )


def analysis_op(seed: int, size: Mapping[str, Any]) -> OpResult:
    rng = random.Random(seed)
    programs: List[tuple] = []  # (name, program factory, simulated duration)
    for app in size["apps"]:
        params = {"signal": PALSignalConfig(seed=seed)} if app == "pal_decoder" else {}
        build = lambda app=app, params=params: Program.from_app(app, **params)
        programs.append((app, build, size["app_duration"]))
    for stages, rate in size["chains"]:
        build = lambda stages=stages, rate=rate: decimation_chain(stages, rate, rng)
        duration = Fraction(size["chain_periods"], chain_source_hz(stages, rate))
        programs.append((f"chain{stages}x{rate}", build, duration))

    setup_s = run_s = 0.0
    firings = 0
    outputs: Dict[str, Any] = {}
    problems: List[str] = []
    began = clock()
    for name, build, duration in programs:
        started = clock()
        analysis = _analysed(build())
        analysed = clock()
        report = analysis.check()
        checked = clock()
        result = analysis.run(duration, trace="full")
        ended = clock()
        setup_s += analysed - started
        run_s += ended - checked
        firings += result.completed_firings
        outputs[name] = {
            **_run_outputs(analysis, result),
            "rules": sorted(violation.rule_id for violation in report.violations),
        }
        if not (analysis.consistent and analysis.latency_ok and report.ok):
            problems.append(
                f"{name}: consistent={analysis.consistent} latency_ok={analysis.latency_ok} "
                f"check_ok={report.ok}"
            )
        problems += _run_problems(name, result)
    return OpResult(
        setup_s=setup_s,
        run_s=run_s,
        e2e_s=clock() - began,
        firings=firings,
        outputs=outputs,
        problems=problems,
    )


# --------------------------------------------------------------------------
# pal-sweep: serial scheduler sweeps written to, then re-read from, a store
# --------------------------------------------------------------------------

def sweep_schedulers() -> list:
    """Compiled kernel with a bounded policy; the platform loop with
    preemption; speed scaling; preemption across speeds (fraction time
    base)."""
    return [
        BoundedProcessors(2),
        FixedPriorityPreemptive(Platform.homogeneous(2)),
        ListScheduledPlatform(Platform.heterogeneous([2, 1, 1])),
        FixedPriorityPreemptive(Platform.heterogeneous([2, 1])),
    ]


def pal_sweep(seed: int, size: Mapping[str, Any]) -> OpResult:
    """One ``Sweep(program=...)`` over the scheduler axis per utilisation.

    The programs are built and analysed up front (the set-up), so the cold
    sweeps only execute points; the warm sweeps re-open the store from disk
    and must serve every point from it, byte-identical to the cold report.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=WORK_DIR)
    schedulers = [sweep_schedulers()[index] for index in size["schedulers"]]
    try:
        began = clock()
        programs = []
        for utilisation in size["utilisations"]:
            program = Program.from_app(
                "pal_decoder", utilisation=utilisation, signal=PALSignalConfig(seed=seed)
            )
            _analysed(program)
            programs.append(program)
        analysed = clock()
        sweeps = [
            Sweep(program=program, duration=size["duration"]).add_axis("scheduler", schedulers)
            for program in programs
        ]
        with ResultStore(store_dir) as store:
            cold = [sweep.run(executor="serial", store=store) for sweep in sweeps]
        swept = clock()
        with ResultStore(store_dir) as store:
            warm = [sweep.run(executor="serial", store=store) for sweep in sweeps]
        ended = clock()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    problems: List[str] = []
    rows = []
    for cold_report, warm_report in zip(cold, warm):
        if not cold_report.ok or cold_report.warnings:
            problems.append(
                f"sweep: failures {[r.error for r in cold_report.failures]} "
                f"warnings {cold_report.warnings}"
            )
        stats = warm_report.service_stats
        if stats["executed"] or stats["store_hits"] != len(warm_report):
            problems.append(f"warm sweep did not serve every point from the store: {stats}")
        if warm_report.to_json() != cold_report.to_json():
            problems.append("warm sweep report differs from the cold one")
        rows += [result.metrics for result in cold_report.results]
    return OpResult(
        setup_s=analysed - began,
        run_s=swept - analysed,
        e2e_s=ended - began,
        firings=sum(row["completed_firings"] for row in rows),
        outputs={
            "points": len(rows),
            "firings": [row["completed_firings"] for row in rows],
            "deadline_misses": [row["deadline_misses"] for row in rows],
            "preemptions": [row.get("preemptions", 0) for row in rows],
            "reports_sha256": _sha256([report.to_json() for report in cold]),
        },
        problems=problems,
        counts={"api.sweep.points": sum(r.service_stats["executed"] for r in cold)},
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "pal-naive",
            "engine dispatch and DSP bodies with the detector off: a detector change must not move "
            "it, a dispatch change shows in full",
            pal_naive,
            full={"horizon": Fraction(4), "jumps": True},
            smoke={"horizon": Fraction(1, 20), "jumps": False},
            cross_check=pal_naive_cross_check,
        ),
        Workload(
            "pal-auto",
            "default value-exact fast-forward over a 2000 s horizon: detector sampling during the "
            "transient and one jump",
            pal_auto,
            full={"horizon": Fraction(2000), "jumps": True},
            smoke={"horizon": Fraction(1, 20), "jumps": False},
        ),
        Workload(
            "analysis",
            "nine programs built, analysed and checked, then run briefly at full trace: compile "
            "and CTA buffer sizing dominate",
            analysis_op,
            full={
                "apps": PACKAGED_APPS,
                "app_duration": Fraction(1, 10),
                "chains": CHAIN_SHAPES,
                "chain_periods": 2048,
            },
            smoke={
                "apps": ("quickstart", "rate_converter"),
                "app_duration": Fraction(1, 50),
                "chains": ((3, 2),),
                "chain_periods": 64,
            },
        ),
        Workload(
            "pal-sweep",
            "serial scheduler sweeps on platform policies with preemption and speed scaling, "
            "written to and re-read from the result store",
            pal_sweep,
            full={"utilisations": (0.5, 0.8), "schedulers": (0, 1, 2, 3), "duration": Fraction(1, 8)},
            smoke={"utilisations": (0.5,), "schedulers": (0, 3), "duration": Fraction(1, 50)},
        ),
    )
}
