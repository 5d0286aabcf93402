#!/usr/bin/env python3
"""End-to-end benchmark of the OIL -> CTA pipeline, with a traced per-layer
breakdown.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload pal-naive --seed 1 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--out results.json]
    python3 benchmarks/e2e/run.py --compare A.json B.json

With ``--workload`` one workload runs in this process: one untimed warm-up
operation, then repeats of the full operation for
``--seconds`` (at least :data:`MIN_REPEATS`), one after the other (a closed
loop with a single client), then -- with ``--trace 1`` -- one more repeat
with the layer tracer installed.  The last line printed is one JSON object:
``correct`` / ``attempted`` / ``failed`` and the medians of the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Without ``--workload`` every workload runs traced, each in its own fresh
subprocess, one at a time; the per-workload reports are collected into
``--out`` (``benchmarks/e2e/baseline.json`` is such a file, recorded at the
default seed).  ``--compare`` prints, per workload and end-to-end metric,
both medians and quartile ranges and a verdict, and exits 1 on any
regression beyond the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"imported repro from {repro.__file__}, not from {ROOT / 'src'}")

from tracer import Tracer  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, OpResult, Workload, clock  # noqa: E402

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
BASELINE_JSON = HERE / "baseline.json"
#: the seed whose outputs ``baseline.json`` records as expected
DEFAULT_SEED = 0
#: a run takes at least this many timed repeats, even past ``--seconds``
MIN_REPEATS = 3

#: end-to-end metrics: name -> (unit, per-operation value)
E2E_METRICS = {
    "setup_s": ("s", lambda r: r.setup_s),
    "run_s": ("s", lambda r: r.run_s),
    "e2e_s": ("s", lambda r: r.e2e_s),
    "firings_per_s": ("1/s", lambda r: r.firings / r.run_s),
}
PEAK_RSS = ("peak_rss_mb", "MB")

#: span names whose self time is reported as a share of the traced op;
#: "other" is the op's root span -- time inside no wrapped layer
LAYERS = (
    "api.build", "lang.parse", "lang.semantics", "graph.extract", "core.derive",
    "cta.consistency", "cta.rates", "cta.buffer_sizing", "cta.latency", "rules.check",
    "api.run", "runtime.wire", "engine", "runtime.functions", "engine.steady_state.sample",
    "platform.decide", "api.sweep", "service.store.put", "service.store.get", "other",
)
#: per-layer counts: metric name -> span name whose calls are counted
CALL_COUNTS = {
    "api.compiles": "api.compile",
    "cta.consistency_calls": "cta.consistency",
    "runtime.function_calls": "runtime.functions",
    "engine.steady_state.samples": "engine.steady_state.sample",
    "platform.decisions": "platform.decide",
    "service.store.puts": "service.store.put",
}
#: per-layer counts read where the work happened (tracer hooks, the op)
EXACT_COUNTS = (
    "engine.runs", "engine.kernel_runs", "engine.events_stepped", "engine.firings",
    "engine.preemptions", "engine.steady_state.jumps", "engine.steady_state.events_skipped",
    "api.sweep.points", "service.store.hits",
)


def summarise(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles (``statistics.quantiles``) and the samples."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "median": statistics.median(samples), "q1": q1, "q3": q3,
        "n": len(samples), "samples": list(samples),
    }


class OpLog:
    """Runs operations, checks their outputs and counts failures."""

    def __init__(self, expected: Optional[Mapping[str, Any]]) -> None:
        self.reference = expected
        self.source = "baseline.json" if expected is not None else None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, label: str, op, seed: int, size: Mapping[str, Any]) -> Optional[OpResult]:
        """Run one op; None (and a failure) if it raised or a check failed."""
        self.attempted += 1
        try:
            result = op(seed, size)
        except Exception as error:  # a failed op is counted, not fatal
            return self._fail(label, [f"{type(error).__name__}: {error}"])
        problems = list(result.problems)
        outputs = json.loads(json.dumps(result.outputs))  # as baseline.json reads back
        if self.reference is None:
            self.reference, self.source = outputs, label
        elif outputs != self.reference:
            keys = sorted(k for k in set(outputs) | set(self.reference)
                          if outputs.get(k) != self.reference.get(k))
            problems.append(f"outputs {keys} differ from {self.source}")
        return self._fail(label, problems) if problems else result

    def _fail(self, label: str, problems: List[str]) -> None:
        self.failed += 1
        self.problems.append(f"{label}: " + "; ".join(problems))
        return None


def layer_metrics(tracer: Tracer, result: OpResult, untraced_e2e: float) -> Dict[str, tuple]:
    """The per-layer metrics of one traced op: name -> (value, unit)."""
    self_times = tracer.self_times()
    calls = tracer.call_counts()
    counts = Counter(tracer.counts)
    counts.update(result.counts)
    wall = sum(span[2] - span[1] for span in tracer.spans if span is not None and span[3] < 0)
    metrics: Dict[str, tuple] = {
        f"{layer}.self_pct": (100.0 * self_times.get(layer, 0.0) / wall, "%") for layer in LAYERS
    }
    metrics.update({name: (calls[span], "count") for name, span in CALL_COUNTS.items()})
    metrics.update({name: (counts[name], "count") for name in EXACT_COUNTS})
    stepped = counts["engine.events_stepped"]
    metrics["engine.ns_per_event"] = (1e9 * self_times.get("engine", 0.0) / max(stepped, 1), "ns")
    metrics["trace.op_s"] = (wall, "s")
    metrics["trace.overhead_pct"] = (100.0 * (result.e2e_s / untraced_e2e - 1.0), "%")
    return metrics


def measure(workload: Workload, seed: int, seconds: float, trace: bool, *,
            smoke: bool = False, expected: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """Run one workload (see the module docstring) and return its report."""
    size = workload.smoke if smoke else workload.full
    log = OpLog(expected)
    # Untimed full-size warm-up: imports, lazily built tables and the heap
    # settle first (the first full op ran up to 50% slower).  A workload's
    # cross-check op is its warm-up; its outputs must equal the repeats'.
    if workload.cross_check is not None:
        log.run("warm-up cross-check", workload.cross_check, seed, size)
    else:
        log.run("warm-up", workload.op, seed, size)
    repeats: List[OpResult] = []
    walls: List[float] = []
    began = clock()
    while True:
        gc.collect()
        started = clock()
        result = log.run(f"repeat {len(walls) + 1}", workload.op, seed, size)
        walls.append(clock() - started)
        if result is not None:
            repeats.append(result)
        if len(walls) >= MIN_REPEATS and clock() - began + statistics.median(walls) > seconds:
            break
    report: Dict[str, Any] = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "e2e": {}, "layers": {},
    }
    if repeats:
        for name, (unit, value) in E2E_METRICS.items():
            report["e2e"][name] = {"unit": unit, **summarise([value(r) for r in repeats])}
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["e2e"][PEAK_RSS[0]] = {"unit": PEAK_RSS[1], **summarise([peak_mb])}
    if trace and repeats:
        tracer = Tracer()
        tracer.op = log.attempted + 1
        gc.collect()
        with tracer.installed(), tracer.span("other"):
            traced = log.run("traced repeat", workload.op, seed, size)
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(str(WORK_DIR / f"{workload.name}-spans.jsonl"))
        if traced is not None:
            metrics = layer_metrics(tracer, traced, report["e2e"]["e2e_s"]["median"])
            report["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
            shares = [(layer, metrics[f"{layer}.self_pct"][0]) for layer in LAYERS]
            report["top_layers"] = sorted(shares, key=lambda item: -item[1])[:3]
    report.update(
        attempted=log.attempted, failed=log.failed, problems=log.problems,
        correct=log.failed == 0 and bool(repeats), outputs=log.reference,
    )
    return report


def benchmark_config() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def expected_outputs(name: str, seed: int) -> Optional[Mapping[str, Any]]:
    """The baseline's recorded outputs of *name*, for the default seed."""
    if seed != DEFAULT_SEED or not BASELINE_JSON.exists():
        return None
    with open(BASELINE_JSON, encoding="utf-8") as handle:
        workload = json.load(handle)["workloads"].get(name)
    return workload["outputs"] if workload else None


def run_one(args: argparse.Namespace) -> int:
    report = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        expected=expected_outputs(args.workload, args.seed),
    )
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {name: {"value": stat["median"], "unit": stat["unit"]}
                   for name, stat in report["e2e"].items()}
    for name, metric in metrics.items():
        print(f"{args.workload}  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"], "metrics": metrics,
    }))
    return 0 if report["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    results: Dict[str, Any] = {
        "seed": args.seed, "seconds": args.seconds,
        "host": {"system": platform.system(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), "python": platform.python_version()},
        "workloads": {},
    }
    status = 0
    for name in WORKLOADS:
        path = WORK_DIR / f"{name}.json"
        path.unlink(missing_ok=True)
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", "1", "--report", str(path)]
        # one fresh process per workload, run to completion before the next
        code = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=900).returncode
        if not path.exists():
            print(f"{name}: no report (exit code {code})")
            status = 1
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        results["workloads"][name] = report
        status |= code != 0
        for problem in report["problems"]:
            print(f"{name}: FAILED {problem}")
    print_results(results)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return status


def print_results(results: Mapping[str, Any]) -> None:
    print(f"{'workload':<10} {'metric':<14} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, report in results["workloads"].items():
        for metric, stat in report["e2e"].items():
            print(f"{name:<10} {metric:<14} {stat['unit']:<5} {stat['median']:>12.6g} "
                  f"{stat['q1']:>12.6g} {stat['q3']:>12.6g} {stat['n']:>3}")
        print(f"{name:<10} failed ops {report['failed']}/{report['attempted']}; top self time: "
              + ", ".join(f"{layer} {pct:.1f}%" for layer, pct in report.get("top_layers", [])))


def verdict(before: Mapping[str, Any], after: Mapping[str, Any], bound: float, better: str) -> str:
    """better / worse / within bound / unresolved, by the rule in the README."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (after["median"] - before["median"]) / before["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (before, after))
    if better == "lower":
        wins_all = max(after["samples"]) < min(before["samples"])
    else:
        wins_all = min(after["samples"]) > max(before["samples"])
    if spread > bound:
        return "better" if wins_all else "unresolved"
    if change > bound:
        return "worse"
    # a gain needs a known spread to beat: at least two samples before
    gain = abs(after["median"] - before["median"]) > before["q3"] - before["q1"]
    if change < 0 and before["n"] > 1 and gain:
        return "better"
    return "within bound"


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in (path_a, path_b))
    metrics = {entry["name"]: entry for entry in benchmark_config()["end_to_end"]}
    regressions = 0
    print(f"{'workload':<10} {'metric':<14} {'A median':>11} {'A q1..q3':>23} "
          f"{'B median':>11} {'B q1..q3':>23}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:<10} missing from {path_b}")
            regressions += 1
            continue
        before, after = a["workloads"][name], b["workloads"][name]
        for metric, entry in metrics.items():
            x, y = before["e2e"].get(metric), after["e2e"].get(metric)
            if x is None or y is None:
                print(f"{name:<10} {metric:<14} missing")
                regressions += 1
                continue
            result = verdict(x, y, entry["bound"], entry["better"])
            regressions += result == "worse"
            print(f"{name:<10} {metric:<14} {x['median']:>11.5g} {x['q1']:>11.5g}..{x['q3']:<11.5g} "
                  f"{y['median']:>11.5g} {y['q1']:>11.5g}..{y['q3']:<11.5g}  {result}")
        frac_a = before["failed"] / before["attempted"]
        frac_b = after["failed"] / after["attempted"]
        if frac_b > frac_a:
            regressions += 1
        print(f"{name:<10} {'failed_ops_frac':<14} {frac_a:>11.3g} {'':>23} {frac_b:>11.3g} {'':>23}  "
              f"{'worse' if frac_b > frac_a else 'within bound'}")
    return 1 if regressions else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="write this workload's full report here (JSON)")
    parser.add_argument("--out", help="write the collected reports of all workloads here (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = benchmark_config()["run_seconds"]
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
