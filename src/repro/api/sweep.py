"""Batched parameter-grid sweeps over programs and engine scenarios.

The ROADMAP's "scenario sweeps at scale" item: run many simulations over a
parameter grid -- frequency scales, processor counts, rates, mode schedules
-- with shared compilation, optional parallel workers and aggregated
reporting.  The three pieces:

* :class:`Sweep` -- declares the grid.  Axes are split automatically:
  *run axes* (``scheduler``, ``platform``, ``duration``, ``trace``,
  ``mode_schedules``, ``sink_start_times``, ``fast_forward``,
  ``trace_retention``; see :data:`RUN_AXES`) only affect execution, every
  other axis is a *program axis* that is forwarded to
  :meth:`~repro.api.program.Program.from_app` (whose builder rejects a
  parameter it does not know).  The time representation is no axis: every
  run derives it.  Each **distinct** program
  parameter combination is compiled and analysed exactly once, no matter how
  many run-axis points fan out from it.  A ``platform`` axis sweeps
  :class:`~repro.platform.model.Platform` values (heterogeneous speedup
  curves); platforms are plain picklable data, so such grids run on the
  process backend unchanged.
* :class:`SweepResult` -- one executed grid point: the parameters, the
  analysis summary and the run metrics (deadline misses, firings, makespan,
  measured rates, occupancy validation), or the recorded error when the
  point failed.
* :class:`SweepReport` -- the aggregation: tabular rendering
  (:meth:`~SweepReport.table`), JSON export (:meth:`~SweepReport.to_json`)
  and normalised comparisons (:meth:`~SweepReport.speedup_table`) such as
  the Fig. 4 speedup-vs-processors curve.

Execution order is the grid's cartesian-product order and results are
aggregated by point index, so serial execution and parallel workers produce
the *same* report.  Two backends share that contract:

* ``executor="serial"`` (the default): points run one after another in the
  calling process.  They share the compiled program read-only, while every
  run builds its own simulation state (buffers, tasks, registries via the
  program's factories) and stateful scheduler policies are deep-copied per
  point.
* ``executor="process"``: true multi-core execution.  The parent derives a
  picklable :class:`~repro.api.spec.ProgramSpec` per distinct program
  parameter combination and ships only specs + run parameters; each worker
  process rebuilds and compiles each distinct program at most once (a
  per-worker cache keyed by the same dedup keys, warm-started by the pool
  initializer), runs its chunk of points, and sends flat metric rows back.
  Aggregation stays by point index, so the report is bit-identical to a
  serial run.  Anything the backend cannot ship degrades gracefully instead
  of raising: an unpicklable *program* axis falls the whole sweep back to
  the serial backend (the dedup keys would otherwise be unsound), an
  unpicklable *run* parameter or a crashed worker re-runs just those points
  in the parent -- each with a warning recorded on the report
  (:attr:`SweepReport.warnings`).

``Sweep.run(store=...)`` persists a sweep in the content-addressed
:class:`~repro.service.store.ResultStore`: stored points are served without
compiling anything, and every ok row is stored the moment its point
completes, so a sweep killed mid-run resumes by running again on the same
store (see :mod:`repro.service`).

Engine-level scenarios that have no OIL program (synthetic task fleets,
scheduler experiments) use :meth:`Sweep.from_callable`, which runs an
arbitrary ``params -> metrics-mapping`` function over the same grid
machinery -- the Fig. 4 benchmark sweeps ``fork_join_program`` this way.

Example::

    from repro.api import Sweep
    from repro.engine import BoundedProcessors

    report = (
        Sweep("pal_decoder", duration=Fraction(1, 10))
        .add_axis("scheduler", [BoundedProcessors(n) for n in (1, 2, 3, 4)])
        .run(executor="process", workers=2)
    )
    print(report.table())
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import pickle
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.program import Analysis, Program, RunResult
from repro.api.spec import ProgramSpec, SweepConfigError
from repro.util.rational import RationalLike, as_rational
from repro.util.runwarnings import RunWarning, warning_code
from repro.util.validation import check_positive

#: Supported Sweep.run backends.
EXECUTORS = ("serial", "process")

#: Axes that configure the *run*, not the program (no recompilation needed).
RUN_AXES = (
    "scheduler",
    "platform",
    "duration",
    "trace",
    "mode_schedules",
    "sink_start_times",
    "fast_forward",
    "trace_retention",
)


def _program_key(program_params: Mapping[str, Any]) -> Tuple:
    """A value-based dedup key for one program-parameter combination.

    ``repr`` alone is not safe here: types with truncating reprs (numpy
    arrays) would collapse distinct parameter values into one compiled
    program.  Pickle bytes compare by value for all picklable types;
    unpicklable axis values (lambdas, generators, open handles) must not
    crash a serial sweep, so they fall back to a ``repr``-based key.
    Default object reprs embed the instance id, so equal-valued unpicklable
    objects usually get distinct keys -- such axes may compile the same
    program redundantly, which is the safe direction.  (An unpicklable type
    whose custom ``repr`` hides a value difference would share one
    compilation; give such types a faithful ``repr`` or make them
    picklable.)  The process backend never meets that fallback: it probes
    program axes with :func:`_unpicklable_param` first and runs a sweep
    with an unpicklable one serially.
    """
    parts = []
    for name, value in sorted(program_params.items()):
        try:
            rendered: object = pickle.dumps(value)
        except Exception:
            rendered = ("unpicklable", type(value).__qualname__, repr(value))
        parts.append((name, rendered))
    return tuple(parts)


def _unpicklable_param(params: Mapping[str, Any]) -> Optional[Tuple[str, Any, Exception]]:
    """The first ``(name, value, error)`` that cannot be pickled, if any."""
    for name, value in sorted(params.items()):
        try:
            pickle.dumps(value)
        except Exception as error:
            return name, value, error
    return None


def _execute_point(
    analysis: Analysis,
    run_params: Mapping[str, Any],
    default_duration: Fraction,
) -> Tuple[Dict[str, Any], RunResult]:
    """Execute one grid point against its compiled analysis.

    The single definition of per-point semantics -- duration override,
    per-point scheduler deep copy (policies are stateful), metric-row
    assembly -- shared by the serial path and the process workers, so the
    backends cannot drift apart and break the identical-reports contract.
    """
    run_params = dict(run_params)
    duration = as_rational(run_params.pop("duration", default_duration))
    if run_params.get("scheduler") is not None:
        run_params["scheduler"] = copy.deepcopy(run_params["scheduler"])
    run = analysis.run(duration, **run_params)
    metrics = {
        "consistent": analysis.consistent,
        "total_capacity": analysis.total_capacity,
        **run.metrics(),
    }
    if run.warnings:
        # degradations travel inside the metric row so every backend --
        # including process workers, which ship rows back by pickle -- can
        # surface them; SweepReport hoists the key into report warnings
        metrics["warnings"] = list(run.warnings)
    return metrics, run


def _json_safe(value: Any) -> Any:
    """Coerce *value* into something ``json.dumps`` accepts, readably."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


@dataclass
class SweepResult:
    """One executed grid point."""

    index: int
    params: Dict[str, Any]
    ok: bool = True
    error: Optional[str] = None
    #: flat metric row (analysis summary + run metrics); empty on failure
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: the full result objects (None for callable sweeps / failed points)
    run: Optional[RunResult] = None

    def row(self) -> Dict[str, Any]:
        """Parameters and metrics flattened into one JSON-safe mapping."""
        row: Dict[str, Any] = {"point": self.index}
        row.update({k: _json_safe(v) for k, v in self.params.items()})
        if self.ok:
            row.update({k: _json_safe(v) for k, v in self.metrics.items()})
        else:
            row["error"] = self.error
        return row

    def payload(self) -> Dict[str, Any]:
        """The point as one structured JSON-safe mapping -- the persistence
        encoding shared by :meth:`SweepReport.to_json` and the
        content-addressed result store (which keeps its params and metrics).

        Unlike :meth:`row` (the flattened tabular view) this keeps params
        and metrics separate, so :meth:`from_payload` can reconstruct the
        :class:`SweepResult` exactly.  ``_json_safe`` is idempotent, which
        is what makes restored results *bit-identical* in every rendering:
        a re-encoded payload, row or report JSON equals the original.
        """
        return {
            "point": self.index,
            "ok": self.ok,
            "error": self.error,
            "params": {k: _json_safe(v) for k, v in self.params.items()},
            "metrics": {k: _json_safe(v) for k, v in self.metrics.items()},
        }

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "SweepResult":
        """The inverse of :meth:`payload` (the full ``run`` object is gone
        for good -- simulations are never persisted, only metric rows)."""
        return cls(
            index=data["point"],
            params=dict(data["params"]),
            ok=data["ok"],
            error=data["error"],
            metrics=dict(data["metrics"]),
        )


class SweepReport:
    """Aggregated results of one sweep, in grid order."""

    def __init__(
        self,
        results: Sequence[SweepResult],
        *,
        name: str = "sweep",
        warnings: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.results = list(results)
        #: execution-backend degradations (serial fallback for unpicklable
        #: axes, in-parent re-runs after worker crashes); the *rows* are
        #: unaffected -- fallbacks preserve serial-identical metrics -- so
        #: warnings live beside the results, not inside them
        self.warnings: List[str] = list(warnings)
        #: how the result store satisfied the grid (``points`` /
        #: ``executed`` / ``store_hits`` counts), set by
        #: ``Sweep.run(store=...)``; None for plain runs.  Deliberately NOT
        #: serialised: a cache-served or resumed report must stay
        #: bit-identical to the uncached one.
        self.service_stats: Optional[Dict[str, int]] = None
        # Per-point run degradations (fast-forward refusals/give-ups) ride
        # along inside the metric rows; hoist them here so one place lists
        # everything that did not run as configured.  The hoisted copy keeps
        # the stable warning_code of structured entries.
        for result in self.results:
            for message in result.metrics.get("warnings", ()):
                self.warnings.append(
                    RunWarning(
                        f"point {result.index}: {message}",
                        warning_code(message),
                    )
                )

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> List[SweepResult]:
        return [result for result in self.results if not result.ok]

    def rows(self) -> List[Dict[str, Any]]:
        return [result.row() for result in self.results]

    def column(self, key: str) -> List[Any]:
        """One metric/parameter across all points (None where missing)."""
        return [result.row().get(key) for result in self.results]

    # ------------------------------------------------------------- rendering
    def table(self, columns: Optional[Sequence[str]] = None) -> str:
        """A fixed-width table of all points (grid order)."""
        rows = self.rows()
        if not rows:
            return f"{self.name}: empty sweep"
        if columns is None:
            seen: Dict[str, None] = {}
            for row in rows:
                for key in row:
                    seen.setdefault(key)
            columns = list(seen)
        rendered = [[_render_cell(row.get(column)) for column in columns] for row in rows]
        widths = [
            max(len(str(column)), *(len(line[i]) for line in rendered))
            for i, column in enumerate(columns)
        ]
        header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
        divider = "  ".join("-" * w for w in widths)
        body = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in rendered]
        return "\n".join([f"=== {self.name} ({len(rows)} points) ===", header, divider, *body])

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """The whole report as JSON -- one structured entry per point
        (``point`` / ``ok`` / ``error`` / ``params`` / ``metrics``), plus the
        report-level warnings.  :meth:`from_json` is the exact inverse."""
        return json.dumps(
            {
                "name": self.name,
                "warnings": self.warnings,
                "points": [result.payload() for result in self.results],
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        """Reconstruct a report from :meth:`to_json` output.

        Round-trips results, warnings and failures exactly:
        ``from_json(report.to_json()).to_json() == report.to_json()``.  The
        serialised warnings already *include* the per-point run warnings the
        constructor hoists out of metric rows, so this path bypasses the
        constructor (re-hoisting would duplicate them) and restores the
        warnings list verbatim.
        """
        data = json.loads(text)
        report = cls.__new__(cls)
        report.name = data["name"]
        report.results = [SweepResult.from_payload(entry) for entry in data["points"]]
        report.warnings = list(data["warnings"])
        report.service_stats = None
        return report

    def speedup_table(
        self,
        metric: str = "completed_firings",
        *,
        baseline: int = 0,
        lower_is_better: Optional[bool] = None,
    ) -> List[Dict[str, Any]]:
        """Each point's *metric* normalised against the *baseline* point.

        For a sweep over ``BoundedProcessors(n)`` with ``completed_firings``
        (throughput under a fixed simulated duration) or ``makespan``
        (smaller is better) this is the Fig. 4 speedup curve.

        ``lower_is_better`` states the metric's direction: when True the
        speedup is ``baseline / value`` (a halved makespan is a 2x speedup),
        when False it is ``value / baseline``.  The default infers True only
        for the ``"makespan"`` metric; pass it explicitly for any other
        time-like metric (latency, wall time, ...).
        """
        if lower_is_better is None:
            lower_is_better = metric == "makespan"
        values = self.column(metric)
        base = values[baseline] if values else None
        table: List[Dict[str, Any]] = []
        for result, value in zip(self.results, values):
            if not result.ok or value in (None, 0) or base in (None, 0):
                speedup = None
            elif lower_is_better:
                speedup = float(base) / float(value)
            else:
                speedup = float(value) / float(base)
            entry = {k: _json_safe(v) for k, v in result.params.items()}
            entry[metric] = _json_safe(value)
            entry["speedup"] = None if speedup is None else round(speedup, 6)
            table.append(entry)
        return table


def _render_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


# --------------------------------------------------------------------------
# Process-backend worker side.  Everything below runs inside worker
# processes; it must be module-level (pickled by reference) and communicate
# only through picklable values.  The per-worker compile cache is the whole
# point: compilation is the expensive shared prefix of every point, and a
# worker pays it once per *distinct* program no matter how many points it
# executes.
# --------------------------------------------------------------------------

#: Per-worker state, populated by :func:`_process_worker_init`.
_WORKER: Dict[str, Any] = {}


def _process_worker_init(
    specs: Dict[int, ProgramSpec],
    runner: Optional[Callable[..., Mapping[str, Any]]],
    default_duration: Fraction,
) -> None:
    """Seed one worker with the spec table and warm-start its compile cache.

    The cache is keyed by the parent's interned spec ids (one small int per
    distinct :func:`_program_key`, so point payloads never re-ship the key's
    pickle bytes), worker and parent agree on program identity, and each
    worker compiles each distinct program **at most once**.  With a single distinct program
    (the common Fig. 4 shape: one app, run-axis grid) it is compiled right
    here, before the first chunk arrives; with several, contiguous chunking
    means a worker typically only ever sees a subset of the programs, so
    compilation is deferred to first use instead of multiplying the whole
    spec table's compile cost by the worker count.
    """
    _WORKER["specs"] = dict(specs)
    _WORKER["analyses"] = {}
    _WORKER["runner"] = runner
    _WORKER["duration"] = default_duration
    if len(specs) == 1:
        for spec_id in specs:
            _worker_analysis(spec_id)


def _worker_analysis(spec_id: int) -> Analysis:
    """This worker's compiled analysis for *spec_id* (compile once, cache).

    Forcing the lazy analysis caches mirrors ``Sweep._analyses``: chunk
    execution then only reads shared results.
    """
    analyses: Dict[int, Analysis] = _WORKER["analyses"]
    if spec_id not in analyses:
        analysis = _WORKER["specs"][spec_id].build().analyze()
        analysis.consistency, analysis.sizing, analysis.latency  # force caches
        analyses[spec_id] = analysis
    return analyses[spec_id]


def _process_run_chunk(
    chunk: Sequence[Tuple[int, Optional[int], Dict[str, Any]]],
) -> List[Tuple[int, bool, Optional[str], Dict[str, Any]]]:
    """Execute one chunk of ``(index, spec_id, run_params)`` points.

    Returns flat ``(index, ok, error, metrics)`` rows -- the full
    :class:`~repro.api.program.RunResult` stays in the worker (simulation
    state is not picklable, and the report only needs the metrics).  Failure
    capture matches the serial path exactly, including the error string
    format, so a failing point produces the identical report row under every
    backend.
    """
    runner = _WORKER["runner"]
    rows: List[Tuple[int, bool, Optional[str], Dict[str, Any]]] = []
    for index, spec_id, run_params in chunk:
        # Compilation failures stay *outside* the per-point capture: the
        # serial path raises them out of ``Sweep._analyses`` rather than
        # recording a failed point, and the chunk must fail the same way (the
        # parent then re-runs these points locally and surfaces the original
        # exception).
        analysis = _worker_analysis(spec_id) if runner is None else None
        try:
            if runner is not None:
                metrics = dict(runner(**run_params))
            else:
                # The per-point deep copy inside _execute_point also covers
                # a chunk-internal subtlety: unpickling gave this chunk its
                # own object graph, but points *within* a chunk may still
                # share one policy instance (pickle preserves identity
                # inside a single payload).
                metrics, _ = _execute_point(analysis, run_params, _WORKER["duration"])
            rows.append((index, True, None, metrics))
        except Exception as error:  # a failed point must not sink the chunk
            rows.append((index, False, f"{type(error).__name__}: {error}", {}))
    return rows


class Sweep:
    """A parameter-grid batch of simulations (or callable scenarios).

    Parameters
    ----------
    app:
        Name of a packaged application (``Program.from_app``).  Mutually
        exclusive with *program*.
    program:
        A ready-made :class:`~repro.api.program.Program`; the grid may then
        only contain run axes (there is nothing to recompile).
    duration:
        Default simulated duration per point (overridable via a
        ``"duration"`` axis).
    base:
        Parameter values shared by every point (program or run parameters).
    grid:
        Initial axes, equivalent to calling :meth:`add_axis` per entry.
    """

    def __init__(
        self,
        app: Optional[str] = None,
        *,
        program: Optional[Program] = None,
        duration: RationalLike = Fraction(1),
        base: Optional[Mapping[str, Any]] = None,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        name: Optional[str] = None,
    ) -> None:
        if app is not None and program is not None:
            raise ValueError("pass either app= or program=, not both")
        self._app = app
        self._program = program
        self._runner: Optional[Callable[..., Mapping[str, Any]]] = None
        self.duration = as_rational(duration)
        self.base: Dict[str, Any] = dict(base or {})
        self.axes: Dict[str, List[Any]] = {}
        self.name = name or (app or (program.name if program else "sweep"))
        for axis, values in (grid or {}).items():
            self.add_axis(axis, values)

    @classmethod
    def from_callable(
        cls,
        runner: Callable[..., Mapping[str, Any]],
        *,
        base: Optional[Mapping[str, Any]] = None,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        name: str = "sweep",
    ) -> "Sweep":
        """A sweep whose points call ``runner(**params)`` and aggregate the
        returned metric mapping -- for engine-level scenarios (synthetic task
        fleets, scheduler experiments) that have no OIL program."""
        sweep = cls(name=name, base=base, grid=grid)
        sweep._runner = runner
        return sweep

    # ---------------------------------------------------------------- axes
    def add_axis(self, name: str, values: Sequence[Any]) -> "Sweep":
        """Add a grid axis (fluent).  Later axes vary fastest."""
        values = list(values)
        if not values:
            raise ValueError(f"axis {name!r} needs at least one value")
        self.axes[name] = values
        return self

    def points(self) -> List[Dict[str, Any]]:
        """The expanded grid in cartesian-product order (base + axes)."""
        if not self.axes:
            return [dict(self.base)]
        names = list(self.axes)
        combos = itertools.product(*(self.axes[name] for name in names))
        return [{**self.base, **dict(zip(names, combo))} for combo in combos]

    # ----------------------------------------------------------------- run
    def _split(self, params: Mapping[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        program_params = {k: v for k, v in params.items() if k not in RUN_AXES}
        run_params = {k: v for k, v in params.items() if k in RUN_AXES}
        return program_params, run_params

    def _analyses(self, points: Sequence[Mapping[str, Any]]) -> Dict[Tuple, Analysis]:
        """Compile + analyse each distinct program exactly once (serially --
        compilation is the shared part the workers must not repeat).

        The lazy :class:`Analysis` caches are forced here, *before* the
        fan-out: workers only read the shared analysis, they never race to
        compute it (buffer sizing mutates the model's buffer parameters while
        it searches, so it must not run concurrently on one model).
        """
        analyses: Dict[Tuple, Analysis] = {}
        for params in points:
            program_params, _ = self._split(params)
            key = _program_key(program_params)
            if key in analyses:
                continue
            self._check_program_source(program_params)
            if self._program is not None:
                analysis = self._program.analyze()
            else:
                analysis = Program.from_app(self._app, **program_params).analyze()
            analysis.consistency, analysis.sizing, analysis.latency  # force caches
            analyses[key] = analysis
        return analyses

    def _check_program_source(self, program_params: Mapping[str, Any]) -> None:
        """Reject grids this sweep cannot build programs for.

        One definition of the two misconfiguration errors, so the serial
        and process backends report identical messages.
        """
        if self._program is not None:
            if program_params:
                raise ValueError(
                    f"sweep over a ready-made program accepts only run axes "
                    f"{RUN_AXES}; got program axes {sorted(program_params)}"
                )
        elif self._app is None:
            raise ValueError(
                "this sweep has no program: construct it with app=, "
                "program= or Sweep.from_callable(...)"
            )

    def _run_point(
        self,
        index: int,
        params: Dict[str, Any],
        analyses: Dict[Tuple, Analysis],
        keep_runs: bool,
    ) -> SweepResult:
        try:
            if self._runner is not None:
                metrics = dict(self._runner(**params))
                return SweepResult(index=index, params=params, metrics=metrics)
            program_params, run_params = self._split(params)
            analysis = analyses[_program_key(program_params)]
            metrics, run = _execute_point(analysis, run_params, self.duration)
            return SweepResult(
                index=index,
                params=params,
                metrics=metrics,
                run=run if keep_runs else None,
            )
        except Exception as error:  # a failed point must not sink the batch
            return SweepResult(
                index=index,
                params=params,
                ok=False,
                error=f"{type(error).__name__}: {error}",
            )

    def run(
        self,
        *,
        workers: int = 1,
        executor: str = "serial",
        keep_runs: bool = True,
        store: Any = None,
    ) -> SweepReport:
        """Execute every grid point and aggregate a :class:`SweepReport`.

        ``executor`` selects the backend: ``"serial"`` (the default) runs
        the points one after another in this process; ``"process"`` fans
        them out over a process pool for true multi-core execution (each
        worker rebuilds and compiles each distinct program at most once
        from its picklable :class:`~repro.api.spec.ProgramSpec`), taken at
        *any* worker count so its contract does not vary with ``workers``.
        ``workers`` only sizes the process pool; the serial backend ignores
        it.  Results are aggregated by point index under both backends, so
        the report rows are identical to a serial run.

        The process backend degrades rather than raises when something
        cannot be shipped: unpicklable program axes fall the whole sweep
        back to serial execution, unpicklable run parameters or crashed
        workers re-run just those points in the parent -- each recorded in
        :attr:`SweepReport.warnings`.

        ``keep_runs=False`` drops each point's full :class:`RunResult`
        (simulation state, complete trace, sink sample lists) once its flat
        metric row is extracted -- use it for large grids, where retaining
        every simulation for the report's lifetime multiplies memory by the
        point count.  Tables, JSON and speedup curves only need the metrics.
        The process backend implies it: simulations stay in the workers and
        only metric rows travel back, so its results always have
        ``run=None``.

        ``store`` (a :class:`~repro.service.store.ResultStore` or a
        directory path) persists the sweep: points whose content digest is
        already stored are answered without compiling or executing
        anything, and every point that runs ok is stored (and flushed) from
        this process the moment it completes.  Failed points are never
        stored, so every run retries them.  A sweep killed mid-run thus
        resumes by running again on the same store.  The report is
        bit-identical to an uninterrupted plain run;
        :attr:`SweepReport.service_stats` records how many points were
        executed vs served.  A path-opened store is closed at the end, a
        passed one flushed.  See :mod:`repro.service`.
        """
        check_positive(workers, "workers")
        if executor not in EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}; choose from {EXECUTORS}")
        declared = set(self.axes) | set(self.base)
        if {"scheduler", "platform"} <= declared:
            # Analysis.run accepts one or the other; without this check every
            # grid point would burn a compile only to fail identically.
            raise SweepConfigError(
                "a sweep cannot combine 'scheduler' and 'platform' parameters: "
                "each run takes exactly one of them"
            )
        points = self.points()
        if store is None:
            results, warnings = self._execute_points(
                list(enumerate(points)),
                executor=executor,
                workers=workers,
                keep_runs=keep_runs,
            )
            return SweepReport(results, name=self.name, warnings=warnings)

        # late: repro.service.store imports repro.api
        from repro.service.store import ResultStore, point_keys

        result_store = store if isinstance(store, ResultStore) else ResultStore(store)
        try:
            keys = point_keys(self, points)
            results = []
            missing: List[Tuple[int, Dict[str, Any]]] = []
            for index, key in enumerate(keys):
                payload = result_store.get(key)
                if payload is None:
                    missing.append((index, points[index]))
                else:
                    results.append(
                        SweepResult(
                            index=index, params=payload["params"], metrics=payload["metrics"]
                        )
                    )

            def store_row(result: SweepResult) -> None:
                if result.ok:
                    payload = result.payload()
                    # the grid position belongs to the asking grid, not the
                    # point's content: overlapping grids share rows
                    row = {"params": payload["params"], "metrics": payload["metrics"]}
                    result_store.put(keys[result.index], row)

            warnings = []
            if missing:
                executed, warnings = self._execute_points(
                    missing,
                    executor=executor,
                    workers=workers,
                    keep_runs=keep_runs,
                    on_result=store_row,
                )
                results = sorted(results + executed, key=lambda result: result.index)
        finally:
            if result_store is store:
                result_store.flush()
            else:
                result_store.close()
        report = SweepReport(results, name=self.name, warnings=warnings)
        report.service_stats = {
            "points": len(points),
            "executed": len(missing),
            "store_hits": len(points) - len(missing),
        }
        return report

    def _execute_points(
        self,
        indexed_points: List[Tuple[int, Dict[str, Any]]],
        *,
        executor: str,
        workers: int,
        keep_runs: bool,
        on_result: Optional[Callable[[SweepResult], None]] = None,
    ) -> Tuple[List[SweepResult], List[str]]:
        """Execute ``(grid index, params)`` pairs on the selected backend.

        Results come back in the given order alongside the backend's
        degradation warnings; ``on_result`` fires exactly once per point as
        it completes, always in this process -- the result store's write
        hook.
        """
        if executor == "process":
            # Even with workers=1 the process path is taken: the backend's
            # contract (run=None results, pickle-probed shipping) must not
            # silently vary with the worker count.
            return self._run_process(indexed_points, workers, on_result)
        return self._run_serial(indexed_points, keep_runs, on_result), []

    def _run_serial(
        self,
        indexed_points: Sequence[Tuple[int, Dict[str, Any]]],
        keep_runs: bool,
        on_result: Optional[Callable[[SweepResult], None]] = None,
    ) -> List[SweepResult]:
        if self._runner is None:
            analyses = self._analyses([params for _, params in indexed_points])
        else:
            analyses = {}
        results = []
        for index, params in indexed_points:
            result = self._run_point(index, params, analyses, keep_runs)
            if on_result is not None:
                on_result(result)
            results.append(result)
        return results

    # ------------------------------------------------------- process backend
    def _spec_for(self, program_params: Dict[str, Any]) -> ProgramSpec:
        """The picklable rebuild recipe of one grid point's program."""
        self._check_program_source(program_params)
        if self._program is not None:
            return self._program.spec()
        return ProgramSpec.from_app(self._app, **program_params)

    def _run_process(
        self,
        indexed_points: List[Tuple[int, Dict[str, Any]]],
        workers: int,
        on_result: Optional[Callable[[SweepResult], None]] = None,
    ) -> Tuple[List[SweepResult], List[str]]:
        """The ``executor="process"`` backend (see :meth:`run`)."""
        warnings: List[str] = []
        params_by_index = dict(indexed_points)

        def degrade_to_serial(reason: str) -> Tuple[List[SweepResult], List[str]]:
            warnings.append(f"{reason}; running the sweep serially instead")
            results = self._run_serial(indexed_points, keep_runs=False, on_result=on_result)
            return results, warnings

        # -- 1. shared state must be picklable: program axes and specs (or
        # the runner).  An unpicklable program axis (whose dedup key would
        # fall back to a repr) or an unshippable program degrades the whole
        # sweep.
        # Dedup keys embed the pickle bytes of every program-axis value, so
        # they are interned to small integer spec ids here -- point payloads
        # then reference programs by id instead of re-shipping (potentially
        # huge) key bytes once per point.
        specs: Dict[int, ProgramSpec] = {}
        spec_id_by_index: Dict[int, Optional[int]] = {}
        if self._runner is not None:
            try:
                pickle.dumps(self._runner)
            except Exception as error:
                return degrade_to_serial(
                    f"sweep runner {self._runner!r} is not picklable "
                    f"({type(error).__name__}: {error})"
                )
            spec_id_by_index = {index: None for index, _ in indexed_points}
        else:
            spec_ids: Dict[Tuple, int] = {}
            for index, params in indexed_points:
                program_params, _ = self._split(params)
                offending = _unpicklable_param(program_params)
                if offending is not None:
                    name, value, error = offending
                    return degrade_to_serial(
                        f"program axis {name!r} has an unpicklable value "
                        f"({type(value).__qualname__}: {value!r}): the process "
                        f"executor ships program parameters to worker processes "
                        f"by pickle ({type(error).__name__}: {error})"
                    )
                key = _program_key(program_params)
                if key not in spec_ids:
                    try:
                        spec = self._spec_for(dict(program_params))
                        spec.ensure_picklable()
                    except SweepConfigError as error:
                        return degrade_to_serial(str(error))
                    spec_ids[key] = len(specs)
                    specs[spec_ids[key]] = spec
                spec_id_by_index[index] = spec_ids[key]

        # -- 2. per-point run parameters: a point the backend cannot ship
        # (an unpicklable scheduler key, a custom trace sink, ...) runs in
        # the parent instead; everything else is chunked out to the pool.
        shippable: List[Tuple[int, Optional[int], Dict[str, Any]]] = []
        local_indices: List[int] = []
        for index, params in indexed_points:
            if self._runner is not None:
                run_params = dict(params)
            else:
                _, run_params = self._split(params)
            offending = _unpicklable_param(run_params)
            if offending is None:
                shippable.append((index, spec_id_by_index[index], run_params))
            else:
                name, value, _ = offending
                warnings.append(
                    f"point {index}: run parameter {name!r} has an "
                    f"unpicklable value ({type(value).__qualname__}: "
                    f"{value!r}); running the point in-process"
                )
                local_indices.append(index)

        # -- 3. fan the shippable points out in contiguous chunks.  A broken
        # pool (one worker crash poisons every pending future) gets ONE
        # retry in a fresh pool, so a transient crash costs only the broken
        # chunks' latency, not a serial re-run of most of the grid; whatever
        # still fails is re-run in the parent.  Aggregation is by point
        # index throughout, so the row order -- and the rows -- are
        # identical to a serial run.
        outcomes: Dict[int, SweepResult] = {}

        def record(index: int, ok: bool, error_text: Optional[str], metrics) -> None:
            # a row arrives from a worker exactly once per index (a broken
            # or failed chunk never delivered its rows), so on_result fires
            # once per point, in the parent -- the store is written here
            result = SweepResult(
                index=index,
                params=params_by_index[index],
                ok=ok,
                error=error_text,
                metrics=metrics,
            )
            outcomes[index] = result
            if on_result is not None:
                on_result(result)

        def run_pool(
            chunks: List[List[Tuple[int, Optional[int], Dict[str, Any]]]],
        ) -> List[List[Tuple[int, Optional[int], Dict[str, Any]]]]:
            """One pool round; returns the chunks whose pool broke."""
            broken: List[List[Tuple[int, Optional[int], Dict[str, Any]]]] = []
            with ProcessPoolExecutor(
                max_workers=min(workers, len(chunks)),
                initializer=_process_worker_init,
                initargs=(specs, self._runner, self.duration),
            ) as pool:
                futures = []
                for chunk in chunks:
                    try:
                        futures.append((pool.submit(_process_run_chunk, chunk), chunk))
                    except BrokenExecutor:
                        # a worker died while later chunks were still queued
                        broken.append(chunk)
                for future, chunk in futures:
                    try:
                        for index, ok, error_text, metrics in future.result():
                            record(index, ok, error_text, metrics)
                    except BrokenExecutor:
                        broken.append(chunk)
                    except Exception as error:
                        # a chunk-level failure that left the pool alive
                        # (e.g. an unpicklable metric value in the result):
                        # retrying would fail identically, go straight to
                        # the in-parent fallback
                        warnings.append(
                            f"process worker failed on points "
                            f"{[index for index, _, _ in chunk]} "
                            f"({type(error).__name__}: {error}); "
                            f"re-running them in-process"
                        )
                        local_indices.extend(index for index, _, _ in chunk)
            return broken

        if shippable:
            chunk_size = max(1, math.ceil(len(shippable) / (workers * 4)))
            chunks = [
                shippable[start : start + chunk_size]
                for start in range(0, len(shippable), chunk_size)
            ]
            broken = run_pool(chunks)
            if broken:
                count = sum(len(chunk) for chunk in broken)
                warnings.append(
                    f"process pool broke with {count} point(s) unfinished; "
                    f"retrying them in a fresh pool"
                )
                broken = run_pool(broken)
            for chunk in broken:
                warnings.append(
                    f"process pool broke again on points "
                    f"{[index for index, _, _ in chunk]}; re-running them "
                    f"in-process"
                )
                local_indices.extend(index for index, _, _ in chunk)

        # -- 4. in-parent fallback for whatever could not be shipped, then
        # assembly in the caller's order.
        if local_indices:
            local_indices.sort()
            local_points = [params_by_index[index] for index in local_indices]
            analyses = self._analyses(local_points) if self._runner is None else {}
            for index in local_indices:
                result = self._run_point(
                    index, params_by_index[index], analyses, keep_runs=False
                )
                outcomes[index] = result
                if on_result is not None:
                    on_result(result)
        return [outcomes[index] for index, _ in indexed_points], warnings
