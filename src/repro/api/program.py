"""The layered facade over the OIL pipeline: Program -> Analysis -> RunResult.

Every stage of the reproduction -- parsing, CTA derivation, consistency,
buffer sizing, latency verification, discrete-event execution -- has a
dedicated module, and before this facade every application re-implemented the
same glue (``compile_*`` / ``size_buffers`` / ``simulate_*``).  The three
classes here are that glue, written once:

* :class:`Program` -- an OIL program plus everything needed to analyse and
  execute it (response times, black boxes, a function-registry factory, a
  stimulus factory).  Build one with :meth:`Program.from_source` or
  :meth:`Program.from_app` (the packaged applications).
* :class:`Analysis` -- the structured result of ``program.analyze()``:
  consistency / achievable rates, buffer capacities, latency checks, all
  computed lazily and exactly once.
* :class:`RunResult` -- the structured result of ``analysis.run(duration)``:
  the trace, deadline misses, sink samples, measured rates and the traced
  occupancy high-water marks.

The canonical three lines::

    from repro.api import Program
    analysis = Program.from_app("pal_decoder", scale=1000).analyze()
    result = analysis.run(Fraction(2))

Factories, not instances
------------------------
Coordinated functions may be stateful (filter delay lines, oscillator
phases), so a :class:`Program` stores a registry *factory* and a stimulus
*factory*: every run gets fresh state and two runs of the same program --
also concurrent ones inside a :class:`~repro.api.sweep.Sweep` -- never share
mutable state.  Passing a ready-made
:class:`~repro.runtime.functions.FunctionRegistry` instance is still allowed
for stateless registries; it is then shared by all runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.compiler import CompilationResult, compile_program
from repro.cta.buffer_sizing import BufferSizingResult
from repro.cta.consistency import ConsistencyResult
from repro.cta.latency import LatencyCheck
from repro.lang.semantics import BlackBoxModule
from repro.platform.model import Platform
from repro.platform.policies import PlatformPolicy
from repro.runtime.functions import FunctionRegistry
from repro.runtime.simulator import ModeSchedule, Simulation
from repro.runtime.trace import TraceRecorder
from repro.util.rational import Rat, RationalLike, as_rational

#: A registry argument: a ready instance (shared) or a zero-argument factory.
RegistryLike = Union[FunctionRegistry, Callable[[], FunctionRegistry]]
#: A stimulus argument: a name -> signal mapping or a factory producing one.
SignalsLike = Union[Mapping[str, Any], Callable[[], Dict[str, Any]]]


class SharedRegistry:
    """A registry "factory" that hands out one shared instance.

    Used when the caller passes a ready-made :class:`FunctionRegistry`: every
    run then shares it, which is only safe for stateless registries (the
    documented contract).  A class rather than ``lambda: registry`` so the
    wrapper -- and with it the enclosing :class:`Program` spec -- stays
    picklable whenever the registry itself is.
    """

    def __init__(self, registry: FunctionRegistry) -> None:
        self.registry = registry

    def __call__(self) -> FunctionRegistry:
        return self.registry


class FixedSignals:
    """A stimulus factory that copies one fixed name -> signal mapping.

    Every run gets its own shallow copy of the mapping (the pre-facade
    semantics for plain-dict stimuli); entries exposing ``fresh()``
    (:class:`~repro.runtime.sources.Stimulus`) are rewound per run so
    repeated runs and sweep points draw identical streams instead of
    sharing a mutated position.  A class instead of a closure for the same
    reason as :class:`SharedRegistry`: picklability by value.
    """

    def __init__(self, signals: Mapping[str, Any]) -> None:
        self.signals = dict(signals)

    def __call__(self) -> Dict[str, Any]:
        copied: Dict[str, Any] = {}
        for name, signal in self.signals.items():
            fresh = getattr(signal, "fresh", None)
            copied[name] = fresh() if callable(fresh) else signal
        return copied


def _registry_factory(registry: Optional[RegistryLike]) -> Callable[[], FunctionRegistry]:
    if registry is None:
        return FunctionRegistry
    if isinstance(registry, FunctionRegistry):
        return SharedRegistry(registry)
    return registry


def _signals_factory(signals: Optional[SignalsLike]) -> Callable[[], Dict[str, Any]]:
    if signals is None:
        return dict
    if callable(signals) and not isinstance(signals, Mapping):
        return signals  # type: ignore[return-value]
    return FixedSignals(signals)


class Program:
    """An analysable, executable OIL program -- the facade's entry point.

    Use the constructors: :meth:`from_source` for arbitrary OIL text,
    :meth:`from_app` for the packaged applications (PAL decoder, Fig. 2 rate
    converter, modal pipelines, quickstart).  Compilation is cached; the
    object is immutable apart from that cache, so one :class:`Program` can
    back arbitrarily many (concurrent) runs.
    """

    def __init__(
        self,
        source: str,
        *,
        name: str = "program",
        function_wcets: Optional[Mapping[str, RationalLike]] = None,
        black_boxes: Sequence[BlackBoxModule] = (),
        default_wcet: RationalLike = 0,
        top: Optional[str] = None,
        registry: Optional[RegistryLike] = None,
        signals: Optional[SignalsLike] = None,
        mode_schedules: Optional[ModeSchedule] = None,
        params: Optional[Mapping[str, Any]] = None,
        platform: Optional[Platform] = None,
    ) -> None:
        self.name = name
        self.source = source
        self.function_wcets = dict(function_wcets or {})
        self.black_boxes = tuple(black_boxes)
        self.default_wcet = default_wcet
        self.top = top
        self.make_registry = _registry_factory(registry)
        self.make_signals = _signals_factory(signals)
        self.mode_schedules: Optional[ModeSchedule] = mode_schedules
        #: default execution platform of this program's simulations
        #: (overridable per run); None = the scheduler's own platform, or
        #: virtual unbounded hardware under the default self-timed policy
        self.platform: Optional[Platform] = platform
        #: the parameters this program was built from (``from_app`` records
        #: them; sweeps and reports echo them back)
        self.params: Dict[str, Any] = dict(params or {})
        #: provenance for :meth:`spec`: the canonical app-catalogue name and
        #: the *exact* builder kwargs, stamped by ``AppSpec.build`` (None /
        #: empty for source-built programs)
        self.app: Optional[str] = None
        self.app_params: Dict[str, Any] = {}
        self._compilation: Optional[CompilationResult] = None
        self._analysis: Optional["Analysis"] = None

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_source(
        cls,
        source: str,
        *,
        name: str = "program",
        function_wcets: Optional[Mapping[str, RationalLike]] = None,
        black_boxes: Sequence[BlackBoxModule] = (),
        default_wcet: RationalLike = 0,
        top: Optional[str] = None,
        registry: Optional[RegistryLike] = None,
        signals: Optional[SignalsLike] = None,
        mode_schedules: Optional[ModeSchedule] = None,
        params: Optional[Mapping[str, Any]] = None,
        platform: Optional[Platform] = None,
    ) -> "Program":
        """A program from OIL source text plus its execution environment."""
        return cls(
            source,
            name=name,
            function_wcets=function_wcets,
            black_boxes=black_boxes,
            default_wcet=default_wcet,
            top=top,
            registry=registry,
            signals=signals,
            mode_schedules=mode_schedules,
            params=params,
            platform=platform,
        )

    @classmethod
    def from_app(cls, app: str, **params: Any) -> "Program":
        """One of the packaged applications, by name.

        See :func:`repro.api.apps.available_apps` for the catalogue
        (``"quickstart"``, ``"pal_decoder"``, ``"rate_converter"``,
        ``"modal_mute"``, ``"modal_two_mode"`` and aliases).  ``params`` are
        forwarded to the application's builder (frequency scale, utilisation,
        initial tokens, signals, ...).
        """
        from repro.api.apps import build_app

        return build_app(app, **params)

    def spec(self) -> "ProgramSpec":
        """The picklable rebuild recipe of this program.

        App-built programs round-trip exactly (name + builder kwargs);
        source-built programs capture their construction keywords.  Programs
        wrapped around pre-computed compilations have no recipe and raise
        :class:`~repro.api.spec.SweepConfigError`.  See
        :class:`repro.api.spec.ProgramSpec`.
        """
        from repro.api.spec import ProgramSpec

        return ProgramSpec.from_program(self)

    # ----------------------------------------------------------------- stages
    def compile(self) -> CompilationResult:
        """Parse, validate and derive the CTA model (cached)."""
        if self._compilation is None:
            self._compilation = compile_program(
                self.source,
                function_wcets=self.function_wcets,
                black_boxes=self.black_boxes,
                default_wcet=self.default_wcet,
                top=self.top,
            )
        return self._compilation

    def analyze(self) -> "Analysis":
        """All analyses of the paper as one structured (lazy) object."""
        if self._analysis is None:
            self._analysis = Analysis(self, self.compile())
        return self._analysis

    def run(self, duration: RationalLike, **kwargs: Any) -> "RunResult":
        """Shortcut for ``self.analyze().run(duration, ...)``."""
        return self.analyze().run(duration, **kwargs)

    def check(self, **kwargs: Any) -> "CheckReport":
        """Shortcut for ``self.analyze().check(...)`` -- the pre-flight rule
        pass of :mod:`repro.rules` (see :meth:`Analysis.check`)."""
        return self.analyze().check(**kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"Program({self.name!r}{', ' + rendered if rendered else ''})"


class Analysis:
    """Structured analysis results of one program.

    Consistency, buffer sizing and latency verification are computed lazily
    and cached, so an :class:`Analysis` can back many runs while paying for
    each analysis exactly once.  Use :meth:`Analysis.from_parts` to wrap
    results that were computed through the lower-level APIs.
    """

    def __init__(
        self,
        program: Program,
        compilation: CompilationResult,
        *,
        sizing: Optional[BufferSizingResult] = None,
        consistency: Optional[ConsistencyResult] = None,
    ) -> None:
        self.program = program
        self.compilation = compilation
        self._sizing = sizing
        self._consistency = consistency
        self._latency: Optional[List[LatencyCheck]] = None

    @classmethod
    def from_parts(
        cls,
        compilation: CompilationResult,
        sizing: Optional[BufferSizingResult] = None,
        *,
        program: Optional[Program] = None,
        registry: Optional[RegistryLike] = None,
        signals: Optional[SignalsLike] = None,
    ) -> "Analysis":
        """Wrap pre-computed lower-level results in the facade.

        Without *program*, a placeholder ``"precompiled"`` program carries
        *registry* and *signals*; pass the real program to keep its
        execution environment."""
        if program is None:
            program = Program("", name="precompiled", registry=registry, signals=signals)
            program._compilation = compilation
        return cls(program, compilation, sizing=sizing)

    # -------------------------------------------------------------- analyses
    @property
    def consistency(self) -> ConsistencyResult:
        """Consistency / maximal achievable rates (unbounded buffers)."""
        if self._consistency is None:
            self._consistency = self.compilation.check_consistency(
                assume_infinite_unsized=True
            )
        return self._consistency

    @property
    def sizing(self) -> BufferSizingResult:
        """Sufficient buffer capacities (and the consistency proof at them)."""
        if self._sizing is None:
            # Sizing writes the capacities into the model: analyse the
            # unbounded model first, whichever property is read first.
            self.consistency
            self._sizing = self.compilation.size_buffers()
        return self._sizing

    @property
    def latency(self) -> List[LatencyCheck]:
        """The program's latency constraints checked against the offsets."""
        if self._latency is None:
            self._latency = self.compilation.verify_latency(self.sizing.consistency)
        return self._latency

    # ------------------------------------------------------------- shortcuts
    @property
    def consistent(self) -> bool:
        return self.consistency.consistent

    @property
    def capacities(self) -> Dict[str, int]:
        return self.sizing.capacities

    @property
    def total_capacity(self) -> int:
        return self.sizing.total_capacity

    @property
    def latency_ok(self) -> bool:
        return all(check.satisfied for check in self.latency)

    def _port_rates(self, ports: Mapping[str, Any]) -> Dict[str, Rat]:
        rates = self.consistency.port_rates
        return {name: rates[port] for name, port in ports.items() if port in rates}

    @property
    def source_rates(self) -> Dict[str, Rat]:
        """Achievable rate (Hz) per declared source."""
        return self._port_rates(self.compilation.source_ports)

    @property
    def sink_rates(self) -> Dict[str, Rat]:
        """Achievable rate (Hz) per declared sink."""
        return self._port_rates(self.compilation.sink_ports)

    def check(
        self,
        *,
        platform: Optional[Platform] = None,
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
    ) -> "CheckReport":
        """Run the pre-flight rules of :mod:`repro.rules` over this program.

        Reuses this analysis' cached results (consistency, sizing, latency)
        -- nothing is re-parsed or re-analysed.  ``platform`` checks
        capacity/affinity against a concrete target (defaulting to the
        program's configured platform); ``select`` / ``ignore`` filter rules
        by category or rule id.  Returns a
        :class:`~repro.rules.runner.CheckReport` whose ``ok`` is True when
        no error-severity violation was found.
        """
        from repro.rules import CheckModel, check_model

        model = CheckModel(self.program, platform=platform, analysis=self)
        return check_model(model, select=select, ignore=ignore)

    def report(self) -> str:
        """The full human-readable analysis report."""
        from repro.core.report import buffer_report, latency_report

        lines = [
            f"=== {self.program.name}: derived CTA model ===",
            self.compilation.model.summary(),
            "",
            f"=== consistency (unbounded buffers): {self.consistent} ===",
        ]
        for name, rate in self.source_rates.items():
            lines.append(f"  source {name}: {float(rate):g} Hz")
        for name, rate in self.sink_rates.items():
            lines.append(f"  sink   {name}: {float(rate):g} Hz")
        lines += ["", "=== buffer sizing ===", buffer_report(self.capacities)]
        if self.compilation.latency_constraints:
            lines += ["", "=== latency constraints ===", latency_report(self.latency)]
        return "\n".join(lines)

    # ------------------------------------------------------------- execution
    def simulation(
        self,
        *,
        scheduler: Optional[PlatformPolicy] = None,
        platform: Optional[Platform] = None,
        trace: str = "full",
        mode_schedules: Optional[ModeSchedule] = None,
        registry: Optional[RegistryLike] = None,
        signals: Optional[SignalsLike] = None,
        sink_start_times: Optional[Mapping[str, RationalLike]] = None,
        capacities: Optional[Mapping[str, Optional[int]]] = None,
        fast_forward: Union[bool, str] = "auto",
        trace_retention: Optional[int] = None,
    ) -> Simulation:
        """A fresh :class:`~repro.runtime.simulator.Simulation` of the program
        with the analysis-derived buffer capacities."""
        program = self.program
        if registry is None:
            built_registry = program.make_registry()
        else:
            built_registry = _registry_factory(registry)()
        if signals is None:
            built_signals = program.make_signals()
        else:
            built_signals = _signals_factory(signals)()
        if platform is None and scheduler is None:
            platform = program.platform
        return Simulation(
            self.compilation,
            built_registry,
            source_signals=built_signals,
            capacities=capacities if capacities is not None else self.sizing.capacities,
            mode_schedules=mode_schedules if mode_schedules is not None else program.mode_schedules,
            sink_start_times=sink_start_times,
            scheduler=scheduler,
            platform=platform,
            trace_level=trace,
            fast_forward=fast_forward,
            trace_retention=trace_retention,
        )

    def run(
        self,
        duration: RationalLike,
        *,
        scheduler: Optional[PlatformPolicy] = None,
        platform: Optional[Platform] = None,
        trace: str = "full",
        mode_schedules: Optional[ModeSchedule] = None,
        registry: Optional[RegistryLike] = None,
        signals: Optional[SignalsLike] = None,
        sink_start_times: Optional[Mapping[str, RationalLike]] = None,
        capacities: Optional[Mapping[str, Optional[int]]] = None,
        fast_forward: Union[bool, str] = "auto",
        trace_retention: Optional[int] = None,
    ) -> "RunResult":
        """Execute the program for *duration* seconds of simulated time.

        ``scheduler`` selects the scheduling policy
        (:class:`~repro.engine.policies.SelfTimedUnbounded` by default,
        :class:`~repro.engine.policies.BoundedProcessors`,
        :class:`~repro.engine.policies.StaticOrder`, or any platform policy
        from :mod:`repro.platform`); ``platform`` is the
        :class:`~repro.platform.model.Platform` shorthand for that
        platform's default policy (partitioned with an affinity mapping,
        greedy list scheduling otherwise) and is mutually exclusive with
        ``scheduler``.  Every policy runs through the engine's one dispatch
        loop.  ``trace`` selects the recording granularity
        (``"full"``, ``"endpoints"``, ``"off"``); deadline misses are
        counted at every level.  The event queue's time
        representation is derived, not chosen: integer ticks when the
        program's -- speed-scaled -- durations fit a grid, exact fractions
        otherwise, observationally identical either way
        (:attr:`RunResult.time_base` reports which ran; a policy that
        migrates firings across speeds reads ``"fraction"``, its off-grid
        instants being exact fractional ticks).  A negative
        *duration* raises :class:`ValueError`; 0 runs nothing.

        ``fast_forward`` is ``"auto"`` (the default) or ``False``: under
        ``"auto"`` programs whose stimuli and functions declare their jump
        behaviour fast-forward *value-exactly* (bit-identical to a naive
        run), all others step naively, recording structured warnings on the
        undeclared paths in :attr:`RunResult.warnings` (see
        :class:`~repro.runtime.simulator.Simulation`).  ``fast_forward`` /
        ``trace_retention`` are forwarded to the simulation.
        """
        simulation = self.simulation(
            scheduler=scheduler,
            platform=platform,
            trace=trace,
            mode_schedules=mode_schedules,
            registry=registry,
            signals=signals,
            sink_start_times=sink_start_times,
            capacities=capacities,
            fast_forward=fast_forward,
            trace_retention=trace_retention,
        )
        duration = as_rational(duration)
        recorder = simulation.run(duration)
        return RunResult(self, simulation, recorder, duration, scheduler=scheduler)


class RunResult:
    """Structured outcome of one simulated execution."""

    def __init__(
        self,
        analysis: Analysis,
        simulation: Simulation,
        trace: TraceRecorder,
        duration: Rat,
        *,
        scheduler: Optional[PlatformPolicy] = None,
    ) -> None:
        self.analysis = analysis
        self.simulation = simulation
        self.trace = trace
        self.duration = duration
        self.scheduler = scheduler

    # ------------------------------------------------------------ measurements
    @property
    def deadline_misses(self) -> int:
        """Source overflows + sink underflows (the real-time failures the
        buffer-sizing analysis must exclude), counted at every trace
        level."""
        return self.trace.deadline_miss_count()

    @property
    def completed_firings(self) -> int:
        return self.simulation.engine.completed_firings

    @property
    def makespan(self) -> Rat:
        """Completion time of the last finished firing (exact rational;
        correct at every trace level and time base)."""
        return self.simulation.engine.last_completion_time

    @property
    def time_base(self) -> str:
        """Time representation the run executed with: ``"ticks"`` (integer
        tick counts, converted back to exact rationals at this surface) or
        ``"fraction"``: no tick grid exists, or the policy
        :attr:`~repro.platform.policies.PlatformPolicyBase.migrates_across_speeds`,
        so instants may fall between ticks and are carried as exact
        fractions."""
        simulation = self.simulation
        if simulation.time_base is None or getattr(
            simulation.engine.policy, "migrates_across_speeds", False
        ):
            return "fraction"
        return "ticks"

    @property
    def warnings(self) -> List[str]:
        """Execution degradations (fast-forward refusals / give-ups); the
        run itself fell back to exact naive simulation."""
        return list(self.simulation.warnings)

    @property
    def fast_forwarded(self) -> bool:
        """True when at least one steady-state jump actually skipped time."""
        steady = self.simulation.engine.steady_state
        return steady is not None and steady.jumps > 0

    # ---------------------------------------------------- platform accounting
    @property
    def platform(self):
        """The :class:`~repro.platform.model.Platform` the run executed on:
        the one passed as ``platform=`` or carried by the policy.  ``None``
        under :class:`~repro.engine.policies.SelfTimedUnbounded`,
        :class:`~repro.engine.policies.BoundedProcessors` and
        :class:`~repro.engine.policies.StaticOrder`, which schedule
        anonymous processors; their metric rows and summaries therefore
        carry no ``preemptions`` or ``util[...]`` entries."""
        return self.simulation.platform

    @property
    def processor_busy(self) -> Dict[str, Rat]:
        """Exact busy time per processor in seconds.  Suspended firings stop
        accruing at the preemption instant and continue at the resume.
        :class:`~repro.engine.policies.BoundedProcessors` and
        :class:`~repro.engine.policies.StaticOrder` report their anonymous
        unit-speed processors (``p0`` .. ``p{n-1}``);
        :class:`~repro.engine.policies.SelfTimedUnbounded` accounts no
        processor and reports ``{}``."""
        return self.simulation.engine.processor_busy_time

    def processor_utilisation(self) -> Dict[str, float]:
        """Busy fraction of the simulated window per processor."""
        if self.duration <= 0:
            return {name: 0.0 for name in self.processor_busy}
        return {
            name: float(busy / self.duration)
            for name, busy in self.processor_busy.items()
        }

    def processor_energy(self) -> Dict[str, float]:
        """Energy estimate per processor over the simulated window:
        ``busy * power_active + idle * power_idle`` in whatever unit the
        :class:`~repro.platform.model.Processor` power weights were given
        (e.g. Joules for Watts).  Only processors that declare at least one
        power weight appear; a missing weight contributes nothing."""
        if self.platform is None or self.platform.is_unbounded:
            return {}
        busy_times = self.processor_busy
        energy: Dict[str, float] = {}
        for processor in self.platform:
            if processor.power_active is None and processor.power_idle is None:
                continue
            busy = busy_times.get(processor.name, Fraction(0))
            idle = max(self.duration - busy, Fraction(0))
            joules = 0.0
            if processor.power_active is not None:
                joules += float(busy) * processor.power_active
            if processor.power_idle is not None:
                joules += float(idle) * processor.power_idle
            energy[processor.name] = joules
        return energy

    @property
    def preemptions(self) -> int:
        """Number of firings suspended mid-flight by a preemptive policy."""
        return self.simulation.engine.preemptions

    def sink(self, name: str) -> List[Any]:
        """The values the named sink consumed, in order."""
        return self.simulation.sinks[name].consumed

    @property
    def sink_counts(self) -> Dict[str, int]:
        """Values consumed per sink -- the streaming counter, which stays
        exact through fast-forward jumps and trace-retention caps (the
        stored :meth:`sink` lists may be shorter)."""
        return {
            name: driver.consumed_count
            for name, driver in self.simulation.sinks.items()
        }

    @property
    def measured_rates(self) -> Dict[str, Optional[Rat]]:
        """Measured average rate (Hz) per source and sink."""
        names = list(self.simulation.sources) + list(self.simulation.sinks)
        return {name: self.trace.measured_rate(name) for name in names}

    # ------------------------------------------------------------- validation
    def occupancy_violations(self) -> List[str]:
        """Buffers whose occupancy high-water mark exceeded the runtime
        buffer's own capacity.

        This is a consistency check of the trace, not a check of the
        analysed capacities: :meth:`CircularBuffer.can_produce_window
        <repro.graph.circular_buffer.CircularBuffer.can_produce_window>`
        enforces that same capacity on every acquire, so the list stays
        empty even when the analysed capacities are too small (those show
        up as back pressure instead: deadline misses, lower measured
        rates).  Each buffer keeps its own mark, so the check reads the
        same marks at every trace level.
        """
        violations = []
        for name, mark in sorted(self.trace.buffer_high_water.items()):
            capacity = self.simulation.buffers[name].capacity
            if mark > capacity:
                violations.append(f"{name}: occupancy {mark} > capacity {capacity}")
        return violations

    @property
    def occupancy_ok(self) -> bool:
        return not self.occupancy_violations()

    # -------------------------------------------------------------- reporting
    def metrics(self) -> Dict[str, Any]:
        """The flat metric row sweeps aggregate (JSON-friendly values)."""
        row: Dict[str, Any] = {
            "deadline_misses": self.deadline_misses,
            "completed_firings": self.completed_firings,
            "makespan": float(self.makespan),
            "occupancy_ok": self.occupancy_ok,
            "time_base": self.time_base,
            "fast_forwarded": self.fast_forwarded,
        }
        for name, count in sorted(self.sink_counts.items()):
            row[f"sink_count[{name}]"] = count
        for name, rate in sorted(self.measured_rates.items()):
            row[f"rate[{name}]"] = None if rate is None else float(rate)
        platform = self.platform
        if platform is not None:
            row["preemptions"] = self.preemptions
            # per-processor columns only for concrete platforms; the virtual
            # per-task processors of self-timed mode would flood the table
            if not platform.is_unbounded:
                for name, utilisation in self.processor_utilisation().items():
                    row[f"util[{name}]"] = round(utilisation, 9)
        return row

    def summary(self) -> str:
        # the engine's policy is always the one that actually ran -- a
        # platform= run builds it internally, so the scheduler kwarg alone
        # would mislabel those runs as self-timed
        policy = (
            self.scheduler if self.scheduler is not None else self.simulation.engine.policy
        )
        lines = [
            f"=== run: {self.program.name}, {float(self.duration):g} s simulated, "
            f"scheduler {policy} ===",
            self.trace.summary(),
            f"deadline violations: {self.deadline_misses}",
        ]
        violations = self.occupancy_violations()
        if violations:
            lines.append("occupancy EXCEEDED buffer capacities:")
            lines.extend(f"  {entry}" for entry in violations)
        elif self.trace.buffer_high_water:
            lines.append("occupancy within buffer capacities for all traced buffers")
        platform = self.platform
        if platform is not None:
            lines.append(f"preemptions: {self.preemptions}")
            # per-processor lines only for concrete platforms (the virtual
            # per-task processors of self-timed mode would just repeat the
            # task list), and only while they fit on a screen
            if not platform.is_unbounded:
                utilisation = self.processor_utilisation()
                if utilisation and len(utilisation) <= 16:
                    for name, value in utilisation.items():
                        lines.append(f"  {name}: busy {value:.1%} of the simulated window")
        return "\n".join(lines)

    @property
    def program(self) -> Program:
        return self.analysis.program

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunResult({self.program.name!r}, duration={float(self.duration):g}, "
            f"misses={self.deadline_misses}, firings={self.completed_firings})"
        )
