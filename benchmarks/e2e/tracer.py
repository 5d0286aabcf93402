"""In-memory span tracer for the end-to-end benchmark's traced repeat.

The tracer times each layer of the pipeline from the outside: it replaces a
layer's public function (a module attribute, or a method in a class
``__dict__``) with a wrapper that records one span per call, and puts the
original back afterwards.  Nothing under ``src/`` knows about it.

A span is the tuple ``(name, start, end, parent, op)``: ``parent`` is the
index of the enclosing span in :attr:`Tracer.spans` (-1 for a root) and
``op`` the benchmark operation the call belongs to.  The self time of a span
is its duration minus the part of that interval its direct children cover,
so the self times of one operation add up to its wall time exactly.

Wrapping costs two clock reads and a tuple per call, so the benchmark installs
the tracer only for its separate traced repeat; end-to-end timings come from
untraced repeats, and the difference between the two is reported as the
tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]
#: ``after(tracer, args, result)``: reads counters where the work happened
AfterHook = Callable[["Tracer", tuple, Any], None]
#: ``(owner, attribute, span name, after hook)``
Target = Tuple[Any, str, str, Optional[AfterHook]]


class Tracer:
    """Records nested spans of wrapped calls on a single thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        #: the operation id stamped on every span recorded from now on
        self.op = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _begin(self) -> Tuple[int, int, int, float]:
        index = len(self.spans)
        self.spans.append(None)  # reserved: children are appended after it
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent, self.op, self.clock()

    def _end(self, name: str, index: int, parent: int, op: int, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, op)

    def _record(self, name: str, call: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        begun = self._begin()
        try:
            return call(*args, **kwargs)
        finally:
            self._end(name, *begun)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (the benchmark's op root)."""
        begun = self._begin()
        try:
            yield
        finally:
            self._end(name, *begun)

    # ------------------------------------------------------------- patching
    def wrap(self, owner: Any, attr: str, name: str, after: Optional[AfterHook] = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper named *name*.

        For a class the attribute must be defined in the class itself, not
        inherited, so that restoring it leaves the class as it was.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = tracer._record(name, original, args, kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets: Optional[List[Target]] = None) -> Iterator["Tracer"]:
        """Wrap *targets* (default: :func:`layer_targets`) for the block."""
        try:
            for owner, attr, name, after in targets if targets is not None else layer_targets():
                self.wrap(owner, attr, name, after)
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------- analysis
    def self_times(self) -> Dict[str, float]:
        """Total self time per span name (duration minus covered child time)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span is not None and span[3] >= 0:
                children.setdefault(span[3], []).append((span[1], span[2]))
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, _ = span
            covered = 0.0
            reach = start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, reach)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def call_counts(self) -> Counter:
        """Number of recorded spans per name."""
        return Counter(span[0] for span in self.spans if span is not None)

    def write_jsonl(self, path: str) -> None:
        """Write one JSON object per span, times relative to the first span."""
        origin = min((span[1] for span in self.spans if span is not None), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, op = span
                handle.write(
                    json.dumps(
                        {"name": name, "start": start - origin, "end": end - origin,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


# --------------------------------------------------------------------------
# What is wrapped.  Functions imported by name into several modules are
# wrapped at every binding the pipeline calls through, each binding keeping
# its own original, so no call is timed twice.
# --------------------------------------------------------------------------

def _engine_counts(tracer: Tracer, args: tuple, result: Any) -> None:
    """After ``Simulation.run``: the engine's exact counters for that run.

    ``Analysis.run`` builds a fresh simulation and runs it once, so the
    absolute counters are the run's own.
    """
    simulation = args[0]
    engine = simulation.engine
    steady = engine.steady_state
    skipped = steady.skipped_events if steady is not None else 0
    counts = tracer.counts
    counts["engine.runs"] += 1
    counts["engine.kernel_runs"] += int(engine.kernel_active)
    counts["engine.firings"] += engine.completed_firings
    counts["engine.events_stepped"] += simulation.queue.processed - skipped
    counts["engine.preemptions"] += engine.preemptions
    if steady is not None:
        counts["engine.steady_state.jumps"] += steady.jumps
        counts["engine.steady_state.events_skipped"] += skipped


def _store_hit(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["service.store.hits"] += result is not None


#: (module, class or None, attribute, span name, after hook)
LAYER_TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[AfterHook]], ...] = (
    ("repro.api.apps", None, "build_app", "api.build", None),
    ("repro.api.program", None, "compile_program", "api.compile", None),
    ("repro.core.compiler", "OilCompiler", "compile", "core.derive", None),
    ("repro.core.compiler", None, "parse_program", "lang.parse", None),
    ("repro.core.compiler", None, "analyze_program", "lang.semantics", None),
    ("repro.core.compiler", None, "extract_task_graph", "graph.extract", None),
    ("repro.core.compiler", None, "check_consistency", "cta.consistency", None),
    ("repro.cta.consistency", None, "check_consistency", "cta.consistency", None),
    ("repro.cta.buffer_sizing", None, "check_consistency", "cta.consistency", None),
    ("repro.cta.rates", None, "compute_rate_structure", "cta.rates", None),
    ("repro.cta.consistency", None, "compute_rate_structure", "cta.rates", None),
    ("repro.cta.buffer_sizing", None, "compute_rate_structure", "cta.rates", None),
    ("repro.cta.composition", None, "compute_rate_structure", "cta.rates", None),
    ("repro.core.compiler", None, "size_buffers", "cta.buffer_sizing", None),
    ("repro.cta.buffer_sizing", None, "size_buffers", "cta.buffer_sizing", None),
    ("repro.core.compiler", None, "verify_latency", "cta.latency", None),
    ("repro.cta.latency", None, "verify_latency", "cta.latency", None),
    ("repro.rules", None, "check_model", "rules.check", None),
    ("repro.api.program", "Analysis", "run", "api.run", None),
    ("repro.runtime.simulator", "Simulation", "__init__", "runtime.wire", None),
    ("repro.runtime.simulator", "Simulation", "run", "engine", _engine_counts),
    ("repro.runtime.functions", "FunctionRegistry", "call", "runtime.functions", None),
    ("repro.engine.steady_state", "SteadyState", "on_anchor_completion",
     "engine.steady_state.sample", None),
    ("repro.api.sweep", "Sweep", "run", "api.sweep", None),
    ("repro.service.store", "ResultStore", "put", "service.store.put", None),
    ("repro.service.store", "ResultStore", "get", "service.store.get", _store_hit),
)


def layer_targets() -> List[Target]:
    """Resolve :data:`LAYER_TARGETS` plus every ``decide_start`` defined in
    :mod:`repro.platform.policies` to ``(owner, attribute, name, after)``."""
    resolved = []
    for module_name, class_name, attr, name, after in LAYER_TARGETS:
        owner: Any = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        resolved.append((owner, attr, name, after))
    policies = importlib.import_module("repro.platform.policies")
    for value in vars(policies).values():
        if isinstance(value, type) and value.__module__ == policies.__name__ \
                and "decide_start" in value.__dict__:
            resolved.append((value, "decide_start", "platform.decide", None))
    return resolved
