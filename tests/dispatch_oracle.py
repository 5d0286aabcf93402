"""The seed's polling dispatcher, kept as the reference oracle.

The engine dispatches event-driven (:mod:`repro.engine.dispatcher`): only
tasks woken by a moved buffer floor are examined, in the pass order of a
brute-force scan.  The seed simulator instead rescanned the whole task fleet
on every dispatch round, until a pass started nothing.  That rescan is the
reference the engine's dispatch loop must match bit for bit under every
policy (``tests/test_engine.py::TestDispatcherEquivalence``) and the baseline
of the dispatch microbenchmark (``benchmarks/bench_engine_dispatch.py``).
It asks the policy through the same protocol the engine speaks -- a
processor and at most one victim per start or resume -- and applies the
answer through the engine's own start, preemption and resume.  It is not an
engine option, so it lives here, in one copy::

    with polling_dispatch():
        reference = analysis.run(duration)  # every engine in the block polls
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.engine.dispatcher import ExecutionEngine, ReadySet


def _dispatch_polling(engine: ExecutionEngine) -> None:
    """Rescan the whole fleet, in registration order, until a pass starts
    (or resumes) nothing.  Like the engine, it does not ask the default
    self-timed policy, whose answer is always "now, on a processor of its
    own"."""
    engine._dispatch_pending = False
    engine._in_dispatch = True
    policy = None if engine._self_timed else engine.policy
    try:
        progress = True
        while progress:
            progress = False
            for firing in engine._firings:
                task = firing.task
                if task.suspended:
                    decision = policy.decide_resume(task)
                elif not task.can_fire():
                    continue
                elif policy is None:
                    decision = (None, None)
                else:
                    decision = policy.decide_start(task)
                if decision is None:
                    continue
                processor, victim = decision
                if victim is not None:
                    engine._preempt(victim)
                if task.suspended:
                    engine._resume(firing, processor)
                else:
                    engine._start(firing, processor)
                progress = True
    finally:
        engine._in_dispatch = False


def _discard_wake(ready: ReadySet, index: int) -> None:
    """The rescan needs no ready set.  Keeping it empty also keeps the
    steady-state key, which folds the queued indices in, as the seed had it."""


@contextmanager
def polling_dispatch() -> Iterator[None]:
    """Dispatch every engine inside the block by whole-fleet rescan."""
    saved = ExecutionEngine._dispatch, ReadySet.push
    ExecutionEngine._dispatch = _dispatch_polling
    ReadySet.push = _discard_wake
    try:
        yield
    finally:
        ExecutionEngine._dispatch, ReadySet.push = saved
