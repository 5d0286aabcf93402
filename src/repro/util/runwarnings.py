"""Structured run warnings with stable machine-readable codes.

Fast-forward fallbacks and give-ups have always been plain strings on
``RunResult.warnings`` / ``SweepReport.warnings``.  :class:`RunWarning`
keeps that contract -- it *is* a ``str``, so substring assertions, report
rendering and JSON serialisation are unchanged -- while carrying a stable
``warning_code`` that callers can branch on without parsing free text.

The codes currently emitted are registered in :data:`WARNING_CODES` (the
canonical in-source registry) and documented, cross-linked with the
pre-flight rule ids that surface them before a run, in ``docs/registry.md``
-- a test keeps code, registry and table in sync.
"""

from __future__ import annotations

from typing import Dict

#: Every stable warning code, with a one-line meaning.  This dict is the
#: single in-source registry: a code emitted anywhere in the package must
#: have an entry here and a row in ``docs/registry.md`` (test-enforced).
WARNING_CODES: Dict[str, str] = {
    "undeclared-source": (
        "a source signal is a bare iterator; no longer emitted as a run "
        "warning (runs reject bare iterators with TypeError), only the "
        "pre-flight rule reports it"
    ),
    "undeclared-function": (
        "a coordinated function declares no jump behaviour (stateless, "
        "jump_invariant or get_state); auto mode fell back to naive"
    ),
    "speed-migrating-policy": (
        "the policy can resume a preempted firing at a different speed; "
        "engine-level fast-forward refusal (not emitted as a run warning)"
    ),
    "fraction-time-base": (
        "the run's durations admit no tick grid (no positive duration, or a "
        "resolution past the denominator cap), so it executes on fractions, "
        "which the steady-state detector does not support; engine-level "
        "fast-forward refusal (not emitted as a run warning)"
    ),
    "no-steady-state-key": (
        "the configuration exposes no periodicity key (e.g. no anchor task); "
        "engine-level fast-forward refusal (not emitted as a run warning)"
    ),
    "state-table-overflow": (
        "the detector sampled its full state table (16384 sampled states) "
        "without finding a repeat and gave up"
    ),
    "generator-advance": (
        "a steady-state jump replayed a large number of draws through a "
        "generator-backed stimulus whose advance() is O(k); the jump "
        "happened but cost time linear in the skipped horizon"
    ),
}


class RunWarning(str):
    """A warning message with a stable machine-readable ``warning_code``.

    Subclasses ``str`` so every existing consumer keeps working; the code
    travels alongside, including through pickling (the process sweep
    backend ships metric rows by pickle).
    """

    warning_code: str

    def __new__(cls, message: str, code: str = "") -> "RunWarning":
        self = super().__new__(cls, message)
        self.warning_code = code
        return self

    def __reduce__(self):
        return (self.__class__, (str(self), self.warning_code))

    def derive(self, message: str) -> "RunWarning":
        """The same code on a different message (sweep hoisting prefixes
        entries with their point index)."""
        return self.__class__(message, self.warning_code)


def warning_code(entry) -> str:
    """The stable code of a warnings entry (``""`` for legacy strings)."""
    return getattr(entry, "warning_code", "")
