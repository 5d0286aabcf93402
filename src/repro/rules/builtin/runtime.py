"""Runtime-environment rules: what will degrade or fail once the run starts.

These rules surface, *before* a simulation executes, the conditions the
runtime only reports mid-flight:

* bare-iterator source signals, which a run refuses with a
  :class:`TypeError` (the one error of this family),
* the ``undeclared-function`` fallback of value-exact fast-forward (see
  :mod:`repro.util.runwarnings` and ``docs/fast-forward.md``),
* generator-backed stimuli whose ``advance()`` replays draws one by one
  (the runtime's ``generator-advance`` warning: jumps work but cost O(k)
  in the skipped horizon), and
* functions that will raise ``KeyError`` at their first firing because no
  implementation is registered.

They inspect the program's configured signals and registry structurally --
no iterator is drawn from, no function is called -- so a check pass never
perturbs the run that follows it.  Apart from bare iterators, these
degradations are warnings or notes, not errors: the program still runs
correctly (naively stepped, or -- for a bare OIL file checked without a
registry -- correctly once one is supplied).
"""

from __future__ import annotations

from typing import List

from repro.rules.base import Rule, Violation
from repro.rules.model import CheckModel
from repro.rules.registry import register_rule
from repro.runtime.sources import Stimulus


@register_rule
class BareIteratorSignal(Rule):
    rule_id = "runtime.undeclared-source"
    category = "runtime"
    severity = "error"
    description = (
        "source signals must not be bare iterators (a run raises TypeError; "
        "pass a Stimulus or a zero-argument factory)"
    )

    def check(self, model: CheckModel) -> List[Violation]:
        out: List[Violation] = []
        for decl in model.source_decls():
            signal = model.signals.get(decl.name)
            if signal is None or isinstance(signal, Stimulus):
                continue
            if callable(signal) and not hasattr(signal, "__next__") and not hasattr(signal, "__iter__"):
                continue  # zero-argument factory: rewindable, fully declared
            if hasattr(signal, "__next__"):
                out.append(
                    self.violation(
                        f"source {decl.name!r} is driven by a bare iterator "
                        f"({type(signal).__name__}); runs raise TypeError because it "
                        f"can be neither rewound nor advanced through a fast-forward "
                        f"jump -- pass a Stimulus or a zero-argument factory",
                        span=decl.location,
                        source=decl.name,
                        warning_code="undeclared-source",
                    )
                )
        return out


@register_rule
class GeneratorSource(Rule):
    rule_id = "runtime.generator-source"
    category = "runtime"
    severity = "info"
    description = (
        "note generator-backed stimuli whose advance() replays draws one by "
        "one, precluding O(1) steady-state jumps"
    )

    def check(self, model: CheckModel) -> List[Violation]:
        out: List[Violation] = []
        for decl in model.source_decls():
            signal = model.signals.get(decl.name)
            if not isinstance(signal, Stimulus):
                continue  # bare iterators / factories belong to undeclared-source
            if not signal.advance_linear:
                continue  # closed-form advance: O(1) jumps
            out.append(
                self.violation(
                    f"source {decl.name!r} is driven by a generator-backed "
                    f"stimulus ({type(signal).__name__}) whose advance() replays "
                    f"draws one by one; steady-state jumps work but cost time "
                    f"linear in the skipped horizon -- declare a closed-form "
                    f"stimulus (advance_linear = False) for O(1) jumps",
                    span=decl.location,
                    source=decl.name,
                    warning_code="generator-advance",
                )
            )
        return out


@register_rule
class DefaultStimulus(Rule):
    rule_id = "runtime.default-stimulus"
    category = "runtime"
    severity = "info"
    description = "note sources with no configured signal (runs use the counting default)"

    def check(self, model: CheckModel) -> List[Violation]:
        return [
            self.violation(
                f"source {decl.name!r} has no configured signal; runs draw from "
                f"the counting default RampStimulus(0, 1)",
                span=decl.location,
                source=decl.name,
            )
            for decl in model.source_decls()
            if model.signals.get(decl.name) is None
        ]


@register_rule
class UndeclaredFunctions(Rule):
    rule_id = "runtime.undeclared-function"
    category = "runtime"
    severity = "warning"
    description = (
        "functions without a value-exact jump declaration force fast-forward "
        "back to naive stepping"
    )

    def check(self, model: CheckModel) -> List[Violation]:
        if model.compilation is None:
            return []
        registry = model.registry
        out: List[Violation] = []
        for name, span in sorted(model.used_functions.items()):
            if name not in registry:
                continue  # runtime.unregistered-function owns that case
            if registry.get(name).jump_exact:
                continue
            out.append(
                self.violation(
                    f"function {name!r} declares no value-exact jump behaviour "
                    f"(stateless / jump_invariant / get_state); "
                    f'fast_forward="auto" will fall back to naive stepping',
                    span=span,
                    function=name,
                    warning_code="undeclared-function",
                )
            )
        return out


@register_rule
class UnregisteredFunctions(Rule):
    rule_id = "runtime.unregistered-function"
    category = "runtime"
    severity = "warning"
    description = "functions the program coordinates should have a registered implementation"

    def check(self, model: CheckModel) -> List[Violation]:
        if model.compilation is None:
            return []
        registry = model.registry
        return [
            self.violation(
                f"function {name!r} is not registered in the program's function "
                f"registry; the first firing that calls it will raise unless a "
                f"registry providing it is passed at run time",
                span=span,
                function=name,
            )
            for name, span in sorted(model.used_functions.items())
            if name not in registry
        ]
