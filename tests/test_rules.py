"""The pre-flight rule framework: registry, runner, built-in rules, CLI.

Covers the framework invariants (registration validation, include/exclude
filter semantics, the never-crash runner), the acceptance criteria of the
rules layer (every packaged app checks clean; a rate-inconsistent program
fails with a structured violation carrying a ``rule_id`` and a source
span, through the Python API and the ``python -m repro check`` CLI) and
the platform-aware rule family.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import pytest

from repro.api import Program
from repro.api.apps import available_apps
from repro.apps.producer_consumer import (
    QUICKSTART_OIL_SOURCE,
    quickstart_registry,
    quickstart_wcets,
)
from repro.platform import Platform
from repro.rules import (
    INTERNAL_ERROR_RULE_ID,
    CheckModel,
    CheckReport,
    Rule,
    Violation,
    all_rule_classes,
    categories,
    check_model,
    register_rule,
    rules_for,
    unregister_rule,
)
from repro.rules.cli import main as check_main
from repro.runtime.sources import ConstantStimulus, GeneratorStimulus

#: The quickstart pipeline with the sink rate broken: 2 kHz in, 2:1
#: downsampling, but a 3 kHz sink -- no consistent assignment of firing
#: rates exists, which ``rates.inconsistent`` must report with a span.
BROKEN_RATE_OIL = """\
mod seq Downsample(int x, out int y){
  loop{
    average2(x:2, out y);
  } while(1);
}

mod par {
  source int samples = sensor() @ 2 kHz;
  sink int averages = log_value() @ 3 kHz;
  Downsample(samples, out averages)
}
"""

#: The same pipeline, consistent (1 kHz sink).  Checks clean except for
#: runtime warnings/infos (unregistered function, default stimulus).
CONSISTENT_OIL = BROKEN_RATE_OIL.replace("@ 3 kHz", "@ 1 kHz")


def model_for(source: str, **kwargs) -> CheckModel:
    return CheckModel(Program.from_source(source, name="under-test"), **kwargs)


# --------------------------------------------------------------------------
# Violation / report shape
# --------------------------------------------------------------------------
class TestViolation:
    def test_to_dict_shape(self):
        from repro.lang.errors import SourceLocation

        violation = Violation(
            rule_id="x.y",
            category="x",
            severity="error",
            message="boom",
            span=SourceLocation(3, 7),
            extra={"detail": 1},
        )
        assert violation.to_dict() == {
            "rule_id": "x.y",
            "category": "x",
            "severity": "error",
            "message": "boom",
            "span": {"line": 3, "column": 7},
            "extra": {"detail": 1},
        }

    def test_spanless_to_dict_and_unknown_severity(self):
        violation = Violation(rule_id="x.y", category="x", severity="info", message="m")
        assert violation.to_dict()["span"] is None
        with pytest.raises(ValueError):
            Violation(rule_id="x.y", category="x", severity="fatal", message="m")

    def test_report_roundtrips_through_json(self):
        report = check_model(model_for(BROKEN_RATE_OIL), select=["rates"])
        payload = json.loads(report.to_json())
        assert payload["target"] == "under-test"
        assert payload["ok"] is False
        assert payload["counts"]["error"] >= 1


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered_and_sorted(self):
        ids = [cls.rule_id for cls in all_rule_classes()]
        assert ids == sorted(ids)
        assert "rates.inconsistent" in ids
        assert "lang.compile-error" in ids
        assert set(categories()) >= {"buffers", "lang", "latency", "platform", "rates", "runtime"}

    def test_registration_validates_identity(self):
        with pytest.raises(TypeError):
            register_rule(object)  # type: ignore[arg-type]

        class NoId(Rule):
            category = "local"

        with pytest.raises(ValueError, match="no rule_id"):
            register_rule(NoId)

        class BadSeverity(Rule):
            rule_id = "local.bad-severity"
            category = "local"
            severity = "fatal"

        with pytest.raises(ValueError, match="severity"):
            register_rule(BadSeverity)

        class Reserved(Rule):
            rule_id = INTERNAL_ERROR_RULE_ID
            category = "local"

        with pytest.raises(ValueError, match="reserved"):
            register_rule(Reserved)

    def test_duplicate_id_rejected_same_class_tolerated(self):
        class First(Rule):
            rule_id = "local.dup"
            category = "local"

        try:
            register_rule(First)
            register_rule(First)  # re-registering the same class is a no-op

            class Second(Rule):
                rule_id = "local.dup"
                category = "local"

            with pytest.raises(ValueError, match="duplicate rule id"):
                register_rule(Second)
        finally:
            unregister_rule("local.dup")

    def test_filter_by_category_id_and_prefix(self):
        by_category = rules_for(select=["rates"])
        assert {r.rule_id for r in by_category} == {
            "rates.inconsistent",
            "rates.infeasible-cycle",
            "rates.rate-cap",
        }
        by_id = rules_for(select=["rates.inconsistent"])
        assert [r.rule_id for r in by_id] == ["rates.inconsistent"]
        ignored = rules_for(ignore=["platform", "runtime"])
        assert not any(r.category in ("platform", "runtime") for r in ignored)

    def test_unmatched_filter_token_raises(self):
        with pytest.raises(ValueError, match="matches no registered rule"):
            rules_for(select=["no-such-thing"])
        with pytest.raises(ValueError, match="matches no registered rule"):
            rules_for(ignore=["rats"])  # typo of "rates" must not silently pass


# --------------------------------------------------------------------------
# Runner fault isolation
# --------------------------------------------------------------------------
class RaisingRule(Rule):
    rule_id = "local.raising"
    category = "local"
    severity = "error"
    description = "always crashes"

    def check(self, model):
        raise RuntimeError("kaboom")


class CountingRule(Rule):
    rule_id = "local.counting"
    category = "local"
    severity = "info"
    description = "reports one violation per call"

    def check(self, model):
        return [self.violation("still running")]


class TestRunnerFaultIsolation:
    def test_raising_rule_recorded_and_remaining_rules_run(self):
        report = check_model(
            model_for(CONSISTENT_OIL), rules=[RaisingRule(), CountingRule()]
        )
        assert report.rules_checked == 2
        internal = [v for v in report.violations if v.rule_id == INTERNAL_ERROR_RULE_ID]
        assert len(internal) == 1
        assert internal[0].severity == "warning"
        assert internal[0].extra["failed_rule"] == "local.raising"
        assert "kaboom" in internal[0].message
        # the crash did not stop the pass: the second rule's violation is there
        assert [v.message for v in report.violations if v.rule_id == "local.counting"] == [
            "still running"
        ]
        # a crashed rule is a warning, not an error: the report is still ok
        assert report.ok

    def test_violations_sorted_errors_first(self):
        report = check_model(model_for(BROKEN_RATE_OIL))
        severities = [v.severity for v in report.violations]
        from repro.rules import base

        assert severities == sorted(severities, key=base.severity_rank)
        assert severities[0] == "error"


# --------------------------------------------------------------------------
# Built-in rules over real programs
# --------------------------------------------------------------------------
class TestBuiltinRules:
    def test_every_packaged_app_checks_clean(self):
        for spec in available_apps():
            report = Program.from_app(spec.name).check()
            assert report.ok, f"{spec.name}: {report.render()}"
            assert not report.warnings, f"{spec.name}: {report.render()}"

    def test_rate_inconsistency_reported_with_span(self):
        report = check_model(model_for(BROKEN_RATE_OIL))
        assert not report.ok
        hits = [v for v in report.errors if v.rule_id == "rates.inconsistent"]
        assert hits, report.render()
        violation = hits[0]
        assert violation.span is not None
        assert violation.span.line >= 1 and violation.span.column >= 1
        assert "2000" in violation.message and "6000" in violation.message
        assert violation.extra["conflict_kind"] == "fixed"

    def test_compile_error_is_the_only_violation(self):
        report = check_model(model_for("mod par { source int x = f() @ 1 kHz; !!! }"))
        assert [v.rule_id for v in report.violations] == ["lang.compile-error"]
        assert report.violations[0].span is not None

    def test_unregistered_function_and_default_stimulus(self):
        report = check_model(model_for(CONSISTENT_OIL))
        assert report.ok  # warnings only
        ids = {v.rule_id for v in report.violations}
        assert "runtime.unregistered-function" in ids
        assert "runtime.default-stimulus" in ids

    def test_zero_slack_latency_is_info(self):
        report = Program.from_app("quickstart").check()
        assert [v.rule_id for v in report.violations] == ["latency.zero-slack"]
        assert report.violations[0].severity == "info"

    def test_undeclared_function_flagged_before_run(self):
        from repro.runtime.functions import FunctionRegistry

        def make_registry():
            registry = FunctionRegistry()
            registry.register("average2", lambda pair: sum(pair) / len(pair))
            return registry

        program = Program.from_source(
            CONSISTENT_OIL, name="undeclared", registry=make_registry
        )
        report = program.check(select=["runtime.undeclared-function"])
        codes = [v.extra.get("warning_code") for v in report.violations]
        assert codes == ["undeclared-function"]


class TestUndeclaredSourceRule:
    def test_bare_iterator_is_an_error_and_the_run_raises(self):
        program = Program.from_source(
            QUICKSTART_OIL_SOURCE,
            name="bare-iterator",
            function_wcets=quickstart_wcets(),
            registry=quickstart_registry,
            signals={"samples": iter(itertools.count(0.0))},
        )
        report = program.check(select=["runtime.undeclared-source"])
        assert [v.severity for v in report.violations] == ["error"]
        assert report.violations[0].extra.get("warning_code") == "undeclared-source"
        assert report.ok is False
        with pytest.raises(TypeError, match="zero-argument factory"):
            program.run(Fraction(1, 100))


class TestGeneratorSourceRule:
    def test_rule_flags_generator_backed_stimuli_only(self):
        flagged = Program.from_app(
            "quickstart", signal=GeneratorStimulus(lambda: itertools.count())
        ).check(select=["runtime.generator-source"])
        assert [v.rule_id for v in flagged.violations] == ["runtime.generator-source"]
        violation = flagged.violations[0]
        assert violation.severity == "info"
        assert violation.extra.get("warning_code") == "generator-advance"

        closed_form = Program.from_app(
            "quickstart", signal=ConstantStimulus(1.0)
        ).check(select=["runtime.generator-source"])
        assert closed_form.violations == []

        default = Program.from_app("quickstart").check(
            select=["runtime.generator-source"]
        )
        assert default.violations == []  # the counting default is a ramp


class TestPlatformRules:
    def test_platform_rules_silent_without_platform(self):
        report = Program.from_app("quickstart").check(select=["platform"])
        assert report.violations == []

    def test_overutilised_and_task_overload(self):
        from fractions import Fraction

        report = Program.from_app("quickstart").check(
            platform=Platform.homogeneous(1, speed=Fraction(1, 1000)),
            select=["platform"],
        )
        ids = {v.rule_id for v in report.errors}
        assert "platform.overutilised" in ids
        assert "platform.task-overload" in ids
        overload = [v for v in report.errors if v.rule_id == "platform.task-overload"]
        assert overload[0].span is not None  # points at the task statement

    def test_unknown_affinity(self):
        platform = Platform.homogeneous(2)
        platform.mapping["no_such_task"] = "p0"
        report = Program.from_app("quickstart").check(
            platform=platform, select=["platform.unknown-affinity"]
        )
        assert [v.rule_id for v in report.errors] == ["platform.unknown-affinity"]

    def test_ample_platform_is_clean(self):
        report = Program.from_app("quickstart").check(
            platform=Platform.homogeneous(2), select=["platform"]
        )
        assert report.violations == []


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------
class TestCheckCli:
    def test_app_target_exits_zero(self, capsys):
        assert check_main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "quickstart:" in out

    def test_broken_oil_file_fails_with_json_span(self, tmp_path, capsys):
        path = tmp_path / "broken.oil"
        path.write_text(BROKEN_RATE_OIL, encoding="utf-8")
        assert check_main([str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        (report,) = payload["reports"]
        assert report["target"] == "broken"
        inconsistent = [
            v for v in report["violations"] if v["rule_id"] == "rates.inconsistent"
        ]
        assert inconsistent, report
        span = inconsistent[0]["span"]
        assert span is not None and span["line"] >= 1 and span["column"] >= 1
        assert inconsistent[0]["severity"] == "error"

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        path = tmp_path / "warned.oil"
        path.write_text(CONSISTENT_OIL, encoding="utf-8")
        assert check_main([str(path)]) == 0
        assert check_main([str(path), "--strict"]) == 1
        capsys.readouterr()

    def test_select_limits_the_pass(self, tmp_path, capsys):
        path = tmp_path / "warned.oil"
        path.write_text(CONSISTENT_OIL, encoding="utf-8")
        assert check_main([str(path), "--select", "rates", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["rules_checked"] == 3

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert check_main(["no-such-app"]) == 2
        assert check_main(["quickstart", "--select", "bogus"]) == 2
        assert check_main([]) == 2
        assert check_main(["quickstart", "--processors", "0"]) == 2
        missing = tmp_path / "missing.oil"
        assert check_main([str(missing)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_non_utf8_file_is_unreadable_not_a_crash(self, tmp_path, capsys):
        path = tmp_path / "latin.oil"
        path.write_bytes(b"\xff\xfe module")
        assert check_main([str(path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read {path}:" in err

    def test_processors_engages_platform_rules(self, capsys):
        assert check_main(["quickstart", "--processors", "2"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for cls in all_rule_classes():
            assert cls.rule_id in out

    def test_module_entry_dispatches_check(self, capsys):
        from repro.__main__ import main as module_main

        assert module_main(["check", "quickstart"]) == 0
        capsys.readouterr()
