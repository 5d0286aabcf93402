"""``python -m repro check`` -- the pre-flight gate's command-line surface.

Usage::

    python -m repro check TARGET [TARGET ...] [options]
    python -m repro check --list-rules

A ``TARGET`` is either the name of a packaged application (``quickstart``,
``pal_decoder``, ``rate_converter``, ``modal_mute``, ``modal_two_mode`` or
an alias) or a path to an ``.oil`` source file.  Options:

``--json``            machine output: one JSON object with per-target reports
``--select TOKEN``    only run rules matching TOKEN (category, rule id, or
                      dotted prefix); repeatable
``--ignore TOKEN``    skip rules matching TOKEN; repeatable
``--strict``          warnings also fail the check (exit 1)
``--processors N``    check against a homogeneous N-processor platform
``--top NAME``        top-level module for ``.oil`` file targets
``--list-rules``      print the registered rules and exit

Exit codes: 0 -- no failing violations on any target; 1 -- at least one
error (or warning under ``--strict``); 2 -- usage problems (unknown target,
unreadable file, bad filter token).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.platform.model import Platform
from repro.rules.model import CheckModel
from repro.rules.registry import all_rules, rules_for
from repro.rules.runner import CheckReport, check_model


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="pre-flight rule checks over OIL programs (apps or .oil files)",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        metavar="TARGET",
        help="packaged app name or path to an .oil source file",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="TOKEN",
        help="only run rules matching TOKEN (category, id, or dotted prefix); repeatable",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="TOKEN",
        help="skip rules matching TOKEN; repeatable",
    )
    parser.add_argument(
        "--strict", action="store_true", help="warnings also fail the check"
    )
    parser.add_argument(
        "--processors",
        type=int,
        metavar="N",
        help="check against a homogeneous N-processor platform",
    )
    parser.add_argument(
        "--top", metavar="NAME", help="top-level module for .oil file targets"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the registered rules and exit"
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.rule_id:32s} {rule.severity:8s} {rule.description}")
    return "\n".join(lines)


def load_target(
    target: str, *, platform: Optional[Platform], top: Optional[str]
) -> CheckModel:
    """A :class:`CheckModel` for one CLI target (app name or ``.oil`` path)."""
    from repro.api.program import Program

    if target.endswith(".oil") or Path(target).exists():
        path = Path(target)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise SystemExit(f"cannot read {target}: {exc}")
        program = Program.from_source(source, name=path.stem, top=top)
    else:
        from repro.api.apps import app_spec

        try:
            spec = app_spec(target)
        except KeyError as exc:
            raise SystemExit(f"unknown target {target!r}: {exc}")
        program = spec.build()
    return CheckModel(program, platform=platform)


def _failing(report: CheckReport, strict: bool) -> bool:
    return bool(report.errors) or (strict and bool(report.warnings))


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.targets:
        parser.print_usage(sys.stderr)
        print("error: no targets (pass an app name or an .oil file)", file=sys.stderr)
        return 2

    # Validate filters once, up front -- a typo should be a usage error for
    # every target, not a per-target crash.
    try:
        rules = rules_for(args.select or None, args.ignore or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    platform = None
    if args.processors is not None:
        if args.processors <= 0:
            print("error: --processors must be positive", file=sys.stderr)
            return 2
        platform = Platform.homogeneous(args.processors)

    reports: List[CheckReport] = []
    try:
        for target in args.targets:
            model = load_target(target, platform=platform, top=args.top)
            reports.append(check_model(model, rules=rules))
    except SystemExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = any(_failing(report, args.strict) for report in reports)
    if args.json:
        payload = {
            "ok": not failed,
            "strict": args.strict,
            "reports": [report.to_dict() for report in reports],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.render())
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
