"""``python -m repro`` -- command-line entry point.

One command group: ``check`` (pre-flight rule checks; see
:mod:`repro.rules.cli`).  The group layer exists so later CLIs attach
beside it rather than on top of it.
"""

import sys

_USAGE = (
    "usage: python -m repro check <app-or-oil-file> [--json] [--select ...] ...\n"
    "       python -m repro check --help"
)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE)
        return 0 if argv else 2
    group, rest = argv[0], argv[1:]
    if group == "check":
        from repro.rules.cli import main as check_main

        return check_main(rest)
    print(f"unknown command {group!r}; try: python -m repro --help", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
