"""Command line of the invariant linter.

Exposed two ways — ``repro lint ...`` (subcommand of the main CLI) and
``python -m repro.analysis ...`` (no package install needed beyond
``PYTHONPATH=src``, which is what CI runs).

Exit status: 0 clean, 1 on findings or unreadable files, 2 on usage
errors.  The rules themselves are checked by their fixture pairs under
``tests/analysis/fixtures/``.
"""

from __future__ import annotations

import argparse

from repro.analysis.core import lint_paths
from repro.analysis.report import (
    render_github,
    render_json,
    render_rules,
    render_text,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based invariant linter: determinism (RPR001), clock "
            "discipline (RPR002), metric-name registry (RPR003), "
            "exception hygiene (RPR004), atomic persistence (RPR005), "
            "float tolerance (RPR006), typed public API (RPR007), "
            "session-state ownership (RPR008), span discipline (RPR009), "
            "I/O-free observability (RPR101), documented exceptions "
            "(RPR104)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help=(
            "report format (json for machine consumption; github emits "
            "::error workflow commands for inline PR annotations)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every rule, its scope, and how to fix it",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rules())
        return 0

    findings, errors = lint_paths(args.paths)
    renderer = {
        "json": render_json,
        "github": render_github,
        "text": render_text,
    }[args.format]
    print(renderer(findings, errors))
    return 1 if findings or errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
