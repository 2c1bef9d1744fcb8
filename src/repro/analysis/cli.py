"""Command line of the invariant linter.

Exposed two ways — ``repro lint ...`` (subcommand of the main CLI) and
``python -m repro.analysis ...`` (no package install needed beyond
``PYTHONPATH=src``, which is what CI runs).

Exit status: 0 clean (baselined findings do not fail the run, stale
baseline entries do not either — they are reported for cleanup), 1 on
fresh findings, unreadable files, or a failed ``--selftest``, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.core import lint_paths
from repro.analysis.report import (
    render_github,
    render_json,
    render_rules,
    render_text,
)
from repro.analysis.selftest import run_selftest
from repro.exceptions import ConfigurationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based invariant linter: determinism (RPR001), clock "
            "discipline (RPR002), metric-name registry (RPR003), "
            "exception hygiene (RPR004), atomic persistence (RPR005), "
            "float tolerance (RPR006), typed public API (RPR007), "
            "session-state ownership (RPR008), span discipline (RPR009); "
            "with --effects, the whole-program RPR1xx family: obs-layer "
            "purity (RPR101), predict-path determinism (RPR102), "
            "the _commit mutation seam (RPR103), documented public "
            "exceptions (RPR104)"
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
        "--effects",
        action="store_true",
        help=(
            "also run the whole-program effect analysis "
            "(RPR101-RPR104): call-graph purity, determinism taint, "
            "mutation discipline, exception documentation"
        ),
    )
    parser.add_argument(
        "--graph-out",
        metavar="PATH",
        help=(
            "with --effects: write the analyzed call graph artifact "
            "(Graphviz if PATH ends in .dot, JSON otherwise)"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file (default: {DEFAULT_BASELINE}; missing = empty)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file (report every finding as fresh)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline and exit 0",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run every rule against its known-bad/known-good fixtures",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every rule, its scope, and how to fix it",
    )
    return parser


def _run_selftest() -> int:
    failures = run_selftest()
    if failures:
        for failure in failures:
            print(f"selftest FAIL: {failure}", file=sys.stderr)
        return 1
    print("selftest OK: every rule fires on bad and stays quiet on good")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rules())
        return 0
    if args.selftest:
        return _run_selftest()
    if args.graph_out and not args.effects:
        print("error: --graph-out requires --effects", file=sys.stderr)
        return 2

    findings, errors = lint_paths(args.paths)
    if args.effects:
        # Imported lazily: the per-file path stays import-light and the
        # engine pulls in the project stub tables only when asked.
        from repro.analysis.effects import analyze_paths, write_graph

        effect_findings, project = analyze_paths(args.paths)
        findings = sorted(
            findings + effect_findings,
            key=lambda f: (f.path, f.line, f.col, f.rule),
        )
        errors.extend(project.errors)
        if args.graph_out:
            write_graph(project, args.graph_out)
    try:
        baseline = (
            [] if args.no_baseline else load_baseline(args.baseline)
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fresh, accepted, stale = apply_baseline(findings, baseline)

    if args.write_baseline:
        count = write_baseline(findings, args.baseline)
        print(f"baseline written: {count} entr(y/ies) -> {args.baseline}")
        return 0

    renderer = {
        "json": render_json,
        "github": render_github,
        "text": render_text,
    }[args.format]
    print(renderer(fresh, accepted, stale, errors))
    return 1 if fresh or errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
