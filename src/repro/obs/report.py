"""Rendering of the service health report (``repro report``).

Operates purely on the JSON-ready dict produced by
:meth:`repro.service.PlanCachingService.health_report` — no imports
from the core pipeline (only the metric names of
:mod:`repro.obs.names`), so the renderers stay usable on reports loaded
back from disk.  Three renderers:

* :func:`render_report_text` — terminal scorecard: per-template
  coverage/purity/accuracy/regret, SLO burn-rate states, and unicode
  sparklines of the retained time series;
* :func:`render_report_json` — canonical JSON (sorted keys, stable);
* :func:`render_report_html` — a self-contained single-file HTML page
  (inline CSS + SVG sparklines, no external assets).
"""

from __future__ import annotations

import html as _html
import json
from typing import Any

from repro.obs import names

__all__ = [
    "render_report_html",
    "render_report_json",
    "render_report_text",
    "sparkline",
]

_BLOCKS = "▁▂▃▄▅▆▇█"

#: State → terminal marker / HTML badge color.
_STATE_MARKS = {"ok": "✓", "warning": "!", "breach": "✗"}
_STATE_COLORS = {"ok": "#2e7d32", "warning": "#e09c00", "breach": "#c62828"}


def sparkline(values: "list[float]") -> str:
    """Unicode block sparkline of a value series ("" when empty)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi - lo <= 1e-12:
        return _BLOCKS[0] * len(values)
    top = len(_BLOCKS) - 1
    return "".join(
        _BLOCKS[int((value - lo) / (hi - lo) * top)] for value in values
    )


def _series_values(
    telemetry: "dict[str, Any] | None",
    name: str,
    field: "str | None" = None,
    **labels: str,
) -> "list[float]":
    """Point values of one retained series (empty when absent)."""
    if not telemetry:
        return []
    for series in telemetry.get("series", []):
        if series["name"] != name:
            continue
        if field is not None and series.get("field") != field:
            continue
        have = series.get("labels", {})
        if all(have.get(key) == value for key, value in labels.items()):
            return [point[1] for point in series["points"]]
    return []


def _fmt(value: "float | None", digits: int = 3) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


# ----------------------------------------------------------------------
# Text
# ----------------------------------------------------------------------
def render_report_text(report: "dict[str, Any]") -> str:
    """The health report as a terminal scorecard."""
    lines: list[str] = []
    worst = report.get("worst_state", "ok")
    clock = report.get("clock", {})
    lines.append(
        f"PPC health report — overall {worst.upper()} "
        f"[clock: {clock.get('source', '?')}]"
    )
    telemetry = report.get("telemetry")
    if telemetry:
        lines.append(
            f"telemetry: {telemetry.get('samples', 0)} samples every "
            f"{telemetry.get('interval', '?')}s, "
            f"{len(telemetry.get('series', []))} live series"
        )
    for template, scorecard in sorted(
        report.get("templates", {}).items()
    ):
        synopsis = scorecard.get("synopsis", {})
        rolling = scorecard.get("rolling", {})
        monitor = scorecard.get("monitor", {})
        lines.append("")
        lines.append(
            f"template {template} — "
            f"{scorecard.get('executions', 0)} executions"
        )
        lines.append(
            f"  synopsis   coverage={_fmt(synopsis.get('coverage'))} "
            f"purity={_fmt(synopsis.get('purity'))} "
            f"entropy={_fmt(synopsis.get('entropy'))} "
            f"points={synopsis.get('total_points', 0)}"
        )
        lines.append(
            f"  rolling    accuracy={_fmt(rolling.get('accuracy'))} "
            f"regret={_fmt(rolling.get('regret'), 4)} "
            f"margin={_fmt(rolling.get('confidence_margin'))} "
            f"answered={_fmt(rolling.get('answered_fraction'))} "
            f"(window={rolling.get('window', 0)})"
        )
        lines.append(
            f"  monitor    precision={_fmt(monitor.get('precision_estimate'))} "
            f"recall={_fmt(monitor.get('recall_estimate'))} "
            f"drift_pressure={_fmt(monitor.get('drift_pressure'))}"
        )
        attribution = scorecard.get("regret_attribution") or {}
        stages = attribution.get("stages") or {}
        if stages:
            blamed = ", ".join(
                f"{stage}×{bucket['count']}"
                for stage, bucket in sorted(stages.items())
            )
            lines.append(f"  regret     blamed stages: {blamed}")
        for row in report.get("slo", {}).get(template, []):
            mark = _STATE_MARKS.get(row["state"], "?")
            lines.append(
                f"  slo {mark} {row['name']:<20} {row['state']:<8} "
                f"burn short={_fmt(row['burn_short'], 2)} "
                f"long={_fmt(row['burn_long'], 2)} "
                f"(objective {row['objective']})"
            )
        executions = _series_values(
            telemetry, names.EXECUTIONS_TOTAL, template=template
        )
        if executions:
            lines.append(f"  executions {sparkline(executions)}")
        p95 = _series_values(
            telemetry,
            names.STAGE_SECONDS,
            field="p95",
            template=template,
            stage="predict",
        )
        if p95:
            lines.append(
                f"  predict p95 {sparkline(p95)} "
                f"(last {_fmt(p95[-1], 6)}s)"
            )
    lifecycle = report.get("lifecycle")
    if lifecycle:
        stats = lifecycle.get("stats", {})
        lines.append("")
        lines.append(
            f"lifecycle journal: {stats.get('emitted', 0)} events emitted, "
            f"{stats.get('dropped', 0)} rotated out "
            f"(ring {stats.get('occupancy', 0)}/{stats.get('capacity', 0)})"
        )
        by_kind = stats.get("by_kind") or {}
        if by_kind:
            lines.append(
                "  by kind: "
                + ", ".join(
                    f"{kind}×{count}"
                    for kind, count in sorted(by_kind.items())
                )
            )
        for event in lifecycle.get("timeline", [])[-8:]:
            lines.append(
                f"  #{event.get('seq', '?'):>6} "
                f"{event.get('template', '?'):<4} "
                f"{event.get('kind', '?')}"
            )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def render_report_json(report: "dict[str, Any]") -> str:
    """Canonical JSON rendering (sorted keys, trailing newline)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------
def _svg_sparkline(
    values: "list[float]", width: int = 160, height: int = 28
) -> str:
    """Inline SVG polyline of a series (empty string when no points)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = hi - lo if hi - lo > 1e-12 else 1.0
    n = len(values)
    step = width / max(1, n - 1)
    points = " ".join(
        f"{index * step:.1f},"
        f"{height - 2 - (value - lo) / span * (height - 4):.1f}"
        for index, value in enumerate(values)
    )
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<polyline fill="none" stroke="#456" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


def _badge(state: str) -> str:
    color = _STATE_COLORS.get(state, "#666")
    return (
        f'<span class="badge" style="background:{color}">'
        f"{_html.escape(state)}</span>"
    )


def render_report_html(report: "dict[str, Any]") -> str:
    """The health report as one self-contained HTML page."""
    worst = report.get("worst_state", "ok")
    telemetry = report.get("telemetry")
    parts: list[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>PPC health report</title>",
        "<style>",
        "body{font:14px/1.5 system-ui,sans-serif;margin:2em;color:#223}",
        "table{border-collapse:collapse;margin:.5em 0}",
        "td,th{border:1px solid #ccd;padding:.25em .6em;text-align:right}",
        "th{background:#eef;text-align:left}",
        ".badge{color:#fff;border-radius:3px;padding:0 .5em;"
        "font-size:12px}",
        "h2{margin-top:1.5em;border-bottom:1px solid #ccd}",
        "</style></head><body>",
        f"<h1>PPC health report — {_badge(worst)}</h1>",
        f"<p>clock source: "
        f"<code>{_html.escape(str(report.get('clock', {}).get('source', '?')))}"
        f"</code></p>",
    ]
    for template, scorecard in sorted(
        report.get("templates", {}).items()
    ):
        synopsis = scorecard.get("synopsis", {})
        rolling = scorecard.get("rolling", {})
        monitor = scorecard.get("monitor", {})
        parts.append(f"<h2>template {_html.escape(template)}</h2>")
        parts.append(
            "<table><tr><th>statistic</th><th>value</th></tr>"
            + "".join(
                f"<tr><th>{_html.escape(label)}</th>"
                f"<td>{_fmt(value, 4)}</td></tr>"
                for label, value in (
                    ("coverage", synopsis.get("coverage")),
                    ("purity", synopsis.get("purity")),
                    ("entropy", synopsis.get("entropy")),
                    ("rolling accuracy", rolling.get("accuracy")),
                    ("rolling regret", rolling.get("regret")),
                    ("confidence margin", rolling.get("confidence_margin")),
                    ("drift pressure", monitor.get("drift_pressure")),
                )
            )
            + "</table>"
        )
        slo_rows = report.get("slo", {}).get(template, [])
        if slo_rows:
            parts.append(
                "<table><tr><th>SLO</th><th>state</th>"
                "<th>burn (short)</th><th>burn (long)</th>"
                "<th>objective</th></tr>"
                + "".join(
                    f"<tr><th>{_html.escape(row['name'])}</th>"
                    f"<td>{_badge(row['state'])}</td>"
                    f"<td>{_fmt(row['burn_short'], 2)}</td>"
                    f"<td>{_fmt(row['burn_long'], 2)}</td>"
                    f"<td>{row['objective']}</td></tr>"
                    for row in slo_rows
                )
                + "</table>"
            )
        executions = _series_values(
            telemetry, names.EXECUTIONS_TOTAL, template=template
        )
        p95 = _series_values(
            telemetry,
            names.STAGE_SECONDS,
            field="p95",
            template=template,
            stage="predict",
        )
        for label, values in (
            ("executions", executions),
            ("predict p95 (s)", p95),
        ):
            svg = _svg_sparkline(values)
            if svg:
                parts.append(
                    f"<p>{_html.escape(label)}: {svg} "
                    f"<small>last {_fmt(values[-1], 6)}</small></p>"
                )
    lifecycle = report.get("lifecycle")
    if lifecycle:
        stats = lifecycle.get("stats", {})
        parts.append("<h2>lifecycle journal</h2>")
        parts.append(
            f"<p>{stats.get('emitted', 0)} events emitted, "
            f"{stats.get('dropped', 0)} rotated out (ring "
            f"{stats.get('occupancy', 0)}/{stats.get('capacity', 0)})</p>"
        )
        timeline = lifecycle.get("timeline", [])
        if timeline:
            parts.append(
                "<table><tr><th>seq</th><th>template</th><th>kind</th>"
                "<th>trace</th></tr>"
                + "".join(
                    f"<tr><td>{event.get('seq', '')}</td>"
                    f"<th>{_html.escape(str(event.get('template', '')))}</th>"
                    f"<td>{_html.escape(str(event.get('kind', '')))}</td>"
                    f"<td>{'' if event.get('trace') is None else event['trace']}"
                    f"</td></tr>"
                    for event in timeline[-16:]
                )
                + "</table>"
            )
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
