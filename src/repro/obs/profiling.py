"""Deterministic in-process stage profiler for the decision hot path.

A subscriber of the span seam in :mod:`repro.obs.tracing`: every stage
the framework and the predictor bracket with ``trace.span(...)`` —
normalize → ground truth → predict (z-values → density lookup →
aggregate → noise elimination → confidence → cost estimate) → decide
→ optimize / execute → feedback → drift check — is timed into a
per-template tree with one node per stage *path*, updated in place at
each span exit, so both cumulative and self time fall out (self =
cumulative minus the direct children's cumulative).

Three properties are load-bearing:

* **Decisions never change.**  Profiling consumes no RNG and never
  flips ``trace.active`` — a profiled-but-unsampled execution runs on
  the tracer's inactive trace, so attribute computation stays skipped
  and ``execute_batch`` keeps its precomputed vectorized predictions.
  The instrumentation parity suite pins this bit-for-bit.
* **One clock.**  A :class:`ProfileFrame` reads no clock: the seam
  hands every ``enter``/``exit``/``complete`` the timestamp it read
  for the span, so the profiler and the stage metrics see the same
  numbers, and tests drive the seam with a fake clock.
* **Deterministic sampling.**  Every ``interval``-th execution per
  template is profiled (a plain counter, no RNG).  With
  ``ProfileConfig.enabled`` false the tracer owns no profiler at all.

Rendering: :meth:`StageProfiler.report` returns the aggregate,
:func:`render_profile` draws the text stage tree with a coverage
footer per template, and :meth:`StageProfiler.collapsed` emits
``template;stage;...`` → self-microseconds stacks in the collapsed
format flamegraph tools eat.
"""

from __future__ import annotations

from typing import Any

from repro.config import ProfileConfig

__all__ = [
    "ProfileFrame",
    "StageProfiler",
    "render_profile",
]

#: Name of the implicit root stage wrapping one whole execution (the
#: same name ``DecisionTrace`` gives its root span).
ROOT_STAGE = "decision"

#: Stage paths one template's tree holds; a span on any new path past
#: the cap lands on the template's ``dropped`` node, so the tree stays
#: bounded and the report counts what it dropped.
MAX_PATHS = 256


class _Node:
    """One stage path of a template's tree: call count, cumulative
    time, the open span's start, and the direct children in first-seen
    order."""

    __slots__ = ("calls", "children", "seconds", "start")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.start = 0.0
        self.children: dict[str, _Node] = {}


class _Template:
    """One template's stage tree and its execution/path accounting.

    ``dropped`` is the node every span past the :data:`MAX_PATHS` cap
    walks on (its descendants too): its ``calls`` count the dropped
    span exits, and it never gains a child.
    """

    __slots__ = ("dropped", "paths", "profiled", "root", "seen")

    def __init__(self) -> None:
        self.root = _Node()
        self.dropped = _Node()
        self.paths = 0
        self.seen = 0
        self.profiled = 0


class ProfileFrame:
    """One execution's walk over its template's stage tree.

    The frame keeps a stack of the nodes of the decision's open spans;
    with times handed in by the span seam, ``enter`` stamps the node's
    start and ``exit`` adds the span's duration to it in place.
    :meth:`complete` closes whatever is still open (the root last) — so
    a raised execution still lands.  A node is open at most once at a
    time (it is one path), so the start can live on the node.
    """

    __slots__ = ("_nodes", "_template")

    def __init__(self, template: _Template) -> None:
        self._template = template
        self._nodes = [template.root]

    def enter(self, name: str, now: float) -> None:
        parent = self._nodes[-1]
        node = parent.children.get(name)
        if node is None:
            # Bounded memory: past ``MAX_PATHS`` a new path, and all
            # below it, walks on the dropped node instead of growing the
            # tree (report() shows the drop count, so truncation is
            # never silent).
            template = self._template
            if parent is template.dropped or template.paths >= MAX_PATHS:
                node = template.dropped
            else:
                template.paths += 1
                node = parent.children[name] = _Node()
        node.start = now
        self._nodes.append(node)

    def exit(self, now: float) -> None:
        node = self._nodes.pop()
        node.calls += 1
        node.seconds += now - node.start

    def complete(self, now: float) -> None:
        """Close anything still open, the root last; count the frame."""
        while len(self._nodes) > 1:
            self.exit(now)
        self._template.profiled += 1


class StageProfiler:
    """Per-template stage-time aggregation over many executions.

    One instance is shared by every session of a framework (or owned by
    a standalone session), so ``report()`` covers the whole deployment.
    ``begin`` is the sampling gate: it returns a :class:`ProfileFrame`
    for every ``interval``-th execution of each template and ``None``
    otherwise — deterministic, counter-based, RNG-free.
    """

    def __init__(self, config: "ProfileConfig | None" = None) -> None:
        self.config = config if config is not None else ProfileConfig(enabled=True)
        self._templates: dict[str, _Template] = {}

    def begin(self, template: str) -> "ProfileFrame | None":
        """Sampling gate: a frame for every ``interval``-th execution."""
        stats = self._templates.get(template)
        if stats is None:
            stats = self._templates[template] = _Template()
        seen = stats.seen
        stats.seen = seen + 1
        if seen % self.config.interval != 0:
            return None
        return ProfileFrame(stats)

    def reset(self) -> None:
        self._templates.clear()

    def report(self) -> dict[str, Any]:
        """Aggregate stage table: per template, per path, calls + time.

        Rows come parent before children, siblings in first-seen order.
        ``self_seconds`` is cumulative time minus the cumulative time of
        the path's *direct* children, clamped at zero (clock jitter on
        near-empty stages can make the raw difference slightly
        negative).
        """
        templates: dict[str, Any] = {}
        for name, stats in self._templates.items():
            if not stats.profiled:
                continue
            rows: list[dict[str, Any]] = []
            _append_rows(stats.root, [], rows)
            templates[name] = {
                "executions_seen": stats.seen,
                "executions_profiled": stats.profiled,
                "paths_dropped": stats.dropped.calls,
                "stages": rows,
            }
        return {
            "enabled": self.config.enabled,
            "interval": self.config.interval,
            "templates": templates,
        }

    def collapsed(self) -> dict[str, float]:
        """Collapsed stacks: ``template;stage;...`` → self-microseconds.

        The flamegraph convention — one entry per full stack, weighted
        by self time, semicolon-joined frames.
        """
        report = self.report()
        stacks: dict[str, float] = {}
        for template, payload in report["templates"].items():
            for row in payload["stages"]:
                key = ";".join([template, *row["path"]])
                stacks[key] = row["self_seconds"] * 1e6
        return stacks


def _append_rows(
    node: _Node, path: list[str], rows: list[dict[str, Any]]
) -> None:
    """Append ``node``'s descendants to ``rows`` in preorder."""
    for name, child in node.children.items():
        child_path = [*path, name]
        child_seconds = sum(
            grandchild.seconds for grandchild in child.children.values()
        )
        rows.append(
            {
                "path": child_path,
                "stage": name,
                "depth": len(path),
                "calls": child.calls,
                "cum_seconds": child.seconds,
                "self_seconds": max(child.seconds - child_seconds, 0.0),
            }
        )
        _append_rows(child, child_path, rows)


def _render_template(name: str, payload: dict[str, Any], lines: list[str]) -> None:
    profiled = payload["executions_profiled"]
    lines.append(
        f"template {name}: {profiled} of {payload['executions_seen']} "
        "executions profiled"
    )
    if payload["paths_dropped"]:
        lines.append(
            f"  (truncated: {payload['paths_dropped']} stage paths over cap)"
        )
    lines.append(
        f"  {'stage':<32s} {'calls':>8s} {'cum ms':>10s} "
        f"{'self ms':>10s} {'per-call us':>12s}"
    )
    named = None
    for row in payload["stages"]:
        indent = "  " * row["depth"]
        per_call = (
            row["cum_seconds"] / row["calls"] * 1e6 if row["calls"] else 0.0
        )
        lines.append(
            f"  {indent + row['stage']:<32s} {row['calls']:>8d} "
            f"{row['cum_seconds'] * 1e3:>10.3f} "
            f"{row['self_seconds'] * 1e3:>10.3f} {per_call:>12.1f}"
        )
        if row["path"] == [ROOT_STAGE] and row["cum_seconds"] > 0.0:
            named = 1.0 - row["self_seconds"] / row["cum_seconds"]
    if named is not None:
        lines.append(f"  named stages cover {named:.1%} of decision time")


def render_profile(report: dict[str, Any]) -> str:
    """Human-readable stage tree for ``repro profile``."""
    lines = [
        "stage profiler"
        f" (interval {report['interval']},"
        f" {'enabled' if report['enabled'] else 'disabled'})"
    ]
    for name in sorted(report["templates"]):
        _render_template(name, report["templates"][name], lines)
    if len(lines) == 1:
        lines.append("no executions profiled")
    return "\n".join(lines)
