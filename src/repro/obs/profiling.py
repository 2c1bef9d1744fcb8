"""Deterministic in-process stage profiler for the decision hot path.

A subscriber of the span seam in :mod:`repro.obs.tracing`: every stage
the framework and the predictor bracket with ``trace.span(...)`` —
normalize → ground truth → predict (z-values → density lookup →
aggregate → noise elimination → confidence → cost estimate) → decide
→ optimize / execute → feedback → drift check — is timed into
per-template accumulators keyed by the full stage *path*, so both
cumulative and self time fall out (self = cumulative minus the direct
children's cumulative).

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


class _PathStat:
    """Accumulator for one stage path: call count + cumulative time."""

    __slots__ = ("calls", "seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0


class ProfileFrame:
    """One execution's stage walls, folded into the profiler at the end.

    The frame keeps a stack of ``(stage name, start time)`` mirroring
    the decision's open spans, with times handed in by the span seam;
    ``exit`` records ``(full path, duration)`` locally and
    :meth:`complete` closes whatever is still open (the root last) and
    folds the whole execution into the owning :class:`StageProfiler` in
    one pass — so a raised execution still lands.
    """

    __slots__ = ("_entries", "_path", "_profiler", "_starts", "_template")

    def __init__(self, profiler: "StageProfiler", template: str) -> None:
        self._profiler = profiler
        self._template = template
        self._path: list[str] = []
        self._starts: list[float] = []
        self._entries: list[tuple[tuple[str, ...], float]] = []

    def enter(self, name: str, now: float) -> None:
        self._path.append(name)
        self._starts.append(now)

    def exit(self, now: float) -> None:
        self._entries.append((tuple(self._path), now - self._starts.pop()))
        self._path.pop()

    def complete(self, now: float) -> None:
        """Close anything still open, the root last; fold the frame."""
        while self._starts:
            self.exit(now)
        self._profiler._fold(self._template, self._entries)


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
        self._stats: dict[str, dict[tuple[str, ...], _PathStat]] = {}
        self._order: dict[str, dict[tuple[str, ...], int]] = {}
        self._seen: dict[str, int] = {}
        self._profiled: dict[str, int] = {}
        self._dropped_paths: dict[str, int] = {}

    def begin(self, template: str) -> "ProfileFrame | None":
        """Sampling gate: a frame for every ``interval``-th execution."""
        seen = self._seen.get(template, 0)
        self._seen[template] = seen + 1
        if seen % self.config.interval != 0:
            return None
        return ProfileFrame(self, template)

    def _fold(self, template: str, entries: list[tuple[tuple[str, ...], float]]) -> None:
        stats = self._stats.setdefault(template, {})
        order = self._order.setdefault(template, {})
        self._profiled[template] = self._profiled.get(template, 0) + 1
        for path, seconds in entries:
            stat = stats.get(path)
            if stat is None:
                if len(stats) >= self.config.max_paths:
                    # Bounded memory: past the cap new paths are counted
                    # as dropped instead of accumulated (report() shows
                    # the drop count so truncation is never silent).
                    self._dropped_paths[template] = (
                        self._dropped_paths.get(template, 0) + 1
                    )
                    continue
                stat = stats[path] = _PathStat()
                order[path] = len(order)
            stat.calls += 1
            stat.seconds += seconds

    def reset(self) -> None:
        self._stats.clear()
        self._order.clear()
        self._seen.clear()
        self._profiled.clear()
        self._dropped_paths.clear()

    def _preorder(self, template: str) -> list[tuple[str, ...]]:
        """Paths parent-before-children, siblings in first-seen order."""
        order = self._order.get(template, {})

        def key(path: tuple[str, ...]) -> tuple[int, ...]:
            return tuple(
                order.get(path[: depth + 1], len(order))
                for depth in range(len(path))
            )

        return sorted(self._stats.get(template, {}), key=key)

    def report(self) -> dict[str, Any]:
        """Aggregate stage table: per template, per path, calls + time.

        ``self_seconds`` is cumulative time minus the cumulative time of
        the path's *direct* children, clamped at zero (clock jitter on
        near-empty stages can make the raw difference slightly
        negative).
        """
        templates: dict[str, Any] = {}
        for template, stats in self._stats.items():
            rows = []
            for path in self._preorder(template):
                stat = stats[path]
                child_seconds = sum(
                    other.seconds
                    for other_path, other in stats.items()
                    if len(other_path) == len(path) + 1
                    and other_path[: len(path)] == path
                )
                rows.append(
                    {
                        "path": list(path),
                        "stage": path[-1],
                        "depth": len(path) - 1,
                        "calls": stat.calls,
                        "cum_seconds": stat.seconds,
                        "self_seconds": max(stat.seconds - child_seconds, 0.0),
                    }
                )
            templates[template] = {
                "executions_seen": self._seen.get(template, 0),
                "executions_profiled": self._profiled.get(template, 0),
                "paths_dropped": self._dropped_paths.get(template, 0),
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
