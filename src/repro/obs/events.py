"""Synopsis lifecycle event journal (cache lineage forensics).

The paper's plan cache is *learned state*: points harvested on misses,
corrective inserts from negative feedback, precision/recall-driven
eviction, and drift-triggered histogram drops (PAPER.md §V).  Noise
elimination is a read-path decision, not a mutation: it is recorded on
the decision trace's ``noise_elimination`` span, never journaled.  PRs 1–9 made every *decision* observable — spans,
metrics, SLO burn rates, stage profiles — but the evolution of the
learned state itself left no record.  :class:`EventJournal` closes the
gap: an append-only journal of typed lifecycle events emitted from the
predictor mutation paths, the session decision flow, and the cache
eviction policy, each event carrying the template id, a global
monotonic sequence number, the *injected* clock timestamp, and the
active :class:`~repro.obs.tracing.DecisionTrace` sequence number so
spans and lifecycle events cross-link.

House invariants (the lockstep-parity discipline of the tracer and
profiler):

* **disabled is free** — with ``EventsConfig.enabled`` False (the
  default) no journal object exists, mutation paths pay one ``is
  None`` check, and nothing is allocated;
* **enabled is inert** — emission consumes no RNG, reads only the
  injected clock, and never feeds back into a decision: journaled runs
  are bit-identical to unjournaled ones (pinned by the parity suite
  and the ``instrumentation`` bench);
* **bounded, never silently** — the ring holds ``capacity`` events;
  older events rotate out under an explicit ``dropped`` counter, like
  the profiler's ``max_paths`` accounting.  The running stream digest
  covers every event ever emitted, rotation notwithstanding.

Export is JSONL through the crash-safe
:func:`~repro.core.persistence.append_text` writer; every exported
line carries a CRC32 of its canonical payload so :func:`load_journal`
distinguishes a torn tail (tolerated) from mid-file tampering
(rejected), mirroring the predictor snapshot envelope.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import zlib
from collections import deque
from typing import Any

from repro.config import EventsConfig
from repro.exceptions import PersistenceError
from repro.resilience.clocks import system_clock

#: Every lifecycle event type the pipeline emits, mapped to its paper
#: mechanism in DESIGN.md §12.
EVENT_KINDS = (
    "point_inserted",
    "histogram_built",
    "histogram_rebuilt",
    "histogram_shrunk",
    "cache_evicted",
    "drift_drop",
    "breaker_transition",
    "fallback_served",
)


def _canonical(event: "dict[str, Any]") -> str:
    """Canonical JSON of one event (sorted keys, no whitespace)."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


class _TemplateEmitter:
    """One template's bound emitter: ``emitter(kind, **fields)``.

    Handed to predictors, caches and sessions so emission sites never
    thread the template name (or the journal) explicitly.
    """

    __slots__ = ("_journal", "_template")

    def __init__(self, journal: "EventJournal", template: str) -> None:
        self._journal = journal
        self._template = template

    def __call__(self, kind: str, **fields: Any) -> "dict[str, Any]":
        return self._journal.emit(self._template, kind, **fields)

    def set_trace(self, seq: "int | None") -> None:
        """Pin the active decision-trace seq for cross-linking."""
        self._journal.set_trace(self._template, seq)


class EventJournal:
    """Deterministic, bounded, append-only lifecycle event journal.

    ``clock`` defaults to the injected ``system_clock`` alias; pass the
    framework clock (or a fake) for deterministic timestamps.  One
    journal is shared by every session of a framework, so the sequence
    numbers give a total order across templates.
    """

    def __init__(
        self,
        config: "EventsConfig | None" = None,
        clock=None,
    ) -> None:
        self.config = config if config is not None else EventsConfig(
            enabled=True
        )
        self._clock = clock if clock is not None else system_clock
        self._capacity = self.config.capacity
        self._ring: "deque[dict[str, Any]]" = deque()
        self._seq = 0
        self.emitted = 0
        self.dropped = 0
        self._by_kind: "dict[tuple[str, str], int]" = {}
        self._trace: "dict[str, int | None]" = {}
        self._hash = hashlib.sha256()
        self._metrics = None
        self._emit_counters: "dict[tuple[str, str], Any]" = {}
        self._dropped_counter = None
        self._occupancy_gauge = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, template: str) -> _TemplateEmitter:
        """A bound emitter for one template."""
        return _TemplateEmitter(self, template)

    def bind_metrics(self, registry) -> None:
        """Publish emit/drop/occupancy counts through ``registry``."""
        from repro.obs import names as metric_names

        self._metrics = registry
        self._emit_counters = {}
        self._dropped_counter = registry.counter(
            metric_names.EVENTS_DROPPED_TOTAL
        )
        self._occupancy_gauge = registry.gauge(metric_names.EVENTS_OCCUPANCY)

    def set_trace(self, template: str, seq: "int | None") -> None:
        """Record the active decision-trace seq for ``template``."""
        self._trace[template] = seq

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self, template: str, kind: str, **fields: Any
    ) -> "dict[str, Any]":
        """Append one typed event; returns the event dict."""
        event: "dict[str, Any]" = {
            "seq": self._seq,
            "ts": float(self._clock()),
            "template": template,
            "kind": kind,
            "trace": self._trace.get(template),
        }
        if fields:
            event.update(fields)
        self._seq += 1
        self.emitted += 1
        key = (template, kind)
        self._by_kind[key] = self._by_kind.get(key, 0) + 1
        self._hash.update((_canonical(event) + "\n").encode("utf-8"))
        if len(self._ring) >= self._capacity:
            self._ring.popleft()
            self.dropped += 1
            if self._dropped_counter is not None:
                self._dropped_counter.inc()
        self._ring.append(event)
        if self._metrics is not None:
            counter = self._emit_counters.get(key)
            if counter is None:
                from repro.obs import names as metric_names

                counter = self._metrics.counter(
                    metric_names.EVENTS_EMITTED_TOTAL,
                    template=template,
                    kind=kind,
                )
                self._emit_counters[key] = counter
            counter.inc()
            self._occupancy_gauge.set(float(len(self._ring)))
        return event

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def events(
        self,
        template: "str | None" = None,
        kind: "str | None" = None,
    ) -> "list[dict[str, Any]]":
        """Resident events, oldest first, optionally filtered."""
        return [
            dict(event)
            for event in self._ring
            if (template is None or event["template"] == template)
            and (kind is None or event["kind"] == kind)
        ]

    def digest(self) -> str:
        """SHA-256 over the canonical form of every event ever emitted
        (a running hash, so rotation does not weaken it)."""
        return self._hash.copy().hexdigest()

    def stats(self) -> "dict[str, Any]":
        """JSON-ready journal accounting."""
        by_kind: "dict[str, int]" = {}
        templates: "dict[str, dict[str, int]]" = {}
        for (template, kind), count in sorted(self._by_kind.items()):
            by_kind[kind] = by_kind.get(kind, 0) + count
            templates.setdefault(template, {})[kind] = count
        return {
            "enabled": True,
            "capacity": self._capacity,
            "emitted": self.emitted,
            "dropped": self.dropped,
            "occupancy": len(self._ring),
            "next_seq": self._seq,
            "digest": self.digest(),
            "by_kind": by_kind,
            "templates": templates,
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def export(self, path: "str | pathlib.Path") -> int:
        """Append the resident events to ``path`` as checksummed JSONL
        (crash-safe, via :func:`~repro.core.persistence.append_text`);
        returns the number of lines written."""
        return export_journal(self.events(), path)


def export_journal(
    events: "list[dict[str, Any]]", path: "str | pathlib.Path"
) -> int:
    """Durably append ``events`` to ``path``, one CRC-stamped JSON
    line each; returns the count written (0 writes nothing)."""
    from repro.core.persistence import append_text

    if not events:
        return 0
    lines = []
    for event in events:
        body = dict(event)
        body.pop("crc", None)
        record = dict(body)
        record["crc"] = zlib.crc32(_canonical(body).encode("utf-8"))
        lines.append(json.dumps(record, sort_keys=True))
    append_text(path, "\n".join(lines) + "\n")
    return len(lines)


def load_journal(
    path: "str | pathlib.Path",
) -> "tuple[list[dict[str, Any]], bool]":
    """Parse an exported journal: ``(events, torn_tail)``.

    A final line that fails to parse is a torn tail — the artifact of a
    crash mid-append — and is tolerated (``torn_tail`` True).  A
    non-tail parse failure or any per-line CRC mismatch raises
    :class:`~repro.exceptions.PersistenceError`: the journal was
    tampered with or corrupted, and lineage conclusions drawn from it
    would be forensically worthless.
    """
    path = pathlib.Path(path)
    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise PersistenceError(f"cannot read journal {path}: {exc}") from exc
    populated = [i for i, raw in enumerate(raw_lines) if raw.strip()]
    last = populated[-1] if populated else -1
    events: "list[dict[str, Any]]" = []
    torn = False
    for number, raw in enumerate(raw_lines):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            if number == last:
                torn = True
                break
            raise PersistenceError(
                f"{path}:{number + 1}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict) or "crc" not in record:
            raise PersistenceError(
                f"{path}:{number + 1}: journal line has no checksum"
            )
        crc = record.pop("crc")
        if zlib.crc32(_canonical(record).encode("utf-8")) != crc:
            raise PersistenceError(
                f"{path}:{number + 1}: event checksum mismatch "
                "(tampered or corrupt journal)"
            )
        events.append(record)
    return events, torn


def stream_digest(events: "list[dict[str, Any]]") -> str:
    """The digest a fresh journal would report after emitting exactly
    ``events`` — for verifying exported/loaded streams offline."""
    digest = hashlib.sha256()
    for event in events:
        body = dict(event)
        body.pop("crc", None)
        digest.update((_canonical(body) + "\n").encode("utf-8"))
    return digest.hexdigest()


def render_timeline(
    events: "list[dict[str, Any]]", limit: "int | None" = None
) -> str:
    """Terminal rendering of an event stream, oldest first."""
    if not events:
        return "no lifecycle events recorded"
    if limit is not None and limit > 0:
        events = events[-limit:]
    lines = []
    for event in events:
        detail = " ".join(
            f"{key}={_fmt_value(event[key])}"
            for key in sorted(event)
            if key not in ("seq", "ts", "template", "kind", "trace", "crc")
        )
        trace = event.get("trace")
        link = f" [trace {trace}]" if trace is not None else ""
        lines.append(
            f"#{event['seq']:>6d} t={event['ts']:>10.3f} "
            f"{event['template']:<4s} {event['kind']:<18s} "
            f"{detail}{link}".rstrip()
        )
    return "\n".join(lines)


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


__all__ = [
    "EVENT_KINDS",
    "EventJournal",
    "export_journal",
    "load_journal",
    "render_timeline",
    "stream_digest",
]
