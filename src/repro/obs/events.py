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
  the profiler's path-cap accounting.  The running stream digest
  covers every event ever emitted, rotation notwithstanding.

Export is a ``lifecycle-journal`` artifact of the framed-JSONL codec in
:mod:`repro.core.persistence`, one event per CRC-stamped line, written
whole by an atomic rename: re-exporting to a path replaces its events.
:func:`load_journal` tolerates a torn tail and rejects tampering.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from collections import deque
from typing import Any

from repro.config import EventsConfig
from repro.obs import names as metric_names
from repro.obs.registry import Counter, MetricsRegistry
from repro.resilience.clocks import system_clock

#: Artifact kind and schema version of an exported journal.
JOURNAL_KIND = "lifecycle-journal"
JOURNAL_VERSION = 1

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
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.config = config if config is not None else EventsConfig(
            enabled=True
        )
        self._clock = clock if clock is not None else system_clock
        self._capacity = self.config.capacity
        self._ring: "deque[dict[str, Any]]" = deque()
        self._seq = 0
        self._trace: "dict[str, int | None]" = {}
        self._hash = hashlib.sha256()
        # The emit/drop counts live only in the registry (a private one
        # when none is given); one emit counter per (template, kind),
        # created at that pair's first event.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._emit_counters: "dict[tuple[str, str], Counter]" = {}
        self._dropped_counter = self._metrics.counter(
            metric_names.EVENTS_DROPPED_TOTAL
        )
        self._occupancy_gauge = self._metrics.gauge(
            metric_names.EVENTS_OCCUPANCY
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, template: str) -> _TemplateEmitter:
        """A bound emitter for one template."""
        return _TemplateEmitter(self, template)

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
        self._hash.update((_canonical(event) + "\n").encode("utf-8"))
        if len(self._ring) >= self._capacity:
            self._ring.popleft()
            self._dropped_counter.inc()
        self._ring.append(event)
        key = (template, kind)
        counter = self._emit_counters.get(key)
        if counter is None:
            counter = self._emit_counters[key] = self._metrics.counter(
                metric_names.EVENTS_EMITTED_TOTAL,
                template=template,
                kind=kind,
            )
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

    @property
    def emitted(self) -> int:
        """Events ever emitted (``ppc_events_emitted_total``, summed)."""
        return int(sum(c.value for c in self._emit_counters.values()))

    @property
    def dropped(self) -> int:
        """Events rotated out of the ring (``ppc_events_dropped_total``)."""
        return int(self._dropped_counter.value)

    def stats(self) -> "dict[str, Any]":
        """JSON-ready journal accounting, read from the registry's
        counters."""
        by_kind: "dict[str, int]" = {}
        templates: "dict[str, dict[str, int]]" = {}
        for (template, kind), counter in sorted(self._emit_counters.items()):
            count = int(counter.value)
            by_kind[kind] = by_kind.get(kind, 0) + count
            templates.setdefault(template, {})[kind] = count
        return {
            "enabled": True,
            "capacity": self._capacity,
            "emitted": sum(by_kind.values()),
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
        """Write the resident events to ``path`` (see
        :func:`export_journal`); returns the number written."""
        return export_journal(self.events(), path)


def export_journal(
    events: "list[dict[str, Any]]", path: "str | pathlib.Path"
) -> int:
    """Atomically write ``events`` to ``path`` as a journal artifact;
    returns the count written (0 writes nothing)."""
    from repro.core.persistence import atomic_write_text, encode_artifact

    if not events:
        return 0
    atomic_write_text(
        path, encode_artifact(JOURNAL_KIND, JOURNAL_VERSION, events)
    )
    return len(events)


def load_journal(
    path: "str | pathlib.Path",
) -> "tuple[list[dict[str, Any]], bool]":
    """Parse an exported journal: ``(events, torn_tail)``.

    A torn final line is tolerated (``torn_tail`` True); any other
    damage raises :class:`~repro.exceptions.PersistenceError`, since
    lineage conclusions drawn from a tampered journal are worthless.
    """
    from repro.core.persistence import read_artifact

    __, events, torn = read_artifact(path, JOURNAL_KIND, JOURNAL_VERSION)
    return events, torn


def stream_digest(events: "list[dict[str, Any]]") -> str:
    """The digest a fresh journal would report after emitting exactly
    ``events`` — for verifying exported/loaded streams offline."""
    digest = hashlib.sha256()
    for event in events:
        digest.update((_canonical(event) + "\n").encode("utf-8"))
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
            if key not in ("seq", "ts", "template", "kind", "trace")
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
