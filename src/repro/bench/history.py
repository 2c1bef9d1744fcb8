"""The append-only bench-run journal (``benchmarks/results/history.jsonl``).

A ``bench-history`` artifact of the framed-JSONL codec in
:mod:`repro.core.persistence`, one record per (run, bench): ``run_id``
groups the benches of one ``repro bench run`` invocation, ``recorded``
is a UTC timestamp, and ``envelope`` is the full schema-v2 payload.
It is the codec's only append-mode artifact
(:func:`~repro.core.persistence.append_artifact`), so a torn tail — a
crashed run's last line — is tolerated, while damage anywhere else
raises :class:`~repro.exceptions.PersistenceError`.

The journal is what turns the committed snapshots into a *trajectory*:
``repro bench history`` prints a metric's values run over run, and
``repro bench compare`` uses the run-over-run spread to widen its
regression allowance by measured noise (see :mod:`repro.bench.compare`).
"""

from __future__ import annotations

import pathlib
from datetime import datetime, timezone
from typing import Any

from repro.bench.schema import validate_envelope
from repro.core.persistence import append_artifact, read_artifact
from repro.exceptions import BenchError

__all__ = [
    "append_run",
    "load_history",
    "metric_history",
    "next_run_id",
]

#: Artifact kind and schema version of the history journal.
HISTORY_KIND = "bench-history"
HISTORY_VERSION = 1


def load_history(path: "str | pathlib.Path") -> list[dict[str, Any]]:
    """All journal entries, in file order (none if the file is absent)."""
    if not pathlib.Path(path).exists():
        return []
    return read_artifact(path, HISTORY_KIND, HISTORY_VERSION)[1]


def next_run_id(entries: list[dict[str, Any]]) -> int:
    """One past the largest run id seen (run ids start at 1)."""
    largest = 0
    for entry in entries:
        run_id = entry.get("run_id")
        if isinstance(run_id, int) and run_id > largest:
            largest = run_id
    return largest + 1


def append_run(
    path: "str | pathlib.Path",
    envelopes: dict[str, dict[str, Any]],
    suite: str = "",
    recorded: "str | None" = None,
) -> int:
    """Append one run (several bench envelopes) to the journal.

    Returns the run id assigned.  Envelopes are validated first — an
    invalid envelope must not poison the journal.
    """
    if not envelopes:
        raise BenchError("cannot append an empty run to the history")
    for envelope in envelopes.values():
        validate_envelope(envelope)
    run_id = next_run_id(load_history(path))
    if recorded is None:
        recorded = datetime.now(timezone.utc).isoformat(timespec="seconds")
    records = [
        {
            "run_id": run_id,
            "recorded": recorded,
            "suite": suite,
            "bench": bench,
            "envelope": envelope,
        }
        for bench, envelope in sorted(envelopes.items())
    ]
    # A fresh ``--results-dir`` does not exist until the first append.
    pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
    append_artifact(path, HISTORY_KIND, HISTORY_VERSION, records)
    return run_id


def latest_run(
    entries: list[dict[str, Any]],
) -> "tuple[int, dict[str, dict[str, Any]]]":
    """The newest run's id and its envelopes by bench name."""
    run_id = next_run_id(entries) - 1
    if run_id < 1:
        raise BenchError("bench history is empty; run `repro bench run` first")
    envelopes = {
        str(entry["bench"]): entry["envelope"]
        for entry in entries
        if entry.get("run_id") == run_id and "bench" in entry
    }
    return run_id, envelopes


def metric_history(
    entries: list[dict[str, Any]],
    bench: str,
    metric_name: str,
    exclude_run: "int | None" = None,
) -> list[float]:
    """A metric's journal trajectory, oldest first."""
    values: list[float] = []
    for entry in entries:
        if entry.get("bench") != bench:
            continue
        if exclude_run is not None and entry.get("run_id") == exclude_run:
            continue
        metric_entry = entry["envelope"].get("metrics", {}).get(metric_name)
        if isinstance(metric_entry, dict) and isinstance(
            metric_entry.get("value"), (int, float)
        ):
            values.append(float(metric_entry["value"]))
    return values
