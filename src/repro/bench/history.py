"""The append-only bench-run journal (``benchmarks/results/history.jsonl``).

One JSON line per (run, bench): ``run_id`` groups the benches of one
``repro bench run`` invocation, ``recorded`` is a UTC timestamp, and
``envelope`` is the full schema-v2 payload.  Appends go through the
fsynced :func:`repro.core.persistence.append_text` primitive, and reads
skip torn or blank lines instead of failing — a crashed run can lose
its last line, never the journal.

The journal is what turns the committed snapshots into a *trajectory*:
``repro bench history`` prints a metric's values run over run, and
``repro bench compare`` uses the run-over-run spread to widen its
regression allowance by measured noise (see :mod:`repro.bench.compare`).
"""

from __future__ import annotations

import json
import pathlib
from datetime import datetime, timezone
from typing import Any

from repro.bench.schema import validate_envelope
from repro.core.persistence import append_text
from repro.exceptions import BenchError

__all__ = [
    "append_run",
    "load_history",
    "metric_history",
    "next_run_id",
]


def load_history(path: "str | pathlib.Path") -> list[dict[str, Any]]:
    """All parseable journal entries, in file order."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    entries: list[dict[str, Any]] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail from a crashed append; skip, don't fail
        if isinstance(entry, dict) and isinstance(entry.get("envelope"), dict):
            entries.append(entry)
    return entries


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
    lines = [
        json.dumps(
            {
                "run_id": run_id,
                "recorded": recorded,
                "suite": suite,
                "bench": bench,
                "envelope": envelope,
            },
            sort_keys=True,
        )
        for bench, envelope in sorted(envelopes.items())
    ]
    # A fresh ``--results-dir`` does not exist until the first append.
    pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
    append_text(path, "".join(line + "\n" for line in lines))
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
