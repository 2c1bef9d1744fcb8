"""Persistence: the crash-safe writers and the one artifact codec.

A plan cache earns its keep across sessions: the synopses learned
during one day's workload should survive a server restart.  This
module serializes an :class:`~repro.core.histogram_predictor.HistogramPredictor`
(the production structure — a few kilobytes of histogram buckets plus
the random transform parameters) to a plain JSON-compatible dict and
restores it exactly: the reloaded predictor returns bit-identical
predictions, because the random projections, translations, bucket
contents and counters are all captured.

Every artifact the run writes — the predictor snapshot, the replay
trace, the lifecycle journal, the flight-recorder export and the bench
history — is **framed JSONL**: a header line naming the artifact kind
and schema version (plus the artifact's own header fields), then one
record per line, every line carrying a CRC32 of its canonical JSON
under the reserved ``"crc"`` key.  :func:`encode_artifact` writes that
format and :func:`decode_artifact` is its only reader.  A torn final
line is reported, not raised: the lifecycle journal and the
append-mode bench history (:func:`append_artifact`) tolerate it, while
the other artifacts, written by an atomic rename
(:func:`atomic_write_text` — temp file, fsync, ``os.replace``, with
optional ``.bakN`` rotation), treat it as damage.  With
``strict=False``, :func:`load_predictor` walks the backup chain and
finally falls back to a caller-supplied cold predictor instead of
raising mid-boot.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
import zlib
from collections.abc import Callable, Iterable, Mapping
from typing import Any

import numpy as np

from repro.core.histogram_predictor import HistogramPredictor
from repro.core.point import SamplePool
from repro.exceptions import PersistenceError
from repro.lsh.grid import Grid
from repro.lsh.transforms import PlanSpaceTransform

#: Artifact kind and schema version of a predictor snapshot (v1 was a
#: bare state dict, v2 a CRC envelope; v3 is one codec record).
SNAPSHOT_KIND = "predictor-snapshot"
STATE_VERSION = 3

#: Default number of rotated ``.bakN`` generations kept by
#: :func:`save_predictor`.
DEFAULT_BACKUPS = 1


def predictor_to_state(predictor: HistogramPredictor) -> dict:
    """Capture a histogram predictor as a JSON-compatible dict."""
    transforms = []
    for transform in predictor.ensemble:
        transforms.append(
            {
                "input_dims": transform.input_dims,
                "output_dims": transform.output_dims,
                "resolution": transform.resolution,
                "directions": transform.directions.tolist(),
                "translations": transform.translations.tolist(),
            }
        )
    return {
        "dimensions": predictor.dimensions,
        "plan_count": predictor.plan_count,
        "resolution": predictor.grids[0].resolution,
        "max_buckets": predictor.max_buckets,
        "radius": predictor.radius,
        "confidence_threshold": predictor.confidence_threshold,
        "noise_fraction": predictor.noise_fraction,
        "aggregation": predictor.aggregation,
        "axis_weights": (
            None
            if predictor.axis_weights is None
            else predictor.axis_weights.tolist()
        ),
        "total_points": predictor.total_points,
        "total_mass": predictor.total_mass,
        "transforms": transforms,
        "histograms": [
            [{"max_buckets": predictor.max_buckets, "buckets": b} for b in row]
            for row in predictor._packed.rows()
        ],
    }


def predictor_from_state(state: dict) -> HistogramPredictor:
    """Reconstruct a predictor saved by :func:`predictor_to_state`."""
    predictor = HistogramPredictor(
        SamplePool(state["dimensions"]),
        plan_count=state["plan_count"],
        transforms=len(state["transforms"]),
        resolution=state["resolution"],
        max_buckets=state["max_buckets"],
        radius=state["radius"],
        confidence_threshold=state["confidence_threshold"],
        noise_fraction=state["noise_fraction"],
        histogram_kind="incremental",
        output_dims=state["transforms"][0]["output_dims"],
        aggregation=state["aggregation"],
        axis_weights=(
            None
            if state["axis_weights"] is None
            else np.array(state["axis_weights"])
        ),
        seed=0,
    )
    # Replace the randomly initialized transforms with the saved ones,
    # and rebuild the grids (their bounds depend on the translations).
    predictor.ensemble.transforms = [
        PlanSpaceTransform.from_arrays(
            spec["input_dims"],
            spec["output_dims"],
            spec["resolution"],
            np.array(spec["directions"]),
            np.array(spec["translations"]),
        )
        for spec in state["transforms"]
    ]
    predictor.grids = [
        Grid(*transform.output_bounds, state["resolution"])
        for transform in predictor.ensemble
    ]
    # The stacked struct-of-arrays view caches directions and grid
    # bounds at construction; rebuild it or predictions would silently
    # use the discarded random transforms.
    predictor._rebuild_stacked()
    # Every restored row takes the predictor's bucket budget.
    predictor.load_histograms(
        [[spec["buckets"] for spec in row] for row in state["histograms"]],
        total_points=int(state["total_points"]),
        total_mass=float(state["total_mass"]),
    )
    return predictor


# ----------------------------------------------------------------------
# The artifact codec: framed JSONL
# ----------------------------------------------------------------------
def _crc(body: "Mapping[str, Any]") -> int:
    """CRC32 of a line body's canonical JSON (sorted keys, no spaces)."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def frame_line(body: "Mapping[str, Any]") -> str:
    """One artifact line: ``body`` plus the reserved ``"crc"`` key."""
    if "crc" in body:
        raise PersistenceError('"crc" is a reserved artifact key')
    return json.dumps({**body, "crc": _crc(body)}, sort_keys=True) + "\n"


def encode_artifact(
    kind: str,
    version: int,
    records: "Iterable[Mapping[str, Any]]",
    header: "Mapping[str, Any] | None" = None,
) -> str:
    """A whole artifact: the header line, then one line per record."""
    head = {**(header or {}), "artifact": kind, "version": version}
    return frame_line(head) + "".join(frame_line(record) for record in records)


def decode_artifact(
    text: str, kind: str, version: int, source: str = "<memory>"
) -> "tuple[dict[str, Any], list[dict[str, Any]], bool]":
    """Parse and verify an artifact: ``(header, records, torn)``.

    A final line that fails to parse is a torn tail (``torn`` True);
    whether that is tolerable is the caller's call, by how it writes.
    Anything else raises :class:`PersistenceError`: a missing or
    duplicate header, the wrong ``kind``, an unsupported ``version``,
    a line with no checksum or a wrong one, and an unparsable line
    that is not the last.
    """
    lines = [
        (number, raw)
        for number, raw in enumerate(text.splitlines(), start=1)
        if raw.strip()
    ]
    header: "dict[str, Any] | None" = None
    records: "list[dict[str, Any]]" = []
    torn = False
    for number, raw in lines:
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            if number == lines[-1][0]:
                torn = True
                break
            raise PersistenceError(
                f"{source}:{number}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(body, dict) or "crc" not in body:
            raise PersistenceError(f"{source}:{number}: line has no checksum")
        crc = body.pop("crc")
        if _crc(body) != crc:
            raise PersistenceError(
                f"{source}:{number}: checksum mismatch (tampered or corrupt)"
            )
        if header is None:
            if "artifact" not in body:
                break  # reported below as a missing header
            if body["artifact"] != kind:
                raise PersistenceError(
                    f"{source}: a {body['artifact']!r} artifact, "
                    f"not a {kind!r}"
                )
            if body.get("version") != version:
                raise PersistenceError(
                    f"{source}: {kind} version {body.get('version')!r} "
                    f"is not supported (expected {version})"
                )
            header = body
        elif "artifact" in body:
            raise PersistenceError(f"{source}:{number}: duplicate header")
        else:
            records.append(body)
    if header is None:
        raise PersistenceError(f"{source}: no header line")
    return header, records, torn


def read_artifact(
    path: "str | pathlib.Path", kind: str, version: int
) -> "tuple[dict[str, Any], list[dict[str, Any]], bool]":
    """:func:`decode_artifact` over a file; unreadable is damage too."""
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PersistenceError(f"cannot read {kind} {path}: {exc}") from exc
    return decode_artifact(text, kind, version, source=str(path))


# ----------------------------------------------------------------------
# Crash-safe file I/O
# ----------------------------------------------------------------------
def backup_path(path: "str | pathlib.Path", generation: int) -> pathlib.Path:
    """The ``generation``-th rotated backup of ``path`` (1 = newest)."""
    path = pathlib.Path(path)
    return path.with_name(f"{path.name}.bak{generation}")


def _rotate_backups(path: pathlib.Path, generations: int) -> None:
    """Shift ``path`` into the ``.bak`` chain, dropping the oldest."""
    oldest = backup_path(path, generations)
    if oldest.exists():
        oldest.unlink()
    for generation in range(generations - 1, 0, -1):
        source = backup_path(path, generation)
        if source.exists():
            os.replace(source, backup_path(path, generation + 1))
    os.replace(path, backup_path(path, 1))


def atomic_write_text(
    path: "str | pathlib.Path", text: str, backups: int = 0
) -> pathlib.Path:
    """Write ``text`` so a crash never leaves a torn file.

    The bytes land in a temp file in the target directory, are flushed
    and fsynced, and only then renamed over the target; with
    ``backups > 0`` the previous generation is rotated into the
    ``.bakN`` chain first (each step an atomic rename).
    """
    path = pathlib.Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    tmp = pathlib.Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if backups > 0 and path.exists():
            _rotate_backups(path, backups)
        os.replace(tmp, path)
    except OSError as exc:
        raise PersistenceError(f"failed to write {path}: {exc}") from exc
    finally:
        if tmp.exists():  # pragma: no cover - only on failure paths
            tmp.unlink()
    # Persist the directory entry too (best effort: not every platform
    # or filesystem supports fsyncing a directory).
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return path
    try:
        with contextlib.suppress(OSError):  # pragma: no cover
            os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def append_artifact(
    path: "str | pathlib.Path",
    kind: str,
    version: int,
    records: "Iterable[Mapping[str, Any]]",
) -> pathlib.Path:
    """Durably append framed ``records`` to the artifact at ``path``.

    The header is written only when the file is new.  The append is
    flushed and fsynced before returning, so a crash loses at most the
    line being written; the next append cuts that torn tail first, so
    it never becomes mid-file damage.
    """
    path = pathlib.Path(path)
    try:
        with open(path, "a+b") as handle:
            handle.seek(0)
            keep = handle.read().rfind(b"\n") + 1
            handle.truncate(keep)
            text = (
                "".join(frame_line(record) for record in records)
                if keep
                else encode_artifact(kind, version, records)
            )
            handle.write(text.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
    except OSError as exc:
        raise PersistenceError(f"failed to append to {path}: {exc}") from exc
    return path


def dumps_predictor(predictor: HistogramPredictor) -> str:
    """Serialize a predictor to a one-record snapshot artifact."""
    return encode_artifact(
        SNAPSHOT_KIND, STATE_VERSION, [predictor_to_state(predictor)]
    )


def _restore(decoded: tuple, source: str) -> HistogramPredictor:
    """The predictor of a decoded snapshot.  A snapshot is written
    atomically, so a torn tail is damage, not a crash artifact.  A CRC
    is no proof against a crafted file either: state that checks out
    but does not rebuild is damage too, and raises
    :class:`PersistenceError` like any other."""
    __, records, torn = decoded
    if torn or len(records) != 1:
        raise PersistenceError(f"{source}: truncated predictor snapshot")
    try:
        return predictor_from_state(records[0])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise PersistenceError(
            f"{source}: malformed predictor state ({exc})"
        ) from exc


def loads_predictor(text: str) -> HistogramPredictor:
    """Parse a document produced by :func:`dumps_predictor`."""
    decoded = decode_artifact(text, SNAPSHOT_KIND, STATE_VERSION)
    return _restore(decoded, "<memory>")


def save_predictor(
    predictor: HistogramPredictor,
    path: "str | pathlib.Path",
    backups: int = DEFAULT_BACKUPS,
) -> pathlib.Path:
    """Atomically write a predictor's snapshot, rotating up to
    ``backups`` previous generations to ``.bakN``."""
    if backups < 0:
        raise PersistenceError("backups must be >= 0")
    return atomic_write_text(path, dumps_predictor(predictor), backups)


def load_predictor(
    path: "str | pathlib.Path",
    strict: bool = True,
    cold: "HistogramPredictor | Callable[[], HistogramPredictor] | None" = None,
) -> HistogramPredictor:
    """Restore a predictor saved with :func:`save_predictor`.

    ``strict=True`` (the default) raises :class:`PersistenceError` on
    any damage — missing file, truncation, bit flips (checksum
    mismatch), or an unsupported schema version.  ``strict=False`` is
    the boot-time mode: on damage it walks the rotated ``.bakN``
    generations newest-first, and if none restores, returns ``cold``
    (a pre-built cold predictor, or the result of calling it when it
    is callable) instead of raising.  With no ``cold`` supplied,
    non-strict loading re-raises the primary file's error.
    """
    path = pathlib.Path(path)
    candidates = [path]
    if not strict:
        generation = 1
        while True:
            candidate = backup_path(path, generation)
            if not candidate.exists():
                break
            candidates.append(candidate)
            generation += 1
    primary_error: "PersistenceError | None" = None
    for candidate in candidates:
        try:
            decoded = read_artifact(candidate, SNAPSHOT_KIND, STATE_VERSION)
            return _restore(decoded, str(candidate))
        except PersistenceError as exc:
            primary_error = primary_error or exc
    if not strict and cold is not None:
        return cold() if callable(cold) else cold
    raise primary_error  # type: ignore[misc]
