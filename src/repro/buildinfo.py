"""Build identity: package version + source commit.

Shared by the ``ppc_build_info`` gauge (so every scrape says exactly
what code is serving) and by the bench harness's env fingerprint (so a
regression in ``history.jsonl`` points at the commit that caused it).

Commit detection never shells out: ``$REPRO_COMMIT`` wins (CI sets it
from the checkout SHA), otherwise the enclosing checkout's
``.git/HEAD`` is parsed directly (symbolic ref → loose ref file →
``packed-refs``), once per process; installed outside a checkout the
answer is ``"unknown"``.  All filesystem errors degrade to
``"unknown"`` — this must never take down a metrics scrape.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

__all__ = ["VERSION", "commit_id"]

#: Package version (mirrors ``pyproject.toml``; the package is used
#: from a source tree via PYTHONPATH, so importlib.metadata has no
#: distribution to ask).
VERSION = "1.0.0"


def _read_git_head(repo_root: Path) -> "str | None":
    try:
        content = (repo_root / ".git" / "HEAD").read_text().strip()
    except OSError:
        return None
    if not content.startswith("ref:"):
        return content[:40] or None
    ref = content.split(None, 1)[1].strip()
    try:
        return (repo_root / ".git" / ref).read_text().strip()[:40] or None
    except OSError:
        pass
    try:
        packed = (repo_root / ".git" / "packed-refs").read_text()
    except OSError:
        return None
    for line in packed.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1] == ref:
            return parts[0][:40]
    return None


@functools.cache
def _checkout_commit() -> str:
    """The enclosing checkout's HEAD, read on the first call: a moved
    checkout does not change the code a running process has loaded, and
    every service construction asks (the reads cost ~0.4 ms)."""
    return _read_git_head(Path(__file__).resolve().parents[2]) or "unknown"


def commit_id() -> str:
    """The source commit serving this process (or ``"unknown"``)."""
    env = os.environ.get("REPRO_COMMIT")
    if env:
        return env
    return _checkout_commit()
