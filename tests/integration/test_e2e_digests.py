"""The end-to-end benchmark's smoke runs make the pinned decisions.

Each workload of ``benchmarks/e2e/run.py`` prints a digest of every
decision it made and of the synopsis footprint it ended with.  A change
that is meant to move only time or memory must leave all four smoke
digests at seed 11 as pinned here; a change that alters decisions on
purpose re-pins them in the same commit and says so.  Each run is a
subprocess, as the benchmark runs it, at 1/20 of its instances.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"

#: ``--seed 11 --smoke`` decision digest of each workload.
SMOKE_DIGESTS = {
    "q1_hot": "55b87c15a4167189",
    "q5_wide": "c89f0c53da514315",
    "batch_prepared": "357d9b231e83443a",
    "mixture_observed": "cf5f6a65acdf40e6",
}


@pytest.mark.parametrize("workload", sorted(SMOKE_DIGESTS))
def test_smoke_run_makes_the_pinned_decisions(workload):
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "11",
         "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    (digest,) = [
        line.split()[1] for line in lines if line.split()[:1] == ["digest"]
    ]
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert digest == SMOKE_DIGESTS[workload]
