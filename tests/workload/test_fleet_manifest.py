"""The fast scenario fleet, pinned byte for byte.

``repro scenarios run --fast --record-dir`` records seven decision
traces and two drift journals, scalar and with ``--batch-size 16``.
Every byte of them follows from the decisions, so a change that means
to alter no decision must reproduce each file's sha256 in
``fleet_manifest.json``.  ``cold_start_storm`` is the traffic that
drives the optimizer-down fallback chain.

A change that alters decisions on purpose re-pins the manifest in one
step, and says so::

    PYTHONPATH=src python -m tests.workload.test_fleet_manifest
"""

import hashlib
import json
import pathlib

import pytest

from repro.cli import main

MANIFEST = pathlib.Path(__file__).parent / "fleet_manifest.json"

#: Manifest key → the ``--batch-size`` of the fleet it pins.
FLEETS = {"scalar": 1, "batch16": 16}


def record_fleet(directory: pathlib.Path, batch_size: int) -> dict:
    """Run the fast fleet into ``directory``; each file's sha256."""
    argv = ["scenarios", "run", "--fast", "--record-dir", str(directory)]
    assert main([*argv, "--batch-size", str(batch_size)]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_fast_fleet_matches_the_manifest(fleet, tmp_path, capsys):
    recorded = record_fleet(tmp_path, FLEETS[fleet])
    capsys.readouterr()
    assert recorded == json.loads(MANIFEST.read_text())[fleet]


if __name__ == "__main__":
    import tempfile

    manifest = {}
    for fleet, batch_size in FLEETS.items():
        with tempfile.TemporaryDirectory() as directory:
            manifest[fleet] = record_fleet(pathlib.Path(directory), batch_size)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"re-pinned {MANIFEST}")
