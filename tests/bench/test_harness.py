"""Registry, suite runner plumbing, committed baselines, CLI gate."""

import json
import pathlib

import pytest

from repro.bench.history import append_run, load_history
from repro.bench.runners import (
    BENCHES,
    SUITES,
    load_baselines,
    run_suite,
    snapshot_path,
)
from repro.bench.schema import load_envelope, make_envelope, metric
from repro.cli import main as cli_main
from repro.exceptions import BenchError

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"


class TestRegistry:
    def test_ci_suite_is_a_subset_of_full(self):
        assert set(SUITES["ci"]) <= set(SUITES["full"])
        assert set(SUITES["full"]) == set(BENCHES)

    def test_every_bench_has_a_committed_baseline(self):
        for name in BENCHES:
            assert snapshot_path(RESULTS_DIR, name).exists(), name

    def test_unknown_bench_rejected(self, tmp_path):
        with pytest.raises(BenchError, match="unknown bench"):
            run_suite(["nope"], tmp_path)


class TestCommittedBaselines:
    def test_all_snapshots_are_valid_schema_v2(self):
        # Exactly the registered benches have a committed snapshot (a
        # retired bench's file is an orphan), and every one validates.
        snapshots = set(RESULTS_DIR.glob("BENCH_*.json"))
        assert snapshots == {snapshot_path(RESULTS_DIR, b) for b in BENCHES}
        for path in snapshots:
            envelope = load_envelope(path)
            assert envelope["metrics"], path.name

    def test_load_baselines_maps_bench_names(self):
        baselines = load_baselines(RESULTS_DIR, list(BENCHES))
        assert set(baselines) == set(BENCHES)
        for name, envelope in baselines.items():
            assert envelope["bench"] == name

    def test_history_journal_has_a_trajectory(self):
        entries = load_history(RESULTS_DIR / "history.jsonl")
        run_ids = {entry["run_id"] for entry in entries}
        assert len(run_ids) >= 2, "history.jsonl should hold >= 2 runs"
        assert {entry["bench"] for entry in entries} >= set(BENCHES)


def _seed_rig(results_dir, current_value, baseline_value=100.0):
    """A fake journal + committed baseline for one registered bench."""
    bench = "predict_throughput"  # registered; snapshot name "predict"

    def envelope(value):
        return make_envelope(
            bench,
            metrics={
                "batch_us_per_instance": metric(
                    value, "us/instance", "lower", tolerance_pct=10.0
                )
            },
        )

    results_dir.mkdir(parents=True, exist_ok=True)
    snapshot_path(results_dir, bench).write_text(
        json.dumps(envelope(baseline_value), sort_keys=True)
    )
    append_run(
        results_dir / "history.jsonl", {bench: envelope(current_value)}
    )


class TestCompareCLI:
    def test_unchanged_run_exits_zero(self, tmp_path, capsys):
        _seed_rig(tmp_path, current_value=100.0)
        code = cli_main(["bench", "compare", "--results-dir", str(tmp_path)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_regression_exits_one(self, tmp_path, capsys):
        # >=20% injected slowdown against a 10% tolerance: exit 1.
        _seed_rig(tmp_path, current_value=125.0)
        code = cli_main(["bench", "compare", "--results-dir", str(tmp_path)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_empty_history_exits_one(self, tmp_path, capsys):
        code = cli_main(["bench", "compare", "--results-dir", str(tmp_path)])
        assert code == 1
        assert "empty" in capsys.readouterr().err

    def test_history_prints_trajectory(self, tmp_path, capsys):
        _seed_rig(tmp_path, current_value=100.0)
        append_run(
            tmp_path / "history.jsonl",
            {
                "predict_throughput": make_envelope(
                    "predict_throughput",
                    metrics={
                        "batch_us_per_instance": metric(
                            110.0, "us/instance", "lower", tolerance_pct=10.0
                        )
                    },
                )
            },
        )
        code = cli_main(["bench", "history", "--results-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "predict_throughput.batch_us_per_instance" in out
        assert "100 -> 110" in out

    def test_history_on_missing_journal_is_benign(self, tmp_path, capsys):
        code = cli_main(["bench", "history", "--results-dir", str(tmp_path)])
        assert code == 0
        assert "no bench history" in capsys.readouterr().out
