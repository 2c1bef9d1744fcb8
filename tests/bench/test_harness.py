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


class TestRunCLI:
    def test_run_into_a_new_results_dir_journals_the_run(
        self, tmp_path, monkeypatch, capsys
    ):
        # Regression: the history journal's directory was created only
        # on the --refresh-baselines branch, so a run into a fresh
        # --results-dir finished every bench and then crashed appending.
        def runner():
            return make_envelope(
                "demo",
                metrics={"latency": metric(1.0, "us", "lower", tolerance_pct=50.0)},
            )

        monkeypatch.setitem(
            BENCHES, "demo", BENCHES["predict_throughput"]._replace(
                name="demo", runner=runner
            )
        )
        results_dir = tmp_path / "fresh" / "results"
        code = cli_main(
            ["bench", "run", "demo", "--results-dir", str(results_dir)]
        )
        assert code == 0, capsys.readouterr().err
        entries = load_history(results_dir / "history.jsonl")
        assert [(e["run_id"], e["bench"]) for e in entries] == [(1, "demo")]


class TestPredictGate:
    """The predict_throughput gate holds batch and scalar to their hard
    limits, so ``repro bench run`` fails on a scalar regression."""

    @pytest.fixture
    def small_rig(self, monkeypatch):
        from repro.bench import runners

        monkeypatch.setattr(runners, "PREDICT_WARMUP", 60)
        monkeypatch.setattr(runners, "PREDICT_PROBES", 30)
        monkeypatch.setattr(runners, "PREDICT_REPEATS", 1)
        return runners

    def test_gate_reports_both_limits(self, small_rig):
        gate = small_rig.run_predict_throughput()["gate"]
        assert gate["scalar_target_us"] == small_rig.SCALAR_TARGET_US == 100.0
        assert gate["scalar_hard_limit_us"] == small_rig.SCALAR_HARD_LIMIT_US
        assert small_rig.SCALAR_HARD_LIMIT_US == 300.0

    def test_scalar_over_its_limit_fails_the_run(
        self, small_rig, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(small_rig, "SCALAR_HARD_LIMIT_US", 0.0)
        assert small_rig.run_predict_throughput()["gate"]["passed"] is False
        code = cli_main([
            "bench", "run", "predict_throughput",
            "--results-dir", str(tmp_path),
        ])
        assert code == 1
        assert "bench gate failed: predict_throughput" in capsys.readouterr().err


class TestHarvestBench:
    def test_reports_a_wall_and_the_exact_plan_count_per_template(
        self, monkeypatch
    ):
        from repro.bench import runners
        from repro.tpch import plan_space_for

        monkeypatch.setattr(runners, "HARVEST_TEMPLATES", ("Q1",))
        monkeypatch.setattr(runners, "HARVEST_REPEATS", 1)
        envelope = runners.run_harvest()
        assert envelope["bench"] == "harvest"
        metrics = envelope["metrics"]
        assert set(metrics) == {"Q1_harvest_ms", "Q1_plans"}
        assert metrics["Q1_harvest_ms"]["value"] > 0.0
        assert metrics["Q1_plans"]["value"] == plan_space_for("Q1").plan_count


class TestBatchBench:
    def test_reports_scalar_batch_and_ratio_per_cell(self, monkeypatch):
        from repro.bench import runners

        monkeypatch.setattr(runners, "BATCH_TEMPLATES", ("Q1",))
        monkeypatch.setattr(runners, "BATCH_SPREADS", (0.1,))
        monkeypatch.setattr(runners, "BATCH_INSTANCES", 48)
        monkeypatch.setattr(runners, "BATCH_REPEATS", 1)
        envelope = runners.run_batch()
        assert envelope["bench"] == "batch"
        metrics = envelope["metrics"]
        assert set(metrics) == {
            "Q1_0.1_scalar_us", "Q1_0.1_batch_us", "Q1_0.1_batch_ratio"
        }
        assert metrics["Q1_0.1_batch_ratio"]["value"] == pytest.approx(
            metrics["Q1_0.1_batch_us"]["value"]
            / metrics["Q1_0.1_scalar_us"]["value"]
        )
        assert envelope["gate"]["max_batch_ratio"] == runners.BATCH_RATIO_LIMIT
        assert "batch" in runners.SUITES["ci"]

    def test_a_batch_that_changes_a_decision_fails(self, monkeypatch):
        from repro.bench import runners
        from repro.core.framework import TemplateSession
        from repro.exceptions import BenchError

        monkeypatch.setattr(runners, "BATCH_TEMPLATES", ("Q1",))
        monkeypatch.setattr(runners, "BATCH_SPREADS", (0.1,))
        monkeypatch.setattr(runners, "BATCH_INSTANCES", 32)
        monkeypatch.setattr(runners, "BATCH_REPEATS", 1)
        execute_batch = TemplateSession.execute_batch

        def shifted(self, points):
            return execute_batch(self, points[::-1])

        monkeypatch.setattr(TemplateSession, "execute_batch", shifted)
        with pytest.raises(BenchError, match="changed decisions on Q1"):
            runners.run_batch()


class TestWritePathBench:
    def test_reports_an_insert_and_a_label_per_template(self, monkeypatch):
        from repro.bench import runners

        monkeypatch.setattr(runners, "WRITE_WARMUP", 300)
        monkeypatch.setattr(runners, "WRITE_PROBES", 40)
        monkeypatch.setattr(runners, "WRITE_LABEL_TEMPLATES", ("Q1",))
        monkeypatch.setattr(runners, "WRITE_Z_TEMPLATES", ("Q1",))
        monkeypatch.setattr(runners, "WRITE_PREDICT_TEMPLATES", ("Q1",))
        monkeypatch.setattr(runners, "WRITE_PREDICT_WARMUP", 200)
        monkeypatch.setattr(runners, "WRITE_BIND_TEMPLATES", ("Q1",))
        monkeypatch.setattr(runners, "WRITE_REPEATS", 1)
        envelope = runners.run_write_path()
        assert envelope["bench"] == "write_path"
        metrics = envelope["metrics"]
        assert set(metrics) == {
            "insert_us", "Q1_label_us", "Q1_cost_at_us", "Q1_z_us",
            "Q1_predict_us", "Q1_bind_us",
        }
        assert all(entry["value"] > 0.0 for entry in metrics.values())
        assert 0.0 <= envelope["details"]["insert_full_row_share"] <= 1.0
        assert 0.0 < envelope["details"]["predict_answered_share"]["Q1"] <= 1.0
        assert "write_path" in runners.SUITES["ci"]

    def test_a_one_point_label_off_the_batch_fails(self, monkeypatch):
        from repro.bench import runners
        from repro.exceptions import BenchError
        from repro.optimizer.plan_space import PlanSpace

        monkeypatch.setattr(runners, "WRITE_PROBES", 8)
        label = PlanSpace.label

        def shifted(self, points):
            ids, costs = label(self, points)
            return (ids + 1, costs) if len(points) == 1 else (ids, costs)

        monkeypatch.setattr(PlanSpace, "label", shifted)
        with pytest.raises(BenchError, match="differ from the batch on Q1"):
            runners._label_cell("Q1")

    def test_a_program_off_the_node_formulas_fails(self, monkeypatch):
        import numpy as np

        from repro.bench import runners
        from repro.exceptions import BenchError
        from repro.optimizer.plan_space import PlanSpace

        monkeypatch.setattr(runners, "WRITE_PROBES", 8)
        cost_matrix = PlanSpace.cost_matrix

        def nudged(self, points):
            costs = cost_matrix(self, points)
            return np.nextafter(costs, np.inf) if costs.shape[1] == 1 else costs

        monkeypatch.setattr(PlanSpace, "cost_matrix", nudged)
        for cell in (runners._label_cell, runners._cost_at_cell):
            with pytest.raises(BenchError, match="node formulas on Q1"):
                cell("Q1")

    def test_a_z_program_off_the_stacked_pass_fails(self, monkeypatch):
        import numpy as np

        from repro.bench import runners
        from repro.exceptions import BenchError
        from repro.lsh.stacked import StackedEnsemble

        monkeypatch.setattr(runners, "WRITE_PROBES", 8)
        z_values = StackedEnsemble.z_values

        def nudged(self, points):
            z = z_values(self, points)
            return np.nextafter(z, np.inf) if points.shape[0] == 1 else z

        monkeypatch.setattr(StackedEnsemble, "z_values", nudged)
        with pytest.raises(BenchError, match="stacked pass on Q1"):
            runners._z_cell("Q1")

    def test_a_one_point_predict_off_the_block_fails(self, monkeypatch):
        import math

        from repro.bench import runners
        from repro.core.histogram_predictor import HistogramPredictor
        from repro.core.predictor import Prediction
        from repro.exceptions import BenchError

        monkeypatch.setattr(runners, "WRITE_PREDICT_WARMUP", 200)
        monkeypatch.setattr(runners, "WRITE_PROBES", 40)
        predict_z = HistogramPredictor.predict_z

        def nudged(self, z, trace=None):
            p = predict_z(self, z, trace)
            if p is None:
                return None
            return Prediction(
                p.plan_id, math.nextafter(p.confidence, 0.0), p.estimated_cost
            )

        monkeypatch.setattr(HistogramPredictor, "predict_z", nudged)
        with pytest.raises(BenchError, match="block decision on Q1"):
            runners._predict_cell("Q1")

    def test_a_one_instance_bind_off_the_run_fails(self, monkeypatch):
        import numpy as np

        from repro.bench import runners
        from repro.exceptions import BenchError
        from repro.workload import TemplateBinder

        monkeypatch.setattr(runners, "WRITE_PROBES", 8)
        to_point = TemplateBinder.to_point

        def nudged(self, instance):
            return np.nextafter(to_point(self, instance), np.inf)

        monkeypatch.setattr(TemplateBinder, "to_point", nudged)
        with pytest.raises(BenchError, match="run's rows on Q1"):
            runners._bind_cell("Q1")
