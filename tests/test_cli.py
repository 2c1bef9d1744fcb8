"""Command-line interface."""

import re

import numpy as np
import pytest

from repro.cli import main
from repro.tpch import plan_space_for


class TestTemplates:
    def test_lists_all_nine(self, capsys):
        assert main(["templates", "--probes", "200"]) == 0
        out = capsys.readouterr().out
        for name in (f"Q{i}" for i in range(9)):
            assert name in out


class TestDiagram:
    def test_renders_two_parameter_template(self, capsys):
        assert main(["diagram", "Q1", "--resolution", "12"]) == 0
        out = capsys.readouterr().out
        assert "P0" in out
        assert len([l for l in out.splitlines() if l and l[0].isalnum()]) >= 12

    def test_rejects_high_degree_template(self, capsys):
        assert main(["diagram", "Q7"]) == 1
        assert "degree" in capsys.readouterr().err


class TestPredict:
    def test_reports_optimal_plan_and_candidates(self, capsys):
        assert main(["predict", "Q1", "0.3", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "optimal plan" in out
        assert "all candidates" in out

    @pytest.mark.parametrize(
        "coords", [["0.3", "0.7"], ["0", "0"], ["1", "1"], ["0.02", "0.98"]]
    )
    def test_optimal_plan_is_the_first_candidate_at_its_cost(self, capsys, coords):
        assert main(["predict", "Q1", *coords]) == 0
        out = capsys.readouterr().out
        optimal = re.search(r"optimal plan : (P\d+)  \(cost ([\d,.]+)\)", out)
        first = re.search(r"all candidates:\n  (P\d+): +([\d,.]+)\n", out)
        assert optimal and first
        assert optimal.groups() == first.groups()
        point = np.array([[float(c) for c in coords]])
        ids, costs = plan_space_for("Q1").label(point)
        assert optimal.groups() == (f"P{int(ids[0])}", f"{costs[0]:,.1f}")

    def test_arity_mismatch(self, capsys):
        assert main(["predict", "Q1", "0.5"]) == 1
        assert "coordinates" in capsys.readouterr().err


class TestSession:
    def test_runs_online_session(self, capsys):
        assert main(
            ["session", "Q1", "--instances", "150", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "precision" in out
        assert "optimizer invocations" in out


class TestStats:
    def test_table_renders_stage_latencies(self, capsys):
        assert main(
            ["stats", "Q1", "--instances", "80", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "template Q1: 80 instances" in out
        assert "p50 ms" in out
        assert "predict" in out
        assert "invocation reasons" in out
        assert "plan cache" in out

    def test_json_format_is_parseable(self, capsys):
        import json

        assert main(
            ["stats", "Q1", "--instances", "50", "--format", "json"]
        ) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["templates"]["Q1"]["executions"] == 50

    def test_prom_format_is_exposition_text(self, capsys):
        assert main(
            ["stats", "Q1", "--instances", "50", "--format", "prom"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE ppc_stage_seconds summary" in out
        assert 'ppc_executions_total{template="Q1"} 50' in out

    def test_budget_prints_governor_line(self, capsys):
        assert main(
            [
                "stats", "Q1", "Q5",
                "--instances", "60",
                "--budget", "500",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "governor:" in out
        assert "reclaimed=" in out


class TestAssumptions:
    def test_prints_probability_table(self, capsys):
        assert main(
            ["assumptions", "Q1", "--points", "10", "--neighbors", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "P(same plan)" in out


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_template_exits(self):
        with pytest.raises(SystemExit):
            main(["diagram", "Q99"])


class TestExperimentCommand:
    def test_table1_runs_and_prints(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "BASELINE" in out
        assert "measured_bytes" in out

    def test_fig10b_prints_precision_columns(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["experiment", "fig10b"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out
        assert "recall" in out

    def test_unknown_experiment_rejected(self):
        import pytest as _pytest

        from repro.cli import main as cli_main

        with _pytest.raises(SystemExit):
            cli_main(["experiment", "fig99"])


class TestPlanProfileCommand:
    def test_plan_profile_prints_summary(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["plan-profile", "Q1", "--samples", "400"]) == 0
        out = capsys.readouterr().out
        assert "plans observed" in out
        assert "area" in out


class TestProfileCommand:
    def test_profile_prints_stage_tree(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["profile", "Q1", "--instances", "120"]) == 0
        out = capsys.readouterr().out
        assert "decision" in out
        assert "normalize" in out
        assert "execute_plan" in out
        # Deep predictor stages appear because tracing runs at interval 1.
        assert "aggregate" in out

    def test_profile_batched_runs_execute_batch(self, capsys):
        from repro.cli import main as cli_main

        assert (
            cli_main(
                ["profile", "Q1", "--instances", "64", "--batch-size", "16"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "decision" in out
        assert "predict" in out

    def test_profile_rejects_a_zero_batch_size(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["profile", "Q1", "--batch-size", "0"]) == 1
        assert "--batch-size" in capsys.readouterr().err

    def test_profile_writes_collapsed_stacks(self, tmp_path, capsys):
        import json

        from repro.cli import main as cli_main

        out_path = tmp_path / "stacks.json"
        assert (
            cli_main(
                [
                    "profile", "Q1",
                    "--instances", "120",
                    "--collapsed-out", str(out_path),
                ]
            )
            == 0
        )
        payload = json.loads(out_path.read_text())
        assert payload["unit"] == "microseconds"
        assert any(
            key.startswith("Q1;decision") for key in payload["stacks"]
        )
        assert all(value >= 0.0 for value in payload["stacks"].values())


class TestExplain:
    def test_prints_span_tree(self, capsys):
        assert main(
            [
                "explain",
                "--template", "Q1",
                "--point", "0.3", "0.7",
                "--warmup", "120",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "trace Q1#" in out
        assert "decision=forced" in out
        assert "transform" in out
        assert "counts=" in out
        assert "vote=" in out
        assert "outcome:" in out

    def test_json_format_is_parseable(self, capsys):
        import json

        assert main(
            [
                "explain",
                "--template", "Q1",
                "--point", "0.3", "0.7",
                "--warmup", "50",
                "--format", "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["template"] == "Q1"
        assert payload["decision"] == "forced"
        assert payload["root"]["children"]

    def test_arity_mismatch(self, capsys):
        assert main(
            ["explain", "--template", "Q1", "--point", "0.5"]
        ) == 1
        assert "coordinates" in capsys.readouterr().err


class TestTrace:
    def test_export_round_trips(self, tmp_path, capsys):
        from repro.obs.tracing import loads_jsonl

        out_path = tmp_path / "traces.jsonl"
        assert main(
            [
                "trace", "export", "Q1",
                "--instances", "40",
                "--out", str(out_path),
            ]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        traces = loads_jsonl(out_path.read_text())
        assert len(traces) == 40
        assert all(t.template == "Q1" for t in traces)
        assert all(t.outcome is not None for t in traces)

    def test_audit_prints_stage_table(self, capsys):
        assert main(
            ["trace", "audit", "Q1", "--instances", "150"]
        ) == 0
        out = capsys.readouterr().out
        assert "instances traced" in out
        assert "suboptimal" in out


class TestReport:
    def test_text_report_shows_the_scorecard(self, capsys):
        assert main(
            ["report", "Q1", "--instances", "300", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "PPC health report" in out
        assert "clock: VirtualClock" in out
        assert "template Q1" in out
        assert "coverage=" in out
        assert "purity=" in out
        assert "accuracy=" in out
        assert "cache_hit_rate" in out
        assert "predict_latency_p95" in out
        assert "regret_budget" in out

    def test_json_report_is_parseable(self, capsys):
        import json

        assert main(
            [
                "report", "Q1",
                "--instances", "200",
                "--format", "json",
            ]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["templates"]) == {"Q1"}
        assert report["worst_state"] in ("ok", "warning", "breach")
        assert report["slo"]["Q1"]
        assert report["telemetry"]["samples"] > 0

    def test_html_report_written_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.html"
        assert main(
            [
                "report", "Q1",
                "--instances", "200",
                "--format", "html",
                "--out", str(out_path),
            ]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        html = out_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "template Q1" in html

    def test_fail_on_breach_passes_on_a_healthy_run(self, capsys, monkeypatch):
        # The predict-latency SLO reads wall-clock span times and keeps
        # the largest p95 the telemetry sampled in its window.  A sample
        # of fewer than 20 observations has its slowest one as its p95,
        # and the samples after decisions 1, 6, 11 and 16 are such: one
        # ~100 ms stall in any of the first 16 predict stages (a busy
        # machine) breaches the SLO for the whole run.  A span clock
        # that ticks one microsecond per read makes the timings depend
        # on the run's work, not on the machine's load.
        import functools
        import itertools

        from repro.core import framework

        ticks = itertools.count()
        monkeypatch.setattr(
            framework,
            "DecisionTracer",
            functools.partial(
                framework.DecisionTracer, clock=lambda: next(ticks) * 1e-6
            ),
        )
        assert main(
            [
                "report", "Q1",
                "--instances", "300",
                "--fail-on-breach",
            ]
        ) == 0
        assert "predict_latency_p95" in capsys.readouterr().out

    @staticmethod
    def _predict_slo_under_stalls(capsys, monkeypatch, stalled) -> dict:
        """The ``predict_latency_p95`` verdict of ``repro report Q1
        --instances 300`` under a span clock that ticks one microsecond
        per read and jumps 110 ms inside the predict stage of each
        decision ``stalled`` accepts (0-based)."""
        import functools
        import itertools
        import json

        from repro.core import framework
        from repro.core.histogram_predictor import HistogramPredictor

        ticks = itertools.count()
        stall = [0.0]
        decisions = itertools.count()
        predict_z = HistogramPredictor.predict_z

        def stalling_predict_z(self, *args, **kwargs):
            if stalled(next(decisions)):
                stall[0] += 0.110
            return predict_z(self, *args, **kwargs)

        monkeypatch.setattr(HistogramPredictor, "predict_z", stalling_predict_z)
        monkeypatch.setattr(
            framework,
            "DecisionTracer",
            functools.partial(
                framework.DecisionTracer,
                clock=lambda: next(ticks) * 1e-6 + stall[0],
            ),
        )
        assert main(
            ["report", "Q1", "--instances", "300", "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        (verdict,) = [
            slo
            for slo in report["slo"]["Q1"]
            if slo["name"] == "predict_latency_p95"
        ]
        return verdict

    def test_one_early_predict_stall_does_not_breach(self, capsys, monkeypatch):
        # The sample after the stall holds fewer than 20 observations, so
        # its p95 is the stall itself; such a sample does not count.
        verdict = self._predict_slo_under_stalls(
            capsys, monkeypatch, lambda decision: decision == 3
        )
        assert verdict["state"] == "ok"

    def test_a_stall_on_every_decision_breaches(self, capsys, monkeypatch):
        verdict = self._predict_slo_under_stalls(
            capsys, monkeypatch, lambda decision: True
        )
        assert verdict["state"] == "breach"

    def test_multi_template_report(self, capsys):
        assert main(
            ["report", "Q1", "Q5", "--instances", "120"]
        ) == 0
        out = capsys.readouterr().out
        assert "template Q1" in out
        assert "template Q5" in out


class TestWatch:
    def test_prints_one_status_line_per_template_per_tick(self, capsys):
        assert main(
            [
                "watch", "Q1",
                "--iterations", "3",
                "--batch", "60",
                "--interval", "0",
            ]
        ) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "Q1" in l]
        assert len(lines) >= 3
        assert "coverage=" in out
        assert "slo=" in out


class TestScenarios:
    def test_list_names_every_scenario(self, capsys):
        from repro.workload.scenarios import SCENARIO_NAMES

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIO_NAMES:
            assert name in out

    def test_run_one_scenario_writes_matrix(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "matrix.json"
        assert main(
            [
                "scenarios", "run", "cache_pressure",
                "--fast", "--out", str(out_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "PASS cache_pressure" in out
        # --out writes a schema-v2 bench envelope, not the raw matrix.
        envelope = json.loads(out_path.read_text())
        assert envelope["schema_version"] == 2
        assert envelope["gate"]["passed"] is True
        assert envelope["metrics"]["contracts_failed"]["value"] == 0
        rows = envelope["details"]["scenarios"]
        assert rows[0]["scenario"] == "cache_pressure"

    def test_re_recording_keeps_journal_and_trace_in_step(
        self, tmp_path, capsys
    ):
        # Recording twice into one directory must replace the journal,
        # not append a second copy of every event to it.
        from repro.obs.events import load_journal, stream_digest
        from repro.workload.replay import load_trace

        argv = [
            "scenarios", "run", "step_drift",
            "--fast", "--record-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = (tmp_path / "journal_step_drift.jsonl").read_bytes()
        assert main(argv) == 0
        journal = tmp_path / "journal_step_drift.jsonl"
        assert journal.read_bytes() == first
        events, torn = load_journal(journal)
        assert not torn
        assert len({event["seq"] for event in events}) == len(events)
        header, __, __ = load_trace(tmp_path / "trace_step_drift.jsonl")
        assert stream_digest(events) == header["events_digest"]

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["scenarios", "run", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err


class TestReplay:
    def test_record_then_verify_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(
            [
                "replay", "record", "cache_pressure",
                "--fast", "--out", str(trace),
            ]
        ) == 0
        assert "recorded" in capsys.readouterr().out
        assert main(["replay", "verify", str(trace)]) == 0
        assert "bit-identically" in capsys.readouterr().out

    def test_record_requires_out(self, capsys):
        assert main(["replay", "record", "cache_pressure"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_missing_trace_file_rejected(self, capsys):
        assert main(["replay", "verify", "/nonexistent/trace.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro replay: ")
        assert "No such file" in err


class TestErrorSeam:
    """Library errors on bad input end in one stderr line, never a
    traceback."""

    @pytest.mark.parametrize(
        ("argv", "code"),
        [
            pytest.param(
                ["session", "Q1", "--instances", "0"], 1,
                id="session-instances-0",
            ),
            pytest.param(
                ["profile", "Q1", "--instances", "0"], 1,
                id="profile-instances-0",
            ),
            pytest.param(
                ["profile", "Q1", "--instances", "10", "--every", "0"], 1,
                id="profile-every-0",
            ),
            pytest.param(
                ["lineage", "timeline", "--instances", "0"], 1,
                id="lineage-instances-0",
            ),
            pytest.param(
                [
                    "explain", "--template", "Q1",
                    "--point", "0.3", "0.7", "--warmup", "-3",
                ],
                1,
                id="explain-warmup-negative",
            ),
            pytest.param(
                ["report", "Q1", "--instances", "5", "--advance", "-1"], 1,
                id="report-advance-negative",
            ),
            pytest.param(
                [
                    "trace", "export", "Q1",
                    "--instances", "3", "--spread", "-1",
                ],
                1,
                id="trace-spread-negative",
            ),
            # A zero-round warm-up executes nothing and is not an error.
            pytest.param(
                [
                    "explain", "--template", "Q1",
                    "--point", "0.3", "0.7", "--warmup", "0",
                ],
                0,
                id="explain-warmup-0",
            ),
        ],
    )
    def test_exit_status_and_stderr(self, argv, code, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 0:
            assert captured.err == ""
            assert "trace Q1#" in captured.out
            return
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: ")
