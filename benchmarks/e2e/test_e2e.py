"""Self-tests of the end-to-end benchmark.

Run with ``python -m pytest benchmarks/e2e``; the repository's tier-1
suite collects only ``tests/``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import layers
import run
from layers import Tracer
from workloads import WORKLOADS, generate

BENCHMARK_JSON = run.HERE.parents[1] / "BENCHMARK.json"
DIMENSIONS = {
    "Q0": 2, "Q1": 2, "Q2": 2, "Q3": 3, "Q4": 4,
    "Q5": 4, "Q6": 5, "Q7": 6, "Q8": 3,
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle(traced_leaf):
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 3.0

    traced_leaf = tracer.wrap("leaf", leaf)
    tracer.phase = "timed"
    tracer.call(0, tracer.wrap("middle", middle), traced_leaf)

    assert tracer.stat("timed", "leaf")[:3] == [2, 4.0, 4.0]
    assert tracer.stat("timed", "middle")[:3] == [1, 4.0, 8.0]
    assert tracer.stat("timed", layers.ROOT)[:3] == [1, 0.0, 8.0]
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    root = by_name[layers.ROOT][0]
    (mid,) = by_name["middle"]
    assert root["parent"] is None and mid["parent"] == root["id"]
    assert [s["parent"] for s in by_name["leaf"]] == [mid["id"], mid["id"]]
    assert {s["request"] for s in tracer.spans} == {0}
    assert root["end_us"] - root["start_us"] == pytest.approx(8e6)


def test_spans_are_kept_only_for_the_first_requests():
    tracer = Tracer(clock=FakeClock(), keep_requests=2)
    for request in range(5):
        tracer.call(request, lambda: None)
    assert [s["request"] for s in tracer.spans] == [0, 1]
    assert tracer.stat("setup", layers.ROOT)[0] == 5


def test_every_layer_target_exists_and_is_restored_on_error():
    before = layers.targets()
    assert None not in before
    with pytest.raises(RuntimeError):
        with Tracer().installed() as tracer:
            assert tracer.missing == []
            assert layers.targets() != before
            raise RuntimeError("boom")
    assert layers.targets() == before


def test_traced_run_restores_attributes_and_decides_identically(tmp_path):
    before = layers.targets()
    metrics, summary, problems = run.run_traced(
        WORKLOADS["q1_hot"], seed=3, scale=0.02, out_dir=tmp_path
    )
    assert problems == []
    assert layers.targets() == before
    assert summary["failed"] == 0
    spans = (tmp_path / "q1_hot" / "spans.jsonl").read_text().splitlines()
    assert len(spans) == summary["spans"] > 0
    assert set(metrics) == set(run.PER_LAYER)


def test_percentile_needs_ten_samples_beyond_it():
    samples = np.arange(200.0)
    assert run.percentile(samples, 95) == pytest.approx(np.percentile(samples, 95))
    with pytest.raises(ValueError):
        run.percentile(samples, 99)  # 2 samples beyond
    with pytest.raises(ValueError):
        run.percentile(np.arange(199.0), 95)  # 9.95 beyond
    assert run.percentile(samples[:10], 99, min_beyond=0) > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_seed_deterministic(name):
    workload = WORKLOADS[name]
    first = generate(workload, DIMENSIONS, 5, 320)
    again = generate(workload, DIMENSIONS, 5, 320)
    other = generate(workload, DIMENSIONS, 6, 320)
    assert len(first) == 320
    assert [t for t, __ in first] == [t for t, __ in again]
    assert all(np.array_equal(a, b) for (__, a), (__, b) in zip(first, again))
    assert any(
        t != u or not np.array_equal(a, b)
        for (t, a), (u, b) in zip(first, other)
    )
    for template, point in first:
        assert template in workload.templates
        assert point.shape == (DIMENSIONS[template],)
        assert ((point >= 0.0) & (point <= 1.0)).all()
    if workload.batch > 1:
        for start in range(0, 320, workload.batch):
            block = {t for t, __ in first[start:start + workload.batch]}
            assert len(block) == 1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_output_matches_benchmark_json(trace, section):
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "q5_wide",
         "--smoke", "--seed", "4", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in spec[section]}
    for name, unit in reported.items():
        assert f"{name} " in done.stdout and unit in done.stdout
