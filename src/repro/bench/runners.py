"""Measurement cores + registry of every bench ``repro bench`` runs.

Each runner builds its rig from scratch (seeded sessions, deterministic
workloads), measures with ``perf_counter`` (best-of-N walls, or summed
per-instance times where modes are interleaved), and returns a
validated schema-v2 envelope.  The pytest benches under
``benchmarks/`` are thin wrappers over these same functions — one
measurement core, two entry points — so the CI gate and the committed
snapshots can never drift apart.

Registry: :data:`BENCHES` maps bench name → definition (runner +
snapshot filename + suites); :data:`SUITES` groups them (``ci`` is what
the CI gate runs; ``full`` is every bench, today the same set).
:func:`run_suite` executes a set of benches, refreshes the committed
``BENCH_*.json`` snapshots on request, and journals every run to
``history.jsonl``.
"""

from __future__ import annotations

import json
import pathlib
from time import perf_counter
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.bench.history import append_run
from repro.bench.schema import load_envelope, make_envelope, metric
from repro.config import (
    EventsConfig,
    PPCConfig,
    ProfileConfig,
    TelemetryConfig,
    TraceConfig,
)
from repro.core.framework import PPCFramework, TemplateSession
from repro.core.persistence import atomic_write_text
from repro.exceptions import BenchError
from repro.resilience import VirtualClock
from repro.tpch import plan_space_for
from repro.workload import RandomTrajectoryWorkload
from repro.workload.runner import run_matrix
from repro.workload.scenarios import SCENARIO_NAMES

__all__ = [
    "BENCHES",
    "SUITES",
    "run_instrumentation_overhead",
    "run_predict_throughput",
    "run_scenarios",
    "run_suite",
    "scenarios_envelope",
]

#: Seeds shared by every throughput/overhead rig: the session's RNG
#: stream and the warmup/probe trajectory workloads.
SESSION_SEED = 17
WARM_SEED = 5
PROBE_SEED = 6


def _seeds() -> dict[str, int]:
    return {"session": SESSION_SEED, "warm": WARM_SEED, "probe": PROBE_SEED}


def _q1_trajectory(seed: int, count: int) -> np.ndarray:
    return RandomTrajectoryWorkload(2, spread=0.02, seed=seed).generate(count)


def _hot_path_config(**overrides: Any) -> PPCConfig:
    return PPCConfig(
        confidence_threshold=0.8,
        mean_invocation_probability=0.05,
        drift_response=False,
        **overrides,
    )


# ----------------------------------------------------------------------
# predict_throughput: the vectorized batch primitive vs the scalar loop
# ----------------------------------------------------------------------

PREDICT_WARMUP = 500
PREDICT_PROBES = 1500
PREDICT_REPEATS = 5
PREDICT_TARGET_US = 150.0
PREDICT_HARD_LIMIT_US = 2.0 * PREDICT_TARGET_US
#: Explicit shared-runner allowance for the CI gate: amortized
#: microseconds wobble hard on busy runners, so the committed value may
#: be exceeded by this much before compare calls it a regression (the
#: bench's own HARD_LIMIT assert still backstops a runaway).
PREDICT_TOLERANCE_PCT = 100.0


def run_predict_throughput() -> dict[str, Any]:
    """Best-of-N amortized per-instance cost, batch vs scalar."""
    session = TemplateSession(
        plan_space_for("Q1"), _hot_path_config(), seed=SESSION_SEED
    )
    for x in _q1_trajectory(WARM_SEED, PREDICT_WARMUP):
        session.execute(x)
    probes = _q1_trajectory(PROBE_SEED, PREDICT_PROBES)
    online = session.online

    best_batch = float("inf")
    best_scalar = float("inf")
    batch_predictions = None
    scalar_predictions = None
    for __ in range(PREDICT_REPEATS):
        t0 = perf_counter()
        batch_predictions = online.predict_batch(probes)
        best_batch = min(best_batch, (perf_counter() - t0) / PREDICT_PROBES)

        t0 = perf_counter()
        scalar_predictions = [online.predict(x) for x in probes]
        best_scalar = min(best_scalar, (perf_counter() - t0) / PREDICT_PROBES)

    if batch_predictions != scalar_predictions:
        raise BenchError(
            "batch and scalar predictions diverged on the bench workload"
        )
    batch_us = best_batch * 1e6
    scalar_us = best_scalar * 1e6
    speedup = scalar_us / batch_us if batch_us > 0.0 else float("inf")
    return make_envelope(
        "predict_throughput",
        metrics={
            "batch_us_per_instance": metric(
                batch_us,
                "us/instance",
                "lower",
                tolerance_pct=PREDICT_TOLERANCE_PCT,
            ),
            "scalar_us_per_instance": metric(
                scalar_us, "us/instance", "lower", tolerance_pct=200.0
            ),
            "speedup": metric(speedup, "x", "higher", tolerance_pct=60.0),
        },
        workload={
            "template": "Q1",
            "warmup": PREDICT_WARMUP,
            "probes": PREDICT_PROBES,
            "repeats": PREDICT_REPEATS,
            "seeds": _seeds(),
        },
        gate={
            "target_us": PREDICT_TARGET_US,
            "hard_limit_us": PREDICT_HARD_LIMIT_US,
            "passed": batch_us <= PREDICT_HARD_LIMIT_US,
        },
    )


# ----------------------------------------------------------------------
# instrumentation: every opt-in channel's cost, timed interleaved
# ----------------------------------------------------------------------

INSTRUMENTATION_WARMUP = 500
INSTRUMENTATION_PROBES = 1500
#: Simulated seconds each rig's clock advances per instance, so the
#: telemetry sampler fires at its configured cadence.
INSTRUMENTATION_ADVANCE = 1.0
#: Seed of the per-probe random order of the rigs.
ORDER_SEED = 7
#: Limits the pytest bench asserts on ``<mode>_overhead_pct``: the
#: shipped or production cadence of each channel.
INSTRUMENTATION_LIMITS_PCT = {
    "trace_sampled": 10.0,
    "profile": 5.0,
    "events": 5.0,
    "telemetry_sampled": 5.0,
}
#: The A/A control must read within this of zero for the rig to
#: resolve a 5 % limit.
TWIN_RESOLUTION_PCT = 2.0


class InstrumentationMode(NamedTuple):
    """One rig of the matrix: at most one channel on over all-off."""

    name: str
    channel: "str | None"  # the channel this mode turns on
    overrides: dict[str, Any]  # PPCConfig fields over the all-off config
    tolerance_abs: float = 0.0  # compare allowance on its overhead_pct


#: Trace and telemetry ship enabled; profile and events ship disabled.
_ALL_OFF = {
    "trace": TraceConfig(enabled=False),
    "telemetry": TelemetryConfig(enabled=False),
}

INSTRUMENTATION_MODES = (
    InstrumentationMode("off", None, {}),  # the baseline: no overhead
    InstrumentationMode("off_twin", None, {}, 5.0),
    InstrumentationMode(
        "trace_sampled", "trace", {"trace": TraceConfig()}, 10.0
    ),
    InstrumentationMode(
        "trace_full",
        "trace",
        {"trace": TraceConfig(interval=1, capacity=4096, error_capacity=512)},
        25.0,
    ),
    InstrumentationMode(
        "profile",
        "profile",
        {"profiling": ProfileConfig(enabled=True, interval=1)},
        5.0,
    ),
    InstrumentationMode(
        "events",
        "events",
        {"events": EventsConfig(enabled=True, capacity=4096)},
        5.0,
    ),
    InstrumentationMode(
        "telemetry_sampled", "telemetry", {"telemetry": TelemetryConfig()}, 6.0
    ),
    InstrumentationMode(
        "telemetry_aggressive",
        "telemetry",
        {"telemetry": TelemetryConfig(sample_interval=1.0, quality_every=4)},
        15.0,
    ),
)


def _decision_key(record: Any) -> tuple[Any, ...]:
    return (
        record.predicted,
        record.confidence,
        record.optimizer_invoked,
        record.invocation_reason,
        record.executed_plan,
        record.execution_cost,
        record.optimal_plan,
        record.degraded,
        record.fallback_source,
    )


def _recorded(framework: PPCFramework) -> dict[str, int]:
    """What each opt-in channel captured on one rig (0 when it is off)."""
    report = framework.profile_report()
    telemetry = framework.telemetry
    return {
        "trace": len(framework.session("Q1").tracer.traces()),
        "profile": len(report["templates"]) if report else 0,
        "events": framework.events.emitted if framework.events else 0,
        "telemetry": telemetry.sample_count if telemetry else 0,
    }


def run_instrumentation_overhead() -> dict[str, Any]:
    """Each opt-in channel's cost over all-off, timed interleaved.

    One identically seeded Q1 framework per mode, each on its own
    virtual clock.  Every probe runs through all rigs in a fresh seeded
    random order, so a slow spell of the machine, or caches warmed or
    evicted by the rig before, land on every mode alike.  A fixed
    rotation would not do: the rig after the heaviest one would always
    pay for it.  ``off_twin`` is an A/A control, so its overhead is the
    rig's own noise floor.  Raises :class:`BenchError` if any mode
    changes a decision, or if a rig's channels recorded anything other
    than exactly the one its mode turns on.
    """
    rigs: dict[str, tuple[PPCFramework, VirtualClock]] = {}
    for mode in INSTRUMENTATION_MODES:
        clock = VirtualClock()
        framework = PPCFramework(
            _hot_path_config(**{**_ALL_OFF, **mode.overrides}),
            seed=SESSION_SEED,
            clock=clock,
            sleep=clock.sleep,
        )
        framework.register(plan_space_for("Q1"))
        rigs[mode.name] = (framework, clock)
    probes = _q1_trajectory(PROBE_SEED, INSTRUMENTATION_PROBES)
    for x in _q1_trajectory(WARM_SEED, INSTRUMENTATION_WARMUP):
        for framework, clock in rigs.values():
            framework.execute("Q1", x)
            clock.advance(INSTRUMENTATION_ADVANCE)
    names = list(rigs)
    order = np.random.default_rng(ORDER_SEED)
    spent = dict.fromkeys(names, 0.0)
    for x in probes:
        for index in order.permutation(len(names)):
            framework, clock = rigs[names[index]]
            t0 = perf_counter()
            framework.execute("Q1", x)
            spent[names[index]] += perf_counter() - t0
            clock.advance(INSTRUMENTATION_ADVANCE)

    reference = [
        _decision_key(r) for r in rigs["off"][0].session("Q1").records
    ]
    modes: dict[str, dict[str, Any]] = {}
    for mode in INSTRUMENTATION_MODES:
        framework = rigs[mode.name][0]
        decisions = [
            _decision_key(r) for r in framework.session("Q1").records
        ]
        if decisions != reference:
            raise BenchError(f"mode {mode.name} changed decisions")
        recorded = _recorded(framework)
        if any(
            bool(count) != (channel == mode.channel)
            for channel, count in recorded.items()
        ):
            raise BenchError(
                f"mode {mode.name} should record only on "
                f"{mode.channel or 'no channel'}, recorded {recorded}"
            )
        modes[mode.name] = {
            "us_per_instance": spent[mode.name] / len(probes) * 1e6,
            "overhead_pct": (spent[mode.name] / spent["off"] - 1.0) * 100.0,
            "recorded": recorded,
        }
    metrics = {
        "off_us_per_instance": metric(
            modes["off"]["us_per_instance"],
            "us/instance",
            "lower",
            tolerance_pct=100.0,
        )
    }
    for mode in INSTRUMENTATION_MODES[1:]:
        metrics[f"{mode.name}_overhead_pct"] = metric(
            modes[mode.name]["overhead_pct"],
            "pct",
            "lower",
            tolerance_abs=mode.tolerance_abs,
        )
    return make_envelope(
        "instrumentation",
        metrics=metrics,
        workload={
            "template": "Q1",
            "warmup": INSTRUMENTATION_WARMUP,
            "probes": INSTRUMENTATION_PROBES,
            "advance_seconds": INSTRUMENTATION_ADVANCE,
            "seeds": {**_seeds(), "order": ORDER_SEED},
        },
        gate={
            "max_overhead_pct": INSTRUMENTATION_LIMITS_PCT,
            "twin_max_abs_pct": TWIN_RESOLUTION_PCT,
            "parity": True,
        },
        details={"modes": modes},
    )


# ----------------------------------------------------------------------
# Scenario fleet
# ----------------------------------------------------------------------


def scenarios_envelope(
    payload: dict[str, Any], elapsed_seconds: float
) -> dict[str, Any]:
    """Wrap a :func:`run_matrix` payload in the schema-v2 envelope.

    Shared by the bench runner, the pytest bench, and
    ``repro scenarios run --out`` so the committed snapshot always has
    the same shape no matter which entry point produced it.
    """
    contracts_failed = sum(
        0 if contract["passed"] else 1
        for row in payload["scenarios"]
        for contract in row["contracts"]
    )
    instances = sum(row["instances"] for row in payload["scenarios"])
    return make_envelope(
        "scenarios",
        metrics={
            "contracts_failed": metric(
                contracts_failed, "contracts", "lower", tolerance_abs=0.0
            ),
            "instances": metric(
                instances, "instances", "higher", tolerance_abs=0.0
            ),
            "elapsed_seconds": metric(
                elapsed_seconds, "s", "lower", tolerance_pct=300.0
            ),
        },
        workload={
            "scenarios": [row["scenario"] for row in payload["scenarios"]],
            "tier": payload.get("tier", "fast"),
            "batch_size": payload.get("batch_size", 1),
        },
        gate={"contracts_failed": contracts_failed, "passed": not contracts_failed},
        details={"scenarios": payload["scenarios"]},
    )


def run_scenarios() -> dict[str, Any]:
    """The full adversarial fleet, fast tier, contracts asserted."""
    t0 = perf_counter()
    payload = run_matrix(SCENARIO_NAMES, fast=True)
    return scenarios_envelope(payload, perf_counter() - t0)


# ----------------------------------------------------------------------
# Registry + suite runner
# ----------------------------------------------------------------------


class BenchDef(NamedTuple):
    """One registered bench: how to run it and where its baseline lives."""

    name: str
    snapshot: str  # committed baseline: benchmarks/results/BENCH_<snapshot>.json
    runner: Callable[[], dict[str, Any]]
    suites: tuple[str, ...]


BENCHES: dict[str, BenchDef] = {
    bench.name: bench
    for bench in (
        BenchDef(
            "predict_throughput", "predict", run_predict_throughput, ("ci", "full")
        ),
        BenchDef(
            "instrumentation",
            "instrumentation",
            run_instrumentation_overhead,
            ("ci", "full"),
        ),
        BenchDef("scenarios", "scenarios", run_scenarios, ("ci", "full")),
    )
}

SUITES: dict[str, tuple[str, ...]] = {
    suite: tuple(
        name for name, bench in BENCHES.items() if suite in bench.suites
    )
    for suite in ("ci", "full")
}


def snapshot_path(results_dir: "str | pathlib.Path", bench: str) -> pathlib.Path:
    return pathlib.Path(results_dir) / f"BENCH_{BENCHES[bench].snapshot}.json"


def load_baselines(
    results_dir: "str | pathlib.Path", names: "tuple[str, ...] | list[str]"
) -> dict[str, dict[str, Any]]:
    """The committed envelopes for ``names`` (missing files skipped)."""
    baselines: dict[str, dict[str, Any]] = {}
    for name in names:
        path = snapshot_path(results_dir, name)
        if path.exists():
            baselines[name] = load_envelope(path)
    return baselines


def run_suite(
    names: "tuple[str, ...] | list[str]",
    results_dir: "str | pathlib.Path",
    history_path: "str | pathlib.Path | None" = None,
    refresh_baselines: bool = False,
    suite_label: str = "",
    log: "Callable[[str], None] | None" = None,
) -> dict[str, Any]:
    """Run benches, journal the results, optionally refresh baselines."""
    say = log if log is not None else (lambda _line: None)
    envelopes: dict[str, dict[str, Any]] = {}
    for name in names:
        if name not in BENCHES:
            raise BenchError(
                f"unknown bench {name!r}; registered: {sorted(BENCHES)}"
            )
        say(f"running {name} ...")
        envelope = BENCHES[name].runner()
        envelopes[name] = envelope
        for metric_name, entry in envelope["metrics"].items():
            say(f"  {metric_name} = {entry['value']:.4g} {entry['unit']}")
    run_id = None
    if history_path is not None:
        run_id = append_run(history_path, envelopes, suite=suite_label)
        say(f"journaled run {run_id} -> {history_path}")
    if refresh_baselines:
        for name, envelope in envelopes.items():
            path = snapshot_path(results_dir, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                path, json.dumps(envelope, indent=2, sort_keys=True) + "\n"
            )
            say(f"baseline refreshed -> {path}")
    return {"run_id": run_id, "envelopes": envelopes}
