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

import copy
import gc
import json
import pathlib
import struct
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
from repro.core.histogram_predictor import HistogramPredictor
from repro.core.point import SamplePool
from repro.core.predictor import Prediction
from repro.core.persistence import atomic_write_text
from repro.exceptions import BenchError
from repro.histograms.packed import PackedHistograms
from repro.optimizer.plan_space import PlanSpace
from repro.resilience import VirtualClock
from repro.service import PlanCachingService
from repro.tpch import (
    build_catalog,
    build_statistics,
    plan_space_for,
    query_template,
)
from repro.workload import RandomTrajectoryWorkload, TemplateBinder
from repro.workload.runner import decision_digest, run_matrix
from repro.workload.scenarios import SCENARIO_NAMES

__all__ = [
    "BENCHES",
    "SUITES",
    "run_batch",
    "run_harvest",
    "run_instrumentation_overhead",
    "run_predict_throughput",
    "run_scenarios",
    "run_setup",
    "run_suite",
    "run_write_path",
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
#: Scalar ``predict`` (one decision's lookup): the pytest bench warns
#: above the target, and the gate fails above the hard limit.
SCALAR_TARGET_US = 100.0
SCALAR_HARD_LIMIT_US = 300.0
#: Explicit shared-runner allowance for the CI gate: amortized
#: microseconds wobble hard on busy runners, so the committed value may
#: be exceeded by this much before compare calls it a regression (the
#: bench's own HARD_LIMIT assert still backstops a runaway).
PREDICT_TOLERANCE_PCT = 100.0


def run_predict_throughput() -> dict[str, Any]:
    """Best-of-N amortized per-instance cost, batch vs scalar; the gate
    holds each to its hard limit."""
    session = TemplateSession(
        plan_space_for("Q1"), _hot_path_config(), seed=SESSION_SEED
    )
    for x in _q1_trajectory(WARM_SEED, PREDICT_WARMUP):
        session.execute(x)
    probes = _q1_trajectory(PROBE_SEED, PREDICT_PROBES)
    predictor = session.predictor

    best_batch = float("inf")
    best_scalar = float("inf")
    batch_predictions = None
    scalar_predictions = None
    for __ in range(PREDICT_REPEATS):
        t0 = perf_counter()
        batch_predictions = predictor.predict_batch(probes)
        best_batch = min(best_batch, (perf_counter() - t0) / PREDICT_PROBES)

        t0 = perf_counter()
        scalar_predictions = [predictor.predict(x) for x in probes]
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
            "scalar_target_us": SCALAR_TARGET_US,
            "scalar_hard_limit_us": SCALAR_HARD_LIMIT_US,
            "passed": (
                batch_us <= PREDICT_HARD_LIMIT_US
                and scalar_us <= SCALAR_HARD_LIMIT_US
            ),
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
    rig's own noise floor.  The cyclic garbage collector is off for the
    timed probes (one collection runs first), so no rig is charged for
    a pass the others' garbage triggered.  Raises :class:`BenchError`
    if any mode changes a decision, or if a rig's channels recorded
    anything other than exactly the one its mode turns on.
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
    # Every decision of every rig, warm-up included: the session keeps
    # only a window of its records.
    records: dict[str, list] = {name: [] for name in rigs}
    for x in _q1_trajectory(WARM_SEED, INSTRUMENTATION_WARMUP):
        for name, (framework, clock) in rigs.items():
            records[name].append(framework.execute("Q1", x))
            clock.advance(INSTRUMENTATION_ADVANCE)
    names = list(rigs)
    order = np.random.default_rng(ORDER_SEED)
    spent = dict.fromkeys(names, 0.0)
    # A cyclic collection would land on whichever rig's allocation
    # crosses the threshold, a fixed function of the code and of what
    # the process allocated before: collect once, then time without it.
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        for x in probes:
            for index in order.permutation(len(names)):
                framework, clock = rigs[names[index]]
                t0 = perf_counter()
                record = framework.execute("Q1", x)
                spent[names[index]] += perf_counter() - t0
                records[names[index]].append(record)
                clock.advance(INSTRUMENTATION_ADVANCE)
    finally:
        if collecting:
            gc.enable()

    reference = [decision_digest(r) for r in records["off"]]
    modes: dict[str, dict[str, Any]] = {}
    for mode in INSTRUMENTATION_MODES:
        framework = rigs[mode.name][0]
        decisions = [decision_digest(r) for r in records[mode.name]]
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
# harvest: a template's plan-space set-up, one batched DP per group of rounds
# ----------------------------------------------------------------------

HARVEST_TEMPLATES = ("Q3", "Q5", "Q7")
HARVEST_REPEATS = 3
#: Shared-runner allowance on the harvest walls, as for the other
#: wall-clock metrics.
HARVEST_TOLERANCE_PCT = 100.0


def run_harvest() -> dict[str, Any]:
    """Best-of-N wall of one :class:`PlanSpace` harvest per template,
    each on a fresh catalog (built outside the timer), and the exact
    number of plans it harvests."""
    metrics: dict[str, dict[str, Any]] = {}
    for name in HARVEST_TEMPLATES:
        template = query_template(name)
        best = float("inf")
        for __ in range(HARVEST_REPEATS):
            catalog = build_catalog()
            t0 = perf_counter()
            space = PlanSpace(template, catalog)
            best = min(best, perf_counter() - t0)
        metrics[f"{name}_harvest_ms"] = metric(
            best * 1e3, "ms", "lower", tolerance_pct=HARVEST_TOLERANCE_PCT
        )
        metrics[f"{name}_plans"] = metric(
            space.plan_count, "plans", "higher", tolerance_abs=0.0
        )
    return make_envelope(
        "harvest",
        metrics=metrics,
        workload={
            "templates": list(HARVEST_TEMPLATES),
            "repeats": HARVEST_REPEATS,
            "seed": 0,
        },
    )


# ----------------------------------------------------------------------
# setup: a TPC-H service's bring-up, stage by stage
# ----------------------------------------------------------------------

#: The e2e ``q1_hot`` set-up, plus the 4-d template ``q5_wide`` adds.
SETUP_TEMPLATES = ("Q1", "Q5")
SETUP_REPEATS = 5
#: Shared-runner allowance on the stage walls, as for the harvest.
SETUP_TOLERANCE_PCT = 100.0
#: The gate: in the run with the best total, the named stages cover at
#: least this share of the bring-up (the rest is the service constructor).
SETUP_COVERAGE_LIMIT_PCT = 95.0


def run_setup() -> dict[str, Any]:
    """Best-of-N wall of each stage of ``PlanCachingService.tpch`` plus
    registering :data:`SETUP_TEMPLATES`, and of the whole bring-up; the
    gate holds the stages to :data:`SETUP_COVERAGE_LIMIT_PCT` of it."""
    best: dict[str, float] = {}
    coverage_pct = 0.0
    for __ in range(SETUP_REPEATS):
        start = perf_counter()
        catalog = build_catalog()
        after_catalog = perf_counter()
        statistics = build_statistics(catalog, seed=0)
        after_statistics = perf_counter()
        service = PlanCachingService(catalog, statistics, seed=0)
        walls = {
            "catalog": after_catalog - start,
            "statistics": after_statistics - after_catalog,
        }
        for name in SETUP_TEMPLATES:
            begin = perf_counter()
            service.register(name)
            walls[f"{name}_register"] = perf_counter() - begin
        total = perf_counter() - start
        if total < best.get("total", float("inf")):
            coverage_pct = 100.0 * sum(walls.values()) / total
        walls["total"] = total
        for stage, wall in walls.items():
            best[stage] = min(wall, best.get(stage, wall))
    metrics = {
        f"{stage}_ms": metric(
            best[stage] * 1e3, "ms", "lower", tolerance_pct=SETUP_TOLERANCE_PCT
        )
        for stage in best
    }
    return make_envelope(
        "setup",
        metrics=metrics,
        workload={
            "templates": list(SETUP_TEMPLATES),
            "repeats": SETUP_REPEATS,
            "scale_factor": 1.0,
            "seed": 0,
        },
        gate={
            "min_coverage_pct": SETUP_COVERAGE_LIMIT_PCT,
            "passed": coverage_pct >= SETUP_COVERAGE_LIMIT_PCT,
        },
        details={"coverage_pct": coverage_pct},
    )


# ----------------------------------------------------------------------
# batch: execute_batch blocks against the scalar loop, write-heavy too
# ----------------------------------------------------------------------

#: Q1 and Q8 insert on about half their decisions, Q3 on ~3/4 and Q5 on
#: nearly all: the write-heavy end of the batch path.
BATCH_TEMPLATES = ("Q1", "Q3", "Q5", "Q8")
BATCH_SPREADS = (0.02, 0.1)
BATCH_INSTANCES = 1504
BATCH_BLOCK = 16
BATCH_WALK_SEED = 3
BATCH_REPEATS = 2
#: The gate: blocks may cost at most this much more per decision than
#: the scalar loop.  Four runs on one 2-core host spread each ratio by
#: 0.6-6.2%; the limit allows that spread with room for shared runners.
BATCH_RATIO_LIMIT = 1.1
#: Compare allowances.  The same four runs spread the per-decision walls
#: by 3-15%, and they move with the machine, so they get the 100%
#: shared-runner allowance of the other walls; the interleaved ratio
#: gets about twice its largest spread.
BATCH_TOLERANCE_PCT = 100.0
BATCH_RATIO_TOLERANCE_PCT = 15.0


def _batch_cell(space: PlanSpace, points: np.ndarray) -> tuple[float, float]:
    """Seconds per decision of a scalar ``execute`` loop and of
    ``execute_batch`` blocks over ``points``, each on a fresh session
    seeded alike.  The two run block by block, alternating which goes
    first, so a slow spell of the machine lands on both.  Raises
    :class:`BenchError` if their decisions differ."""
    scalar = TemplateSession(space, PPCConfig(), seed=SESSION_SEED)
    batched = TemplateSession(space, PPCConfig(), seed=SESSION_SEED)
    spent = [0.0, 0.0]
    records: list[list] = [[], []]
    for index, start in enumerate(range(0, points.shape[0], BATCH_BLOCK)):
        block = points[start:start + BATCH_BLOCK]
        for which in (0, 1) if index % 2 == 0 else (1, 0):
            t0 = perf_counter()
            if which == 0:
                out = [scalar.execute(x) for x in block]
            else:
                out = batched.execute_batch(block)
            spent[which] += perf_counter() - t0
            records[which].extend(out)
    if [decision_digest(r) for r in records[0]] != [
        decision_digest(r) for r in records[1]
    ]:
        raise BenchError(
            f"execute_batch changed decisions on {space.template.name}"
        )
    return spent[0] / points.shape[0], spent[1] / points.shape[0]


def run_batch() -> dict[str, Any]:
    """Per-decision cost of ``execute_batch`` in blocks against the
    scalar loop, per template and walk spread (best of N, default
    config); the gate holds every ratio to :data:`BATCH_RATIO_LIMIT`."""
    metrics: dict[str, dict[str, Any]] = {}
    ratios: dict[str, float] = {}
    for name in BATCH_TEMPLATES:
        space = plan_space_for(name)
        for spread in BATCH_SPREADS:
            points = RandomTrajectoryWorkload(
                space.dimensions, spread=spread, seed=BATCH_WALK_SEED
            ).generate(BATCH_INSTANCES)
            cells = [_batch_cell(space, points) for __ in range(BATCH_REPEATS)]
            scalar_us = min(cell[0] for cell in cells) * 1e6
            batch_us = min(cell[1] for cell in cells) * 1e6
            key = f"{name}_{spread:g}"
            ratios[key] = batch_us / scalar_us
            metrics[f"{key}_scalar_us"] = metric(
                scalar_us, "us/decision", "lower",
                tolerance_pct=BATCH_TOLERANCE_PCT,
            )
            metrics[f"{key}_batch_us"] = metric(
                batch_us, "us/decision", "lower",
                tolerance_pct=BATCH_TOLERANCE_PCT,
            )
            metrics[f"{key}_batch_ratio"] = metric(
                ratios[key], "x", "lower",
                tolerance_pct=BATCH_RATIO_TOLERANCE_PCT,
            )
    return make_envelope(
        "batch",
        metrics=metrics,
        workload={
            "templates": list(BATCH_TEMPLATES),
            "spreads": list(BATCH_SPREADS),
            "instances": BATCH_INSTANCES,
            "block": BATCH_BLOCK,
            "repeats": BATCH_REPEATS,
            "seeds": {"session": SESSION_SEED, "walk": BATCH_WALK_SEED},
        },
        gate={
            "max_batch_ratio": BATCH_RATIO_LIMIT,
            "passed": all(
                ratio <= BATCH_RATIO_LIMIT for ratio in ratios.values()
            ),
        },
    )


# ----------------------------------------------------------------------
# write_path: what an optimizer call adds to a decision
# ----------------------------------------------------------------------

#: Each cell: a walk of this spread, as in the e2e ``q5_wide`` workload,
#: where nearly every decision calls the optimizer and inserts.
WRITE_SPREAD = 0.15
WRITE_WALK_SEED = 3
#: The insert cell: a block shaped like a default Q5 session's (five
#: transforms, one row per Q5 plan, 40 buckets), warmed by the first
#: walk points; about 96% of the timed inserts then land on rows at
#: the budget, so they open a bucket and merge or join one.
WRITE_INSERT_TEMPLATE = "Q5"
WRITE_BUDGET = 40
WRITE_WARMUP = 4000
WRITE_PROBES = 1000
WRITE_LABEL_TEMPLATES = ("Q1", "Q3", "Q5")
#: The one-point z pass cell: a 2-d and a 4-d template.
WRITE_Z_TEMPLATES = ("Q1", "Q5")
#: The one-point predict cell: a session warmed by a walk's first
#: points, then timed over the next :data:`WRITE_PROBES`.
WRITE_PREDICT_TEMPLATES = ("Q1", "Q5")
WRITE_PREDICT_WARMUP = 1000
#: The one-instance bind cell: a 2-d and a 4-d template.
WRITE_BIND_TEMPLATES = ("Q1", "Q5")
WRITE_REPEATS = 5
#: Shared-runner allowance on the per-call walls, as for the other
#: wall-clock metrics.
WRITE_TOLERANCE_PCT = 100.0


def _write_walk(space: PlanSpace, count: int) -> np.ndarray:
    return RandomTrajectoryWorkload(
        space.dimensions, spread=WRITE_SPREAD, seed=WRITE_WALK_SEED
    ).generate(count)


def _insert_cell() -> tuple[float, float]:
    """Best-of-N seconds per :meth:`PackedHistograms.insert` of a
    labelled walk point into the warmed block, and the share of the
    timed inserts whose plan's rows are all at the budget."""
    space = plan_space_for(WRITE_INSERT_TEMPLATE)
    points = _write_walk(space, WRITE_WARMUP + WRITE_PROBES)
    ids, costs = space.label(points)
    predictor = HistogramPredictor(
        SamplePool(space.dimensions),
        plan_count=space.plan_count,
        histogram_kind="incremental",
        seed=SESSION_SEED,
    )
    z_values = predictor.z_values(points)
    writes = list(zip(ids.tolist(), z_values.T, costs.tolist(), strict=True))
    warmed = PackedHistograms.from_buckets(
        [[[]] * space.plan_count for __ in range(z_values.shape[0])]
    )
    for plan, z, cost in writes[:WRITE_WARMUP]:
        warmed.insert(plan, z, cost, 1.0, WRITE_BUDGET)
    full = (warmed.bucket_counts == WRITE_BUDGET).all(axis=0)
    best = float("inf")
    for __ in range(WRITE_REPEATS):
        block = copy.deepcopy(warmed)
        t0 = perf_counter()
        for plan, z, cost in writes[WRITE_WARMUP:]:
            block.insert(plan, z, cost, 1.0, WRITE_BUDGET)
        best = min(best, perf_counter() - t0)
    share = float(np.mean(full[ids[WRITE_WARMUP:]]))
    return best / WRITE_PROBES, share


def _best_per_call(call: Callable[[], Any]) -> float:
    """Best-of-N seconds per call of a :data:`WRITE_PROBES`-call loop."""
    best = float("inf")
    for __ in range(WRITE_REPEATS):
        t0 = perf_counter()
        call()
        best = min(best, perf_counter() - t0)
    return best / WRITE_PROBES


def _checked_walk(name: str) -> tuple[PlanSpace, list[np.ndarray]]:
    """A template's plan space and its walk as one-point rows.  Raises
    :class:`BenchError` unless, at every walk point, the compiled
    program costs every plan bit for bit what the plan's node formulas
    (:meth:`PhysicalPlan.cost`) cost."""
    space = plan_space_for(name)
    points = _write_walk(space, WRITE_PROBES)
    rows = [point[None, :] for point in points]
    selectivities = space._enumerator.selectivities(points)
    formulas = np.stack([plan.cost(selectivities) for plan in space.plans])
    program = np.hstack([space.cost_matrix(row) for row in rows])
    if program.tobytes() != formulas.tobytes():
        raise BenchError(
            f"the cost program differs from the node formulas on {name}"
        )
    return space, rows


def _label_cell(name: str) -> float:
    """Best-of-N seconds per one-point :meth:`PlanSpace.label` over a
    walk.  Raises :class:`BenchError` unless every one-point label
    equals the batch label of the walk, plan id and cost bits."""
    space, rows = _checked_walk(name)
    ids, costs = space.label(np.vstack(rows))
    labels = [space.label(row) for row in rows]
    if [int(i[0]) for i, __ in labels] != ids.tolist() or (
        np.array([c[0] for __, c in labels]).tobytes() != costs.tobytes()
    ):
        raise BenchError(f"one-point labels differ from the batch on {name}")

    def label() -> None:
        for row in rows:
            space.label(row)

    return _best_per_call(label)


def _cost_at_cell(name: str) -> float:
    """Best-of-N seconds per one-point :meth:`PlanSpace.cost_at` over a
    walk, the cost of plan ``i % plans`` at point ``i``."""
    space, rows = _checked_walk(name)
    calls = [(row, i % space.plan_count) for i, row in enumerate(rows)]

    def cost_at() -> None:
        for row, plan_id in calls:
            space.cost_at(row, plan_id)

    return _best_per_call(cost_at)


def _z_cell(name: str) -> float:
    """Best-of-N seconds per one-point :meth:`HistogramPredictor.z_values`
    over a walk, on a predictor seeded as the sessions are.  Raises
    :class:`BenchError` unless, at every walk point, the compiled
    one-point program's z-values equal the stacked pass over the whole
    walk, bit for bit."""
    space = plan_space_for(name)
    points = _write_walk(space, WRITE_PROBES)
    rows = [point[None, :] for point in points]
    predictor = HistogramPredictor(
        SamplePool(space.dimensions),
        plan_count=space.plan_count,
        histogram_kind="incremental",
        seed=SESSION_SEED,
    )
    program = np.hstack([predictor.z_values(row) for row in rows])
    if program.tobytes() != predictor.z_values(points).tobytes():
        raise BenchError(
            f"the z program differs from the stacked pass on {name}"
        )

    def z_values() -> None:
        for row in rows:
            predictor.z_values(row)

    return _best_per_call(z_values)


def _prediction_bits(
    predictions: "list[Prediction | None]",
) -> "list[tuple[int, bytes, bytes | None] | None]":
    """Each prediction's plan id and its confidence and estimated-cost
    bits (``None`` for a NULL prediction or an absent estimate)."""
    return [
        None if p is None else (
            p.plan_id,
            struct.pack("<d", p.confidence),
            None if p.estimated_cost is None
            else struct.pack("<d", p.estimated_cost),
        )
        for p in predictions
    ]


def _predict_cell(name: str) -> tuple[float, float]:
    """Best-of-N seconds per one-point
    :meth:`HistogramPredictor.predict_z` (a served decision's lookup
    and decide) over a walk, on a session warmed by the walk's first
    points, and the share of the timed points it answers.  Raises
    :class:`BenchError` unless, at every timed point, the step's
    prediction is the block path's decision of its column, plan id,
    confidence and estimated-cost bits."""
    space = plan_space_for(name)
    points = _write_walk(space, WRITE_PREDICT_WARMUP + WRITE_PROBES)
    session = TemplateSession(space, PPCConfig(), seed=SESSION_SEED)
    for x in points[:WRITE_PREDICT_WARMUP]:
        session.execute(x)
    predictor = session.predictor
    z_values = predictor.z_values(points[WRITE_PREDICT_WARMUP:])
    columns = list(z_values.T.copy())
    block = predictor.decide(*predictor.lookup(z_values))
    one_point = [predictor.predict_z(z) for z in columns]
    if _prediction_bits(one_point) != _prediction_bits(block):
        raise BenchError(
            f"the one-point predict differs from the block decision on {name}"
        )

    def predict() -> None:
        for z in columns:
            predictor.predict_z(z)

    answered = sum(p is not None for p in one_point) / WRITE_PROBES
    return _best_per_call(predict), answered


def _bind_cell(name: str) -> float:
    """Best-of-N seconds per one-instance :meth:`TemplateBinder.to_point`
    over the instances of a walk (placed with ``to_instance``), on a
    binder over the default TPC-H statistics.  Raises
    :class:`BenchError` unless every instance's point equals its row of
    one :meth:`TemplateBinder.to_points` over the whole walk, bit for
    bit."""
    binder = TemplateBinder(
        query_template(name), build_statistics(build_catalog(), seed=0)
    )
    points = RandomTrajectoryWorkload(
        binder.template.parameter_degree,
        spread=WRITE_SPREAD,
        seed=WRITE_WALK_SEED,
    ).generate(WRITE_PROBES)
    instances = [binder.to_instance(point) for point in points]
    one_point = np.array([binder.to_point(i) for i in instances])
    if one_point.tobytes() != binder.to_points(instances).tobytes():
        raise BenchError(
            f"the one-instance bind differs from the run's rows on {name}"
        )

    def bind() -> None:
        for instance in instances:
            binder.to_point(instance)

    return _best_per_call(bind)


def run_write_path() -> dict[str, Any]:
    """Per-call cost of the two writes an optimizer call makes past its
    decision: one steady-state insert into a Q5-shaped packed block,
    and one one-point label per template; of one one-point ``cost_at``,
    which a decision served from the cache pays to cost the plan it
    runs; of one one-point z pass, which every decision and every
    insert without handed-over z-values pays; of the one-point lookup
    and decide that follow it in every decision; and of the
    one-instance bind in front of every scalar ``service.execute``."""
    insert_s, full_share = _insert_cell()
    metrics = {
        "insert_us": metric(
            insert_s * 1e6, "us/call", "lower",
            tolerance_pct=WRITE_TOLERANCE_PCT,
        )
    }
    for name in WRITE_LABEL_TEMPLATES:
        metrics[f"{name}_label_us"] = metric(
            _label_cell(name) * 1e6, "us/call", "lower",
            tolerance_pct=WRITE_TOLERANCE_PCT,
        )
        metrics[f"{name}_cost_at_us"] = metric(
            _cost_at_cell(name) * 1e6, "us/call", "lower",
            tolerance_pct=WRITE_TOLERANCE_PCT,
        )
    for name in WRITE_Z_TEMPLATES:
        metrics[f"{name}_z_us"] = metric(
            _z_cell(name) * 1e6, "us/call", "lower",
            tolerance_pct=WRITE_TOLERANCE_PCT,
        )
    answered = {}
    for name in WRITE_PREDICT_TEMPLATES:
        seconds, answered[name] = _predict_cell(name)
        metrics[f"{name}_predict_us"] = metric(
            seconds * 1e6, "us/call", "lower",
            tolerance_pct=WRITE_TOLERANCE_PCT,
        )
    for name in WRITE_BIND_TEMPLATES:
        metrics[f"{name}_bind_us"] = metric(
            _bind_cell(name) * 1e6, "us/call", "lower",
            tolerance_pct=WRITE_TOLERANCE_PCT,
        )
    return make_envelope(
        "write_path",
        metrics=metrics,
        workload={
            "insert_template": WRITE_INSERT_TEMPLATE,
            "budget": WRITE_BUDGET,
            "warmup": WRITE_WARMUP,
            "probes": WRITE_PROBES,
            "label_templates": list(WRITE_LABEL_TEMPLATES),
            "z_templates": list(WRITE_Z_TEMPLATES),
            "predict_templates": list(WRITE_PREDICT_TEMPLATES),
            "predict_warmup": WRITE_PREDICT_WARMUP,
            "bind_templates": list(WRITE_BIND_TEMPLATES),
            "spread": WRITE_SPREAD,
            "repeats": WRITE_REPEATS,
            "seeds": {"session": SESSION_SEED, "walk": WRITE_WALK_SEED},
        },
        details={
            "insert_full_row_share": full_share,
            "predict_answered_share": answered,
        },
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
        BenchDef("harvest", "harvest", run_harvest, ("ci", "full")),
        BenchDef("setup", "setup", run_setup, ("ci", "full")),
        BenchDef("batch", "batch", run_batch, ("ci", "full")),
        BenchDef("write_path", "write_path", run_write_path, ("ci", "full")),
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
