"""End-to-end plan-cache decision benchmark.

Drives the adopter-facing ``PlanCachingService`` from outside, the way
an application would: one caller thread in a closed loop with no think
time, one workload per process.  Run from the repository root::

    python3 benchmarks/e2e/run.py --workload q1_hot --seed 11 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py            # every workload, one subprocess each
    python3 benchmarks/e2e/run.py --smoke    # 1/20 of the instances, one replay

``--trace 0`` is the timed run and reports the end-to-end metrics;
``--trace 1`` is a separate traced run that reports the per-layer
metrics and writes raw spans to ``benchmarks/e2e/out/<workload>/``.
Each run prints its metrics by name and unit, then, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  It
exits non-zero when any correctness check fails.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: the load is a single
# caller thread, and a second BLAS thread would only compete with it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections.abc import Callable  # noqa: E402
from contextlib import AbstractContextManager, nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from repro import PlanCachingService, PPCConfig  # noqa: E402
from repro.config import EventsConfig, ProfileConfig, TelemetryConfig  # noqa: E402
from repro.resilience import VirtualClock  # noqa: E402

import speed  # noqa: E402
from layers import ROOT, Tracer, targets  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

#: Run length the workload sizes in ``workloads.py`` are set for;
#: ``--seconds`` scales every instance count by ``seconds / this``.
DEFAULT_SECONDS = 10
#: Fresh services per timed run, each replaying the same instances; a
#: timing is the minimum over them.
REPLAYS = 3
#: ``--smoke`` divides every instance count by this and replays once.
SMOKE_DIVISOR = 20
#: Decisions whose raw spans the traced run writes out.
SPAN_DECISIONS = 200
#: Virtual seconds the observed workload's clock advances per instance.
TICK_S = 0.1
#: Instances of ``batch_prepared`` re-run sequentially as the parity check.
PARITY_INSTANCES = 1000
#: Reasons that invoke the optimizer before execution: the plan that
#: runs must then be the optimal one.
OPTIMIZED_FIRST = ("null_prediction", "exploration", "cache_miss")
INVOCATION_REASONS = OPTIMIZED_FIRST + ("negative_feedback",)

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "decision_p50_us": "us",
    "decision_p95_us": "us",
    "throughput_ips": "1/s",
    "optimizer_call_rate": "fraction",
    "synopsis_kb": "KiB",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``) and their units.  Values are per
#: timed instance unless the name says otherwise.
PER_LAYER = {
    "histograms.range_query_calls": "count",
    "histograms.range_query_us": "us",
    "lsh.z_values_us": "us",
    "predictor.self_us": "us",
    "predictor.median_us": "us",
    "confidence.decide_us": "us",
    "histograms.insert_calls": "count",
    "histograms.insert_us": "us",
    "predictor.insert_us": "us",
    "optimizer.label_calls": "count",
    "optimizer.label_us": "us",
    "optimizer.cost_at_us": "us",
    "predictor.predict_calls": "count",
    "predictor.rows_per_instance": "count",
    "framework.self_us": "us",
    "framework.records_retained": "count",
    "framework.regret_pct": "%",
    "service.bind_us": "us",
    "cache.hit_rate": "fraction",
    "cache.evictions_per_1k": "count",
    **{
        f"framework.invocations.{reason}_per_1k": "count"
        for reason in INVOCATION_REASONS
    },
    "monitor.us": "us",
    "obs.us": "us",
    "obs.tracer_us": "us",
    "obs.telemetry_us": "us",
    "obs.events_per_instance": "count",
    "optimizer.harvest_optimize_calls": "count",
    "optimizer.harvest_s": "s",
    "trace.decision_us": "us",
    "trace.attributed_pct": "%",
    "trace.overhead_pct": "%",
}


def percentile(samples: np.ndarray, q: float, min_beyond: int = 10) -> float:
    """The ``q``-th percentile, refused when fewer than ``min_beyond``
    samples lie beyond it (the percentile would rest on a handful)."""
    beyond = len(samples) * (100.0 - q) / 100.0
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has {beyond:g} beyond it; "
            f"need at least {min_beyond}"
        )
    return float(np.percentile(samples, q))


@dataclass
class Replay:
    """One fresh service's pass over the workload's instances."""

    #: Wall seconds of each timed call (one instance, or one batch).
    times: np.ndarray
    #: Probe seconds around each timed call (see ``speed.py``).
    probes: np.ndarray
    #: Instances per timed call.
    sizes: np.ndarray
    #: One record per instance, ``None`` where the call raised.
    records: list = field(repr=False)
    synopsis_bytes: int = 0

    @property
    def scaled(self) -> np.ndarray:
        """Seconds of each timed call at nominal machine speed."""
        return self.times * speed.NOMINAL_S / self.probes

    @property
    def timed_records(self) -> list:
        return self.records[len(self.records) - int(self.sizes.sum()):]

    @property
    def failed(self) -> int:
        return sum(r is None or r.degraded for r in self.records)

    def digest(self) -> str:
        """Hash of every decision and the final synopsis footprint."""
        h = hashlib.sha256(str(self.synopsis_bytes).encode())
        for r in self.records:
            h.update(repr(decision(r)).encode())
        return h.hexdigest()


def decision(record) -> tuple:
    """The comparable content of one execution record."""
    if record is None:
        return ("raised",)
    return (
        record.template, record.predicted, record.optimizer_invoked,
        record.invocation_reason, record.executed_plan,
        float(record.execution_cost).hex(), record.optimal_plan,
        record.drift_triggered, record.degraded, record.fallback_source,
    )


@dataclass
class Lane:
    """One fresh service under replay, and the tracer timing its layers."""

    service: PlanCachingService
    clock: "VirtualClock | None"
    #: Catalog, statistics and every template's plan-space harvest, in
    #: seconds at nominal machine speed, and in wall seconds.
    setup_s: float
    setup_wall_s: float
    tracer: "Tracer | None" = None

    def traced(self, phase: str) -> AbstractContextManager:
        """Layer wrappers installed, aggregating into ``phase`` (a no-op
        on an untraced lane)."""
        if self.tracer is None:
            return nullcontext()
        self.tracer.phase = phase
        return self.tracer.installed()


def build(workload: Workload, tracer: "Tracer | None" = None) -> Lane:
    """A fresh service with the workload's templates registered; with a
    ``tracer``, built with the layer wrappers installed so the harvest is
    traced and bound methods captured at construction are wrapped."""
    clock = None
    config = None
    if workload.observed:
        clock = VirtualClock()
        config = PPCConfig(
            events=EventsConfig(enabled=True, capacity=4096),
            profiling=ProfileConfig(enabled=True, interval=1),
            telemetry=TelemetryConfig(enabled=True),
        )
    lane = Lane(None, clock, 0.0, 0.0, tracer)
    probed = [speed.probe()]

    def step(action: Callable[[], object]) -> object:
        start = perf_counter()
        result = action()
        elapsed = perf_counter() - start
        probed.append(speed.probe())
        lane.setup_wall_s += elapsed
        lane.setup_s += speed.scaled(elapsed, probed[-2], probed[-1])
        return result

    with lane.traced("setup"):
        lane.service = step(lambda: PlanCachingService.tpch(
            scale_factor=1.0,
            seed=0,
            config=config,
            clock=clock,
            sleep=None if clock is None else clock.sleep,
        ))
        for template in workload.templates:
            step(lambda: lane.service.register(template))
    return lane


def plan_counts(service: PlanCachingService) -> dict[str, int]:
    return {
        name: session.plan_space.plan_count
        for name, session in service.framework.sessions.items()
    }


def instances_for(service, workload: Workload, seed: int, scale: float) -> list:
    """The workload's query instances: seeded points through the
    service's binders (done once, before any timing)."""
    count = max(1, round((workload.warmup + workload.timed) * scale))
    dims = {
        name: session.plan_space.dimensions
        for name, session in service.framework.sessions.items()
    }
    return [
        service.instance_at(name, point)
        for name, point in generate(workload, dims, seed, count)
    ]


def replay(
    lanes: list[Lane],
    workload: Workload,
    instances: list,
    warmup: int,
    on_timed: "Callable[[], object] | None" = None,
) -> list[Replay]:
    """Warm every lane up untimed, then time every service call of the
    rest, the lanes in lockstep (alternating which goes first).

    Lockstep puts a traced and an untraced call of the same instance
    milliseconds apart, so their ratio survives the machine's slow
    spells.  ``on_timed`` runs between warm-up and timing.
    """
    records: list[list] = [[] for __ in lanes]
    for lane, out in zip(lanes, records):
        with lane.traced("warmup"):
            for instance in instances[:warmup]:
                if lane.clock is not None:
                    lane.clock.advance(TICK_S)
                out.append(lane.service.execute(instance))
    timed = instances[warmup:]
    step = workload.batch
    calls = [timed[i:i + step] for i in range(0, len(timed), step)]
    sizes = np.array([len(call) for call in calls], dtype=float)
    times = np.empty((len(lanes), len(calls)))
    track = speed.SpeedTrack()
    if on_timed is not None:
        on_timed()
    track.sample(0)
    for index, call in enumerate(calls):
        track.maybe_sample(index)
        order = range(len(lanes)) if index % 2 == 0 else reversed(range(len(lanes)))
        for which in order:
            lane = lanes[which]
            if lane.clock is not None:
                lane.clock.advance(TICK_S * len(call))
            if step > 1:
                execute, argument = lane.service.execute_batch, call
            else:
                execute, argument = lane.service.execute, call[0]
            with lane.traced("timed"):
                start = perf_counter()
                try:
                    if lane.tracer is None:
                        out = execute(argument)
                    else:
                        out = lane.tracer.call(index, execute, argument)
                except Exception:
                    out = None
                    traceback.print_exc(file=sys.stderr)
                times[which, index] = perf_counter() - start
            if out is None:
                records[which].extend([None] * len(call))
            else:
                records[which].extend(out if step > 1 else [out])
    track.sample(len(calls))
    probes = track.around(len(calls))
    return [
        Replay(times[which], probes, sizes, records[which],
               lane.service.framework.space_bytes)
        for which, lane in enumerate(lanes)
    ]


def check_records(records: list, counts: dict[str, int]) -> list[str]:
    """Invariants every execution record must satisfy."""
    problems = []
    for index, r in enumerate(records):
        if r is None:
            continue  # counted as a failure, not a wrong answer
        if not 0 <= r.executed_plan < counts[r.template]:
            problems.append(f"#{index}: executed plan {r.executed_plan} out of range")
        if r.suboptimality < 1.0 - 1e-9:
            problems.append(f"#{index}: suboptimality {r.suboptimality} < 1")
        if (
            r.invocation_reason in OPTIMIZED_FIRST
            and not r.degraded
            and r.executed_plan != r.optimal_plan
        ):
            problems.append(
                f"#{index}: {r.invocation_reason} ran plan {r.executed_plan}, "
                f"optimum is {r.optimal_plan}"
            )
    return problems


def check_batch_parity(workload: Workload, instances: list, first: Replay,
                       limit: int) -> list[str]:
    """``execute_batch`` decisions equal sequential ``execute`` on a
    fresh service, over the first ``limit`` instances."""
    service = build(workload).service
    problems = []
    for index, instance in enumerate(instances[:limit]):
        sequential = decision(service.execute(instance))
        if sequential != decision(first.records[index]):
            problems.append(f"#{index}: batch and sequential decisions differ")
    return problems


def run_timed(workload: Workload, seed: int, scale: float, replays: int,
              min_beyond: int) -> tuple[dict, dict, list[str]]:
    """``replays`` fresh services over identical instances: end-to-end
    metrics, a summary, and every correctness problem found.

    Percentiles are refused with fewer than ``min_beyond`` samples
    beyond them.
    """
    setups, walls, runs, problems = [], [], [], []
    instances: list = []
    warmup = round(workload.warmup * scale)
    for __ in range(replays):
        lane = build(workload)
        setups.append(lane.setup_s)
        walls.append(lane.setup_wall_s)
        if not instances:
            instances = instances_for(lane.service, workload, seed, scale)
            counts = plan_counts(lane.service)
        (run,) = replay([lane], workload, instances, warmup)
        problems += check_records(run.records, counts)
        runs.append(run)
        del lane
    digests = {run.digest() for run in runs}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different decision digests over {replays} replays")
    parity = 0
    if workload.batch > 1:
        parity = min(len(instances), max(1, round(PARITY_INSTANCES * scale)))
        problems += check_batch_parity(workload, instances, runs[0], parity)

    first = runs[0]
    # Per call, the fastest of the replays at nominal machine speed.
    fastest = np.min([run.scaled for run in runs], axis=0)
    per_instance = fastest / first.sizes
    wall = np.min([run.times for run in runs], axis=0) / first.sizes
    timed = first.timed_records
    metrics = {
        "setup_s": statistics.median(setups),
        "decision_p50_us": percentile(per_instance, 50, min_beyond) * 1e6,
        "decision_p95_us": percentile(per_instance, 95, min_beyond) * 1e6,
        "throughput_ips": first.sizes.sum() / fastest.sum(),
        "optimizer_call_rate": sum(
            r is not None and r.optimizer_invoked for r in timed
        ) / len(timed),
        "synopsis_kb": first.synopsis_bytes / 1024.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = {
        "replays": replays,
        "instances": len(instances),
        "timed_instances": len(timed),
        "timed_calls": len(per_instance),
        "attempted": replays * len(instances) + parity,
        "failed": sum(run.failed for run in runs),
        "digest": first.digest()[:16],
        "machine speed (probe / nominal), median":
            float(np.median(np.concatenate([run.probes for run in runs])))
            / speed.NOMINAL_S,
        "wall setup_s, median": statistics.median(walls),
        "wall decision_p50_us": float(np.percentile(wall, 50)) * 1e6,
    }
    try:
        summary["decision_p99_us (diagnostic)"] = (
            percentile(per_instance, 99, min_beyond) * 1e6
        )
    except ValueError as exc:
        summary["decision_p99_us (diagnostic)"] = f"refused: {exc}"
    return metrics, summary, problems


def _counters(service: PlanCachingService) -> dict[str, float]:
    """Cache and invocation counters summed over templates."""
    totals: dict[str, float] = {}
    for block in service.metrics()["templates"].values():
        for key in ("hits", "misses", "evictions"):
            totals[key] = totals.get(key, 0) + block["cache"][key]
        for reason in INVOCATION_REASONS:
            totals[reason] = (
                totals.get(reason, 0) + block["invocation_reasons"][reason]
            )
    return totals


def run_traced(workload: Workload, seed: int, scale: float,
               out_dir: Path) -> tuple[dict, dict, list[str]]:
    """An untraced and a traced fresh service replayed in lockstep:
    per-layer metrics, a summary, and every correctness problem found."""
    warmup = round(workload.warmup * scale)
    originals = targets()
    plain = build(workload)
    tracer = Tracer(keep_requests=-(-SPAN_DECISIONS // workload.batch))
    traced = build(workload, tracer)
    instances = instances_for(plain.service, workload, seed, scale)
    counts = plan_counts(plain.service)
    before: dict[str, float] = {}
    runs = replay(
        [plain, traced], workload, instances, warmup,
        on_timed=lambda: before.update(_counters(traced.service)),
    )
    delta = {
        key: value - before[key]
        for key, value in _counters(traced.service).items()
    }
    problems = []
    for run in runs:
        problems += check_records(run.records, counts)
    if runs[0].digest() != runs[1].digest():
        problems.append("the traced service decided differently")
    if targets() != originals:
        problems.append("layer attributes were not restored after tracing")
    if tracer.missing:
        print(f"warning: layer targets not found: {tracer.missing}", file=sys.stderr)
    tracer.write_spans(out_dir / workload.name / "spans.jsonl")

    n = int(runs[1].sizes.sum())
    timed = runs[1].timed_records

    def per_instance_us(layer: str) -> float:
        return tracer.stat("timed", layer)[1] / n * 1e6

    def calls(layer: str) -> float:
        return tracer.stat("timed", layer)[0] / n

    lookups = delta["hits"] + delta["misses"]
    root_calls, root_self, root_total, __ = tracer.stat("timed", ROOT)
    framework_self = tracer.stat("timed", "framework")[1]
    obs_layers = ("obs.tracer", "obs.events", "obs.profiler", "obs.telemetry")
    metrics = {
        "histograms.range_query_calls": calls("histograms.range_query"),
        "histograms.range_query_us": per_instance_us("histograms.range_query"),
        "lsh.z_values_us": per_instance_us("lsh.z_values"),
        "predictor.self_us": per_instance_us("predictor"),
        "predictor.median_us": per_instance_us("predictor.median"),
        "confidence.decide_us": per_instance_us("confidence.decide"),
        "histograms.insert_calls": calls("histograms.insert"),
        "histograms.insert_us": per_instance_us("histograms.insert"),
        "predictor.insert_us": per_instance_us("predictor.insert"),
        "optimizer.label_calls": calls("optimizer.label"),
        "optimizer.label_us": per_instance_us("optimizer.label"),
        "optimizer.cost_at_us": per_instance_us("optimizer.cost_at"),
        "predictor.predict_calls": calls("predictor"),
        "predictor.rows_per_instance": tracer.stat("timed", "predictor")[3] / n,
        "framework.self_us": per_instance_us("framework"),
        "framework.records_retained": sum(
            len(session.records)
            for session in traced.service.framework.sessions.values()
        ),
        "framework.regret_pct": 100.0 * sum(
            r.suboptimality - 1.0 for r in timed if r is not None
        ) / len(timed),
        "service.bind_us": per_instance_us("service.bind"),
        "cache.hit_rate": delta["hits"] / lookups if lookups else 0.0,
        "cache.evictions_per_1k": 1000.0 * delta["evictions"] / n,
        **{
            f"framework.invocations.{reason}_per_1k": 1000.0 * delta[reason] / n
            for reason in INVOCATION_REASONS
        },
        "monitor.us": per_instance_us("monitor"),
        "obs.us": sum(per_instance_us(layer) for layer in obs_layers),
        "obs.tracer_us": per_instance_us("obs.tracer"),
        "obs.telemetry_us": per_instance_us("obs.telemetry"),
        "obs.events_per_instance": calls("obs.events"),
        "optimizer.harvest_optimize_calls": tracer.stat("setup", "optimizer.harvest")[0],
        "optimizer.harvest_s": tracer.stat("setup", "optimizer.harvest")[2],
        "trace.decision_us": root_total / n * 1e6,
        "trace.attributed_pct": 100.0 * (1.0 - (root_self + framework_self) / root_total),
        "trace.overhead_pct": 100.0 * (runs[1].times.sum() / runs[0].times.sum() - 1.0),
    }
    summary = {
        "replays": "1 untraced + 1 traced, in lockstep",
        "instances": len(instances),
        "timed_instances": n,
        "timed_calls": int(root_calls),
        "attempted": 2 * len(instances),
        "failed": sum(run.failed for run in runs),
        "spans": len(tracer.spans),
    }
    return metrics, summary, problems


def run_workload(args: argparse.Namespace) -> int:
    """One workload in this process; prints its result, returns the exit code."""
    workload = WORKLOADS[args.workload]
    scale = args.seconds / DEFAULT_SECONDS
    if args.smoke:
        scale /= SMOKE_DIVISOR
    if args.trace:
        metrics, summary, problems = run_traced(
            workload, args.seed, scale, HERE / "out"
        )
        units = PER_LAYER
    else:
        metrics, summary, problems = run_timed(
            workload, args.seed, scale,
            replays=1 if args.smoke else REPLAYS,
            min_beyond=0 if args.smoke else 10,
        )
        units = END_TO_END
    mode = "traced" if args.trace else "timed"
    print(f"{workload.name} ({mode}, seed {args.seed}): {workload.why}")
    for key, value in summary.items():
        print(f"  {key:<40} {value}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems and summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload here (default: each in turn, "
                        "one subprocess each)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="run length the instance counts are scaled to")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"1/{SMOKE_DIVISOR} of the instances, one replay")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload is not None:
        return run_workload(args)
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
