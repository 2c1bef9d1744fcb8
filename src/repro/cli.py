"""Command-line interface: ``python -m repro <command>``.

Small utilities for poking at the reproduction without writing code:

* ``templates`` — Table III: the nine query templates and plan counts;
* ``diagram Q1`` — ASCII plan diagram of a two-parameter template;
* ``predict Q1 0.3 0.7`` — the optimizer's choice and the per-plan
  costs at one plan-space point;
* ``session Q1 --instances 500`` — run an online plan-caching session
  over a trajectory workload and report the outcome;
* ``stats Q1 Q2 --instances 300`` — run a mixed workload through the
  value-level service and render the observability snapshot (stage
  latencies, invocation reasons, cache hit rates, governor totals) as
  a table, JSON, or Prometheus text;
* ``explain Q1 --point 0.3 0.7`` — warm a session, then run one
  instance fully traced and print the decision's span tree: every LSH
  transform's per-plan densities and vote, the confidence computation
  against γ, noise elimination, and the fallback rung taken;
* ``trace export Q1 --instances 300`` / ``trace audit Q1`` — run a
  fully-traced workload and either export the flight recorder as JSON
  Lines or render the misprediction regret audit (suboptimality
  attributed to the pipeline stage that caused it);
* ``faults Q1 --instances 2000`` — fault-injection bench: run a
  workload with a failing optimizer/predictor and torn persistence
  writes, and report degradations, fallback servings, breaker state
  and snapshot recovery (exits 1 on any uncaught exception);
  ``--trace-out traces.jsonl`` additionally dumps the error-biased
  flight recorders for post-hoc diagnosis;
* ``report Q1 --instances 400`` — run a seeded workload on a virtual
  clock and render the cache-quality health report: per-template
  synopsis scorecards (coverage/purity/entropy), rolling
  accuracy/regret, SLO burn-rate states, and time-series sparklines —
  as text, JSON, or a self-contained HTML page (``--fail-on-breach``
  exits 1 when any SLO breaches);
* ``watch Q1 --iterations 5`` — poll the same health signals between
  workload batches, one status line per template per tick;
* ``scenarios list`` / ``scenarios run --fast`` — the adversarial
  scenario fleet: named, seeded workloads (flash crowds, step/slow
  plan-space drift, bursts, cold-start storms, heavy-tail costs,
  cache-eviction pressure), each asserting machine-checkable
  robustness contracts (exit 1 on any contract breach); ``--out``
  writes the BENCH matrix, ``--record-dir`` records replayable traces;
* ``replay record step_drift --out t.jsonl`` / ``replay run t.jsonl``
  / ``replay verify t.jsonl`` — deterministic workload traces: record
  a scenario's full event stream + decision sequence, re-run it from
  scratch, and verify the replayed decisions are bit-identical
  (exit 1 on any divergence);
* ``profile Q1 --instances 400`` — hot-path stage profiler: run a
  seeded workload with the deterministic in-process profiler enabled
  and print the per-stage call/cumulative/self-time tree (normalize →
  predict → decide → optimize/execute → feedback, plus the
  predictor-internal stages on traced instances);
  ``--collapsed-out stacks.json`` writes collapsed stacks for
  flamegraph tooling;
* ``lineage why --template Q1 --plan 3`` / ``lineage timeline`` /
  ``lineage export --out events.jsonl`` — cache lineage forensics:
  run a workload with the synopsis lifecycle event journal enabled
  (or load an exported journal with ``--journal``) and answer "why is
  plan P cached for template T" with the full insert → feedback →
  eviction/drift provenance chain, render the typed event timeline,
  or export the journal as checksummed JSONL (``--at SEQ`` time-travels
  to any event offset);
* ``plan-profile Q1`` — structural profile of a template's plan space
  (plan-area fractions, region counts);
* ``bench run --suite ci`` / ``bench compare`` / ``bench history`` —
  the unified benchmark harness: run the registered benches, journal
  schema-v2 envelopes to ``benchmarks/results/history.jsonl``, and
  gate the latest run against the committed ``BENCH_*.json`` baselines
  with MAD-widened per-metric tolerances (exit 1 on any regression);
* ``lint`` — the AST-based invariant linter, one file at a time
  (RPR001-RPR009: determinism, clock, metrics, persistence, span
  discipline; RPR101/RPR103/RPR104: I/O-free observability, the
  ``_commit`` mutation seam, documented exceptions — see
  ``repro lint --list-rules``), exit 1 on findings;
* ``assumptions Q1`` — validate plan choice predictability on a template.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import PPCConfig, PPCFramework
from repro.experiments.assumptions import run_assumption_validation
from repro.experiments.diagrams import plan_diagram
from repro.tpch import TEMPLATE_NAMES, plan_space_for, query_template
from repro.workload import RandomTrajectoryWorkload, sample_points


def _cmd_templates(args: argparse.Namespace) -> int:
    print(f"{'name':>4s} {'degree':>7s} {'plans':>6s}  sql")
    for name in TEMPLATE_NAMES:
        template = query_template(name)
        space = plan_space_for(name)
        probes = sample_points(space.dimensions, args.probes, seed=0)
        plans = len(set(space.plan_at(probes).tolist()))
        print(
            f"{name:>4s} {template.parameter_degree:7d} {plans:6d}  "
            f"{template.sql()}"
        )
    return 0


def _cmd_diagram(args: argparse.Namespace) -> int:
    template = query_template(args.template)
    if template.parameter_degree != 2:
        print(
            f"{args.template} has degree {template.parameter_degree}; "
            "diagrams need a 2-parameter template (Q0, Q1, Q2)",
            file=sys.stderr,
        )
        return 1
    diagram = plan_diagram(args.template, resolution=args.resolution)
    print(diagram.render())
    print()
    for plan, fraction in sorted(
        diagram.plan_fractions.items(), key=lambda kv: -kv[1]
    ):
        print(f"P{plan}: {fraction:6.1%}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    space = plan_space_for(args.template)
    if len(args.coords) != space.dimensions:
        print(
            f"{args.template} needs {space.dimensions} coordinates",
            file=sys.stderr,
        )
        return 1
    point = np.array(args.coords)[None, :]
    ids, costs = space.label(point)
    print(f"optimal plan : P{int(ids[0])}  (cost {costs[0]:,.1f})")
    print(space.plan(int(ids[0])).describe())
    print("\nall candidates:")
    matrix = space.cost_matrix(point)[:, 0]
    for plan_id in np.argsort(matrix):
        print(f"  P{int(plan_id)}: {matrix[plan_id]:12,.1f}")
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    space = plan_space_for(args.template)
    framework = PPCFramework(
        PPCConfig(confidence_threshold=args.gamma), seed=args.seed
    )
    framework.register(space)
    workload = RandomTrajectoryWorkload(
        space.dimensions, spread=args.spread, seed=args.seed
    ).generate(args.instances)
    for point in workload:
        framework.execute(args.template, point)
    session = framework.session(args.template)
    metrics = session.ground_truth_metrics()
    print(f"instances            : {args.instances}")
    print(f"optimizer invocations: {session.optimizer_invocations}")
    print(f"precision            : {metrics.precision:.3f}")
    print(f"recall               : {metrics.recall:.3f}")
    print(f"synopsis bytes       : {session.online.space_bytes():,d}")
    return 0


def _format_stage_row(label: str, digest: dict) -> str:
    return (
        f"  {label:<22s} {digest['count']:>7d} "
        f"{digest['p50'] * 1e3:>9.3f} {digest['p95'] * 1e3:>9.3f} "
        f"{digest['p99'] * 1e3:>9.3f} {digest['max'] * 1e3:>9.3f}"
    )


def _render_stats_table(snapshot: dict) -> None:
    for name, template in snapshot["templates"].items():
        print(
            f"template {name}: {template['executions']} instances, "
            f"{template['optimizer_invocations']} optimizer invocations"
        )
        print(
            f"  {'stage':<22s} {'count':>7s} {'p50 ms':>9s} "
            f"{'p95 ms':>9s} {'p99 ms':>9s} {'max ms':>9s}"
        )
        for stage, digest in template["stage_seconds"].items():
            print(_format_stage_row(stage, digest))
        for label, digest in template["predictor"].items():
            if digest is not None:
                print(_format_stage_row(f"predict/{label[:-8]}", digest))
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in template["invocation_reasons"].items()
        )
        print(f"  invocation reasons : {reasons}")
        feedback = template["positive_feedback"]
        print(
            "  positive feedback  : "
            f"accepted={feedback['accepted']} "
            f"rejected={feedback['rejected']}"
        )
        cache = template["cache"]
        print(
            "  plan cache         : "
            f"hits={cache['hits']} misses={cache['misses']} "
            f"evictions={cache['evictions']} "
            f"hit_rate={cache['hit_rate']:.1%} size={cache['size']}"
        )
        print(f"  drift events       : {template['drift_events']}")
        print(f"  synopsis bytes     : {template['synopsis_bytes']:,d}")
    governor = snapshot["governor"]
    if governor is not None:
        print(
            "governor: "
            f"budget={governor['budget_bytes']:,d} B "
            f"resident={governor['total_bytes']:,d} B "
            f"reclaimed={governor['reclaimed_bytes']:,d} B "
            f"shrinks={governor['shrinks']} drops={governor['drops']}"
        )


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.service import PlanCachingService

    if args.instances < 1:
        print("--instances must be >= 1", file=sys.stderr)
        return 1
    if args.budget is not None and args.budget < 1:
        print("--budget must be a positive byte count", file=sys.stderr)
        return 1
    service = PlanCachingService.tpch(
        scale_factor=args.scale,
        config=PPCConfig(confidence_threshold=args.gamma),
        memory_budget_bytes=args.budget,
        seed=args.seed,
    )
    for template in args.templates:
        service.register(template)
    trajectories = {}
    for offset, template in enumerate(args.templates):
        dimensions = service.framework.session(
            template
        ).plan_space.dimensions
        trajectories[template] = RandomTrajectoryWorkload(
            dimensions, spread=args.spread, seed=args.seed + offset
        ).generate(args.instances)
    # Interleave the templates, as a mixed production workload would.
    for index in range(args.instances):
        for template in args.templates:
            service.execute(
                service.instance_at(template, trajectories[template][index])
            )
    if args.format == "prom":
        print(service.prometheus(), end="")
    elif args.format == "json":
        print(json.dumps(service.metrics(), indent=2, sort_keys=True))
    else:
        _render_stats_table(service.metrics())
    return 0


def _trace_service(
    templates: "list[str]",
    gamma: float,
    seed: int,
    scale: float,
    budget: "int | None" = None,
):
    """A service with full (every-execution) decision tracing."""
    from repro.config import TraceConfig
    from repro.service import PlanCachingService

    config = PPCConfig(
        confidence_threshold=gamma,
        trace=TraceConfig(
            interval=1, capacity=4096, error_capacity=512
        ),
    )
    service = PlanCachingService.tpch(
        scale_factor=scale,
        config=config,
        memory_budget_bytes=budget,
        seed=seed,
    )
    for template in templates:
        service.register(template)
    return service


def _run_trace_workload(
    service, templates: "list[str]", instances: int, spread: float, seed: int
) -> None:
    """Interleaved trajectory workload (the ``stats`` shape)."""
    trajectories = {}
    for offset, template in enumerate(templates):
        dimensions = service.framework.session(template).plan_space.dimensions
        trajectories[template] = RandomTrajectoryWorkload(
            dimensions, spread=spread, seed=seed + offset
        ).generate(instances)
    for index in range(instances):
        for template in templates:
            service.execute(
                service.instance_at(template, trajectories[template][index])
            )


def _cmd_explain(args: argparse.Namespace) -> int:
    """Run one instance fully traced and print the span tree."""
    import json

    from repro.exceptions import ReproError
    from repro.obs.tracing import render_trace, trace_to_dict

    service = _trace_service(
        [args.template], args.gamma, args.seed, args.scale
    )
    session = service.framework.session(args.template)
    if len(args.point) != session.plan_space.dimensions:
        print(
            f"{args.template} needs {session.plan_space.dimensions} "
            "point coordinates",
            file=sys.stderr,
        )
        return 1
    if args.warmup:
        _run_trace_workload(
            service, [args.template], args.warmup, args.spread, args.seed
        )
    try:
        trace = service.explain(
            service.instance_at(args.template, np.array(args.point))
        )
    except ReproError as exc:
        print(f"explain failed: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(trace_to_dict(trace), indent=2, sort_keys=True))
    else:
        print(render_trace(trace))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Flight-recorder tooling: JSONL export and the regret audit."""
    from repro.core.persistence import atomic_write_text
    from repro.obs.audit import regret_audit
    from repro.obs.tracing import dumps_jsonl

    if args.instances < 1:
        print("--instances must be >= 1", file=sys.stderr)
        return 1
    service = _trace_service(
        args.templates, args.gamma, args.seed, args.scale
    )
    _run_trace_workload(
        service, args.templates, args.instances, args.spread, args.seed
    )
    traces = service.traces()
    if args.action == "export":
        text = dumps_jsonl(traces)
        if args.out:
            atomic_write_text(args.out, text)
            print(f"wrote {len(traces)} traces to {args.out}")
        else:
            print(text, end="")
        return 0
    audit = regret_audit(traces)
    print(
        f"instances traced     : {audit['instances']}"
    )
    print(
        f"suboptimal decisions : {audit['suboptimal']} "
        f"(total regret {audit['total_regret']:.4f})"
    )
    if not audit["stages"]:
        print("no regret to attribute")
        return 0
    print(
        f"  {'stage':<22s} {'count':>6s} {'regret':>9s} "
        f"{'mean x':>8s} {'max x':>8s} {'undetected':>10s}"
    )
    ranked = sorted(
        audit["stages"].items(), key=lambda kv: -kv[1]["total_regret"]
    )
    for stage, bucket in ranked:
        print(
            f"  {stage:<22s} {bucket['count']:>6d} "
            f"{bucket['total_regret']:>9.4f} "
            f"{bucket['mean_suboptimality']:>8.4f} "
            f"{bucket['max_suboptimality']:>8.4f} "
            f"{bucket['undetected']:>10d}"
        )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Fault-injection bench: prove the pipeline degrades, never dies.

    Runs an interleaved workload with deterministic faults injected
    into the optimizer, the predictor, and persistence snapshots, then
    reports the full resilience accounting.  Exit status 1 if any
    instance raised instead of returning an executable plan.
    """
    import json
    import pathlib
    import tempfile

    from repro.core.histogram_predictor import HistogramPredictor
    from repro.core.persistence import load_predictor
    from repro.core.point import SamplePool
    from repro.exceptions import PersistenceError, ReproError
    from repro.obs import names as metric_names
    from repro.resilience import FaultInjector, FaultSpec, VirtualClock

    if args.instances < 1:
        print("--instances must be >= 1", file=sys.stderr)
        return 1
    clock = VirtualClock()
    injector = FaultInjector(
        {
            "optimizer": FaultSpec(
                failure_probability=args.optimizer_failure
            ),
            "predictor": FaultSpec(
                failure_probability=args.predictor_failure
            ),
            "predictor_insert": FaultSpec(
                failure_probability=args.predictor_failure
            ),
            "persistence": FaultSpec(
                torn_write_probability=args.torn_write
            ),
        },
        seed=args.seed,
        sleep=clock.sleep,
    )
    framework = PPCFramework(
        PPCConfig(confidence_threshold=args.gamma),
        seed=args.seed,
        fault_injector=injector,
        clock=clock,
        sleep=clock.sleep,
    )
    workloads = {}
    for offset, template in enumerate(args.templates):
        space = plan_space_for(template)
        framework.register(space)
        workloads[template] = RandomTrajectoryWorkload(
            space.dimensions, spread=args.spread, seed=args.seed + offset
        ).generate(args.instances)

    state_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-faults-"))
    uncaught = 0
    snapshots = {"attempts": 0, "torn": 0}
    for index in range(args.instances):
        for template in args.templates:
            try:
                framework.execute(template, workloads[template][index])
            except ReproError as exc:
                uncaught += 1
                print(
                    f"uncaught failure on {template}: {exc}",
                    file=sys.stderr,
                )
            # Each instance advances simulated wall-clock, so breaker
            # recovery windows actually elapse.
            clock.advance(0.001)
        if args.snapshot_every and (index + 1) % args.snapshot_every == 0:
            for template in args.templates:
                snapshots["attempts"] += 1
                try:
                    injector.save_predictor(
                        framework.session(template).online.predictor,
                        state_dir / f"{template}.json",
                    )
                except ReproError:
                    snapshots["torn"] += 1

    # Boot-time recovery: every (possibly torn) state file must load
    # with strict=False — from the file, a backup, or a cold start.
    recovery = {}
    for template in args.templates:
        path = state_dir / f"{template}.json"
        if not path.exists():
            continue
        session = framework.session(template)
        try:
            load_predictor(path)
            kind = "intact"
        except PersistenceError:
            kind = "recovered"
        restored = load_predictor(
            path,
            strict=False,
            cold=lambda s=session: HistogramPredictor(
                SamplePool(s.plan_space.dimensions),
                plan_count=s.plan_space.plan_count,
                histogram_kind="incremental",
                seed=0,
            ),
        )
        if kind == "recovered" and restored.total_points == 0:
            kind = "cold"
        recovery[template] = kind

    registry = framework.metrics

    def _series_total(name: str) -> dict[str, int]:
        totals: dict[str, int] = {}
        for labels, value in registry.counter_series(name):
            key = (
                labels.get("component")
                or labels.get("source")
                or labels.get("reason")
                or labels.get("state")
                or labels.get("template", "")
            )
            totals[key] = totals.get(key, 0) + int(value)
        return totals

    fallback_records = [
        r
        for template in args.templates
        for r in framework.session(template).records
        if r.fallback_source
    ]
    report = {
        "instances": args.instances * len(args.templates),
        "uncaught_exceptions": uncaught,
        "injected": injector.summary(),
        "degraded": _series_total(metric_names.DEGRADED_TOTAL),
        "fallback_served": _series_total(
            metric_names.FALLBACK_SERVED_TOTAL
        ),
        "optimizer_retries": sum(
            _series_total(metric_names.OPTIMIZER_RETRIES_TOTAL).values()
        ),
        "breaker": {
            template: {
                "state": framework.session(template).breaker.state,
                "transitions": dict(
                    framework.session(template).breaker.transitions
                ),
            }
            for template in args.templates
        },
        "fallback_suboptimality": {
            "count": len(fallback_records),
            "mean": (
                float(
                    np.mean([r.suboptimality for r in fallback_records])
                )
                if fallback_records
                else 1.0
            ),
            "max": (
                float(max(r.suboptimality for r in fallback_records))
                if fallback_records
                else 1.0
            ),
        },
        "snapshots": {**snapshots, "recovery": recovery},
    }
    if args.trace_out:
        # The default sampler is error-biased, so the dump holds the
        # run-up to every degradation the storm caused.
        from repro.core.persistence import atomic_write_text
        from repro.obs.tracing import dumps_jsonl

        traces = [
            trace
            for template in args.templates
            for trace in framework.session(template).tracer.traces()
        ]
        atomic_write_text(args.trace_out, dumps_jsonl(traces))
        report["traces"] = {
            "recorded": len(traces),
            "path": str(args.trace_out),
        }
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"instances executed   : {report['instances']} "
            f"({len(args.templates)} templates x {args.instances})"
        )
        print(f"uncaught exceptions  : {uncaught}")
        for component, kinds in report["injected"].items():
            injected = ", ".join(
                f"{kind}={count}" for kind, count in kinds.items()
            )
            print(f"injected {component:<12s}: {injected}")
        print(f"degraded             : {report['degraded']}")
        print(f"fallback served      : {report['fallback_served']}")
        print(f"optimizer retries    : {report['optimizer_retries']}")
        for template, breaker in report["breaker"].items():
            print(
                f"breaker {template:<13s}: state={breaker['state']} "
                f"transitions={breaker['transitions']}"
            )
        subopt = report["fallback_suboptimality"]
        print(
            "fallback suboptimality: "
            f"count={subopt['count']} mean={subopt['mean']:.4f} "
            f"max={subopt['max']:.4f}"
        )
        print(
            f"snapshots            : attempts={snapshots['attempts']} "
            f"torn={snapshots['torn']} recovery={recovery}"
        )
        if "traces" in report:
            print(
                f"flight recorder      : "
                f"{report['traces']['recorded']} traces -> "
                f"{report['traces']['path']}"
            )
    return 0 if uncaught == 0 else 1


def _telemetry_service(
    templates: "list[str]",
    gamma: float,
    seed: int,
    scale: float,
    clock,
):
    """A fully-traced service on a virtual clock (report/watch shape).

    Full tracing makes the scorecard's regret attribution meaningful;
    the virtual clock lets a few hundred instances fill real-sized SLO
    windows in milliseconds.
    """
    from repro.config import TraceConfig
    from repro.service import PlanCachingService

    config = PPCConfig(
        confidence_threshold=gamma,
        trace=TraceConfig(interval=1, capacity=1024, error_capacity=256),
    )
    service = PlanCachingService.tpch(
        scale_factor=scale,
        config=config,
        seed=seed,
        clock=clock,
        sleep=clock.sleep,
    )
    for template in templates:
        service.register(template)
    return service


def _run_report_workload(
    service,
    templates: "list[str]",
    instances: int,
    spread: float,
    seed: int,
    clock,
    advance: float,
) -> None:
    """Interleaved trajectory workload, advancing the virtual clock one
    ``advance`` step per round so telemetry windows actually fill."""
    trajectories = {}
    for offset, template in enumerate(templates):
        dimensions = service.framework.session(template).plan_space.dimensions
        trajectories[template] = RandomTrajectoryWorkload(
            dimensions, spread=spread, seed=seed + offset
        ).generate(instances)
    for index in range(instances):
        for template in templates:
            service.execute(
                service.instance_at(template, trajectories[template][index])
            )
        clock.advance(advance)


def _cmd_report(args: argparse.Namespace) -> int:
    """Run a seeded workload and render the health report."""
    from repro.core.persistence import atomic_write_text
    from repro.obs.report import (
        render_report_html,
        render_report_json,
        render_report_text,
    )
    from repro.resilience import VirtualClock

    if args.instances < 1:
        print("--instances must be >= 1", file=sys.stderr)
        return 1
    clock = VirtualClock()
    service = _telemetry_service(
        args.templates, args.gamma, args.seed, args.scale, clock
    )
    _run_report_workload(
        service,
        args.templates,
        args.instances,
        args.spread,
        args.seed,
        clock,
        args.advance,
    )
    report = service.health_report(tail=args.tail)
    if args.format == "json":
        text = render_report_json(report)
    elif args.format == "html":
        text = render_report_html(report)
    else:
        text = render_report_text(report)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(text, end="")
    if args.fail_on_breach and report["worst_state"] == "breach":
        print("SLO breach detected", file=sys.stderr)
        return 1
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """Poll the health signals between workload batches."""
    from repro.resilience import VirtualClock
    from repro.resilience.clocks import system_sleep

    if args.iterations < 1 or args.batch < 1:
        print("--iterations and --batch must be >= 1", file=sys.stderr)
        return 1
    clock = VirtualClock()
    service = _telemetry_service(
        args.templates, args.gamma, args.seed, args.scale, clock
    )
    total = args.iterations * args.batch
    trajectories = {}
    for offset, template in enumerate(args.templates):
        dimensions = service.framework.session(template).plan_space.dimensions
        trajectories[template] = RandomTrajectoryWorkload(
            dimensions, spread=args.spread, seed=args.seed + offset
        ).generate(total)
    index = 0
    for tick in range(args.iterations):
        for __ in range(args.batch):
            for template in args.templates:
                service.execute(
                    service.instance_at(
                        template, trajectories[template][index]
                    )
                )
            clock.advance(args.advance)
            index += 1
        verdicts = service.slo()
        scorecards = service.framework.refresh_quality()
        for template in args.templates:
            states = {row["name"]: row["state"] for row in verdicts[template]}
            worst = max(
                verdicts[template],
                key=lambda row: ("ok", "warning", "breach").index(
                    row["state"]
                ),
            )["state"]
            scorecard = scorecards[template]
            print(
                f"tick {tick + 1:>3d} {template}: {worst:<8s} "
                f"coverage={scorecard['synopsis']['coverage']:.3f} "
                f"accuracy={scorecard['rolling']['accuracy']:.3f} "
                f"regret={scorecard['rolling']['regret']:.4f} "
                f"slo={states}"
            )
        if tick + 1 < args.iterations and args.interval > 0:
            system_sleep(args.interval)
    return 0


#: Experiment registry: name -> (import path, callable, kwargs for a
#: quick run).  ``repro experiment <name>`` runs one and prints its
#: result rows as an aligned table.
EXPERIMENTS: dict[str, tuple[str, str, dict]] = {
    "fig03": (
        "repro.experiments.comparison",
        "run_clustering_comparison",
        {"repeats": 3, "sample_size": 600, "test_size": 600},
    ),
    "fig08": (
        "repro.experiments.approximation",
        "run_approximation_ladder",
        {"sample_sizes": (400, 1600), "test_size": 500},
    ),
    "fig09": (
        "repro.experiments.approximation",
        "run_histogram_comparison",
        {"sample_sizes": (400, 1600), "test_size": 500},
    ),
    "table2": (
        "repro.experiments.approximation",
        "run_confidence_sweep",
        {"sample_size": 1600, "test_size": 500},
    ),
    "fig10a": (
        "repro.experiments.approximation",
        "run_transform_sweep",
        {"templates": ("Q1",), "sample_size": 1600, "test_size": 500},
    ),
    "fig10b": (
        "repro.experiments.approximation",
        "run_bucket_sweep",
        {"sample_size": 1600, "test_size": 500},
    ),
    "fig11": (
        "repro.experiments.online_perf",
        "run_online_performance",
        {"templates": ("Q1",), "spreads": (0.01, 0.04), "radii": (0.1,)},
    ),
    "fig12": (
        "repro.experiments.online_perf",
        "run_feedback_ablation",
        {"workload_size": 600, "repeats": 2},
    ),
    "fig13": (
        "repro.experiments.runtime_perf",
        "run_runtime_comparison",
        {"templates": ("Q1",), "workload_size": 500},
    ),
    "fig14": (
        "repro.experiments.assumptions",
        "run_assumption_validation",
        {"templates": ("Q1",), "test_points": 40, "neighbors_per_point": 60},
    ),
    "table1": ("repro.experiments.tables", "run_space_accounting", {}),
    "table3": (
        "repro.experiments.tables",
        "run_template_inventory",
        {"probe_points": 500},
    ),
    "drift": (
        "repro.experiments.drift",
        "run_estimator_accuracy",
        {"sample_size": 1000, "test_size": 1000},
    ),
    "noise": (
        "repro.experiments.online_perf",
        "run_noise_sweep",
        {"workload_size": 500, "repeats": 2},
    ),
    "invocations": (
        "repro.experiments.online_perf",
        "run_invocation_sweep",
        {"workload_size": 500, "repeats": 2},
    ),
}


def _render_rows(result) -> None:
    """Print experiment output as an aligned table.

    Handles the drivers' return shapes: a list of dataclasses, a single
    dataclass, or a (rows, extra) tuple.
    """
    import dataclasses

    if isinstance(result, tuple):
        result = result[0]
    rows = result if isinstance(result, list) else [result]
    if not rows:
        print("(no rows)")
        return
    if not dataclasses.is_dataclass(rows[0]):
        for row in rows:
            print(row)
        return
    records = []
    for row in rows:
        record = {}
        for field in dataclasses.fields(row):
            value = getattr(row, field.name)
            if hasattr(value, "precision") and hasattr(value, "recall"):
                record["precision"] = f"{value.precision:.3f}"
                record["recall"] = f"{value.recall:.3f}"
            elif isinstance(value, float):
                record[field.name] = f"{value:.3f}"
            elif isinstance(value, (list, np.ndarray, dict)):
                continue  # skip bulky series columns
            else:
                record[field.name] = str(value)
        records.append(record)
    columns = list(records[0])
    widths = {
        c: max(len(c), *(len(r.get(c, "")) for r in records)) for c in columns
    }
    print("  ".join(c.rjust(widths[c]) for c in columns))
    for record in records:
        print(
            "  ".join(record.get(c, "").rjust(widths[c]) for c in columns)
        )


def _print_scenario_row(row: dict) -> None:
    status = "PASS" if row["passed"] else "FAIL"
    print(
        f"{status} {row['scenario']:<22s} "
        f"{row['instances']:>5d} instances  "
        f"{row['errors']:>3d} errors  {row['fallbacks']:>3d} fallbacks"
    )
    for contract in row["contracts"]:
        mark = "ok  " if contract["passed"] else "FAIL"
        print(f"  {mark} {contract['contract']}: {contract['observed']}")


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """Adversarial scenario fleet: list the fleet or run contracts."""
    import json
    import pathlib
    from time import perf_counter

    from repro.bench.runners import scenarios_envelope
    from repro.core.persistence import atomic_write_text
    from repro.workload.replay import record_trace
    from repro.workload.runner import ScenarioRunner
    from repro.workload.scenarios import SCENARIO_NAMES, get_scenario

    if args.action == "list":
        for name in SCENARIO_NAMES:
            scenario = get_scenario(name)
            print(
                f"{name:<22s} assumption {scenario.assumption:<4s} "
                f"templates {','.join(scenario.templates):<12s} "
                f"{scenario.instances}/{scenario.fast_instances} "
                "(full/fast) instances"
            )
            print(f"    {scenario.description}")
        return 0

    from repro.exceptions import ReproError

    names = list(args.names) if args.names else list(SCENARIO_NAMES)
    try:
        scenarios = [get_scenario(name) for name in names]
    except ReproError as exc:
        print(f"scenarios failed: {exc}", file=sys.stderr)
        return 1
    runner = ScenarioRunner(fast=args.fast, batch_size=args.batch_size)
    record_dir = (
        pathlib.Path(args.record_dir) if args.record_dir else None
    )
    if record_dir is not None:
        record_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    started = perf_counter()
    for name, scenario in zip(names, scenarios, strict=True):
        if record_dir is not None:
            result = record_trace(
                scenario,
                record_dir / f"trace_{name}.jsonl",
                fast=args.fast,
                batch_size=args.batch_size,
            )
            # Scenarios that journal the synopsis lifecycle (the drift
            # fleet) also leave their journal next to the trace, so a
            # contract failure ships with its full cache lineage.
            journal = result.executor.framework.events
            if journal is not None and journal.emitted:
                journal.export(record_dir / f"journal_{name}.jsonl")
        else:
            result = runner.run(scenario)
        row = runner.summarize(result)
        rows.append(row)
        _print_scenario_row(row)
    elapsed = perf_counter() - started
    payload = {
        "tier": "fast" if args.fast else "full",
        "batch_size": args.batch_size,
        "scenarios": rows,
        "passed": all(row["passed"] for row in rows),
    }
    if args.out:
        envelope = scenarios_envelope(payload, elapsed)
        atomic_write_text(args.out, json.dumps(envelope, indent=2, sort_keys=True) + "\n")
        print(f"wrote scenario matrix to {args.out}")
    return 0 if payload["passed"] else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    """Deterministic workload traces: record, re-run, verify."""
    import json

    from repro.core.persistence import atomic_write_text
    from repro.workload.replay import (
        record_trace,
        replay_trace,
        verify_trace,
    )
    from repro.exceptions import ReproError
    from repro.workload.scenarios import get_scenario

    if args.action == "record":
        if not args.out:
            print("replay record requires --out", file=sys.stderr)
            return 1
        try:
            result = record_trace(
                get_scenario(args.target),
                args.out,
                fast=args.fast,
                batch_size=args.batch_size,
            )
        except ReproError as exc:
            print(f"replay record failed: {exc}", file=sys.stderr)
            return 1
        print(
            f"recorded {len(result.decisions)} decisions of "
            f"{result.scenario!r} to {args.out}"
        )
        return 0
    if args.action == "run":
        try:
            header, decisions = replay_trace(args.target)
        except (ReproError, OSError) as exc:
            print(f"replay run failed: {exc}", file=sys.stderr)
            return 1
        errors = sum(1 for d in decisions if "error" in d)
        print(
            f"replayed {header['scenario']!r}: {len(decisions)} "
            f"decisions, {errors} errors"
        )
        if args.out:
            text = "\n".join(
                json.dumps(d, sort_keys=True) for d in decisions
            )
            atomic_write_text(args.out, text + "\n")
            print(f"wrote replayed decisions to {args.out}")
        return 0
    try:
        report = verify_trace(args.target)
    except (ReproError, OSError) as exc:
        print(f"replay verify failed: {exc}", file=sys.stderr)
        return 1
    if report["identical"]:
        print(
            f"trace {args.target} verified: {report['instances']} "
            "decisions replayed bit-identically"
        )
        return 0
    print(
        f"trace {args.target} DIVERGED: {len(report['mismatches'])} "
        "mismatching decisions (showing up to 8)",
        file=sys.stderr,
    )
    for mismatch in report["mismatches"]:
        print(json.dumps(mismatch, sort_keys=True), file=sys.stderr)
    return 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module_name, function_name, kwargs = EXPERIMENTS[args.name]
    module = importlib.import_module(module_name)
    print(f"running {module_name}.{function_name} (reduced parameters; "
          "see benchmarks/ for the full configuration)")
    result = getattr(module, function_name)(**kwargs)
    _render_rows(result)
    return 0


def _cmd_lint_args(lint_argv: list[str]) -> int:
    from repro.analysis.cli import main as lint_main

    return lint_main(lint_argv)


def _cmd_lint(args: argparse.Namespace) -> int:
    return _cmd_lint_args(args.lint_args)


def _cmd_plan_profile(args: argparse.Namespace) -> int:
    from repro.optimizer.diagnostics import profile_plan_space

    space = plan_space_for(args.template)
    profile = profile_plan_space(space, samples=args.samples)
    print(profile.summary())
    print()
    print(f"{'plan':>5s} {'area':>7s}")
    ranked = sorted(profile.area_fractions.items(), key=lambda kv: -kv[1])
    for plan, fraction in ranked:
        print(f"P{plan:<4d} {fraction:7.1%}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Hot-path stage profiler: run a workload, print the stage tree."""
    import json

    from repro.config import ProfileConfig
    from repro.core.persistence import atomic_write_text
    from repro.obs.profiling import render_profile

    config = PPCConfig(
        confidence_threshold=args.gamma,
        profiling=ProfileConfig(enabled=True, interval=args.every),
    )
    framework = PPCFramework(config, seed=args.seed)
    for offset, template in enumerate(dict.fromkeys(args.templates)):
        space = plan_space_for(template)
        framework.register(space)
        workload = RandomTrajectoryWorkload(
            space.dimensions, spread=args.spread, seed=args.seed + offset
        ).generate(args.instances)
        for point in workload:
            framework.execute(template, point)
    report = framework.profile_report()
    print(render_profile(report))
    if args.collapsed_out:
        payload = {
            "unit": "microseconds",
            "stacks": framework.profiler.collapsed(),
        }
        atomic_write_text(
            args.collapsed_out,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
        print(f"wrote collapsed stacks to {args.collapsed_out}")
    return 0


def _cmd_lineage(args: argparse.Namespace) -> int:
    """Cache lineage forensics over the lifecycle event journal."""
    import json

    from repro.config import EventsConfig
    from repro.exceptions import PersistenceError
    from repro.obs.events import (
        export_journal,
        load_journal,
        render_timeline,
    )
    from repro.obs.lineage import LineageEngine

    if args.journal:
        try:
            events, torn_tail = load_journal(args.journal)
        except PersistenceError as exc:
            print(f"lineage: {exc}", file=sys.stderr)
            return 1
        if torn_tail:
            print(
                "warning: journal has a torn tail; final line dropped",
                file=sys.stderr,
            )
        engine = LineageEngine(events)
    else:
        config = PPCConfig(
            confidence_threshold=args.gamma,
            events=EventsConfig(enabled=True, capacity=args.capacity),
        )
        unknown = [
            name for name in args.templates if name not in TEMPLATE_NAMES
        ]
        if unknown:
            print(
                f"lineage: unknown templates {unknown} "
                f"(choose from {', '.join(TEMPLATE_NAMES)})",
                file=sys.stderr,
            )
            return 1
        framework = PPCFramework(config, seed=args.seed)
        for offset, template in enumerate(dict.fromkeys(args.templates)):
            space = plan_space_for(template)
            framework.register(space)
            workload = RandomTrajectoryWorkload(
                space.dimensions, spread=args.spread, seed=args.seed + offset
            ).generate(args.instances)
            for point in workload:
                framework.execute(template, point)
        engine = framework.lineage()

    if args.action == "export":
        if not args.out:
            print("lineage export requires --out PATH", file=sys.stderr)
            return 1
        count = export_journal(engine.events, args.out)
        print(f"wrote {count} lifecycle events to {args.out}")
        return 0

    if args.action == "timeline":
        events = engine.timeline(
            template=args.template, kind=args.kind, at=args.at
        )
        print(render_timeline(events, limit=args.tail))
        return 0

    # why
    if args.template is None or args.plan is None:
        print(
            "lineage why requires --template and --plan", file=sys.stderr
        )
        return 1
    verdict = engine.why(args.template, args.plan, at=args.at)
    if args.json:
        print(json.dumps(verdict, indent=2, sort_keys=True))
        return 0
    print(verdict["explanation"])
    state = engine.state_at(args.template, at=args.at)
    cached = ", ".join(str(plan) for plan in state["cached"]) or "none"
    line = (
        f"cache state at seq {state['at']}: plans [{cached}] cached, "
        f"synopsis generation {state['generation']}, "
        f"{state['evictions']} evictions"
    )
    if state["last_drift"] is not None:
        line += f", last drift drop at seq {state['last_drift']}"
    print(line)
    if verdict["history"]:
        print("history:")
        print(render_timeline(verdict["history"], limit=args.tail))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Unified bench harness: run suites, gate on committed baselines."""
    import pathlib

    from repro.bench import (
        SUITES,
        compare_run,
        load_history,
        metric_history,
        render_compare,
        run_suite,
    )
    from repro.bench.history import latest_run
    from repro.bench.runners import load_baselines
    from repro.exceptions import BenchError

    results_dir = pathlib.Path(args.results_dir)
    history_path = (
        pathlib.Path(args.history)
        if args.history
        else results_dir / "history.jsonl"
    )

    if args.action == "run":
        names = list(args.names) if args.names else list(SUITES[args.suite])
        try:
            outcome = run_suite(
                names,
                results_dir,
                history_path=history_path,
                refresh_baselines=args.refresh_baselines,
                suite_label=args.suite,
                log=print,
            )
        except BenchError as exc:
            print(f"bench run failed: {exc}", file=sys.stderr)
            return 1
        failed = [
            name
            for name, envelope in outcome["envelopes"].items()
            if envelope.get("gate", {}).get("passed") is False
        ]
        if failed:
            print(
                "bench gate failed: " + ", ".join(sorted(failed)),
                file=sys.stderr,
            )
            return 1
        return 0

    if args.action == "compare":
        entries = load_history(history_path)
        try:
            run_id, current = latest_run(entries)
            baselines = load_baselines(results_dir, sorted(current))
        except BenchError as exc:
            print(f"bench compare failed: {exc}", file=sys.stderr)
            return 1
        report = compare_run(
            current,
            baselines,
            history_entries=entries,
            current_run_id=run_id,
        )
        print(
            f"comparing journal run {run_id} against the committed "
            f"baselines in {results_dir}"
        )
        print(render_compare(report))
        return 0 if report["passed"] else 1

    # history: print each metric's run-over-run trajectory.
    entries = load_history(history_path)
    if not entries:
        print(f"no bench history at {history_path}")
        return 0
    benches = sorted(
        {str(entry["bench"]) for entry in entries if "bench" in entry}
    )
    if args.names:
        benches = [name for name in benches if name in set(args.names)]
    for bench in benches:
        metric_names = sorted(
            {
                name
                for entry in entries
                if entry.get("bench") == bench
                for name in entry["envelope"].get("metrics", {})
            }
        )
        for name in metric_names:
            values = metric_history(entries, bench, name)
            trajectory = " -> ".join(f"{value:.4g}" for value in values)
            print(f"{bench}.{name:<28s} {trajectory}")
    return 0


def _cmd_assumptions(args: argparse.Namespace) -> int:
    rows = run_assumption_validation(
        templates=(args.template,),
        distances=(0.01, 0.02, 0.05, 0.1, 0.2),
        test_points=args.points,
        neighbors_per_point=args.neighbors,
    )
    print(f"{'d':>6s} {'P(same plan)':>13s} {'95% LB':>8s}")
    for row in rows:
        print(
            f"{row.distance:6.2f} {row.same_plan_probability:13.3f} "
            f"{row.same_plan_lower_bound_95:8.3f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parametric plan caching (ICDE 2012) reproduction tools",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    templates = commands.add_parser(
        "templates", help="list the Q0-Q8 templates (Table III)"
    )
    templates.add_argument("--probes", type=int, default=1000)
    templates.set_defaults(handler=_cmd_templates)

    diagram = commands.add_parser(
        "diagram", help="ASCII plan diagram of a 2-parameter template"
    )
    diagram.add_argument("template", choices=list(TEMPLATE_NAMES))
    diagram.add_argument("--resolution", type=int, default=40)
    diagram.set_defaults(handler=_cmd_diagram)

    predict = commands.add_parser(
        "predict", help="optimize one plan-space point"
    )
    predict.add_argument("template", choices=list(TEMPLATE_NAMES))
    predict.add_argument("coords", type=float, nargs="+")
    predict.set_defaults(handler=_cmd_predict)

    session = commands.add_parser(
        "session", help="run an online plan-caching session"
    )
    session.add_argument("template", choices=list(TEMPLATE_NAMES))
    session.add_argument("--instances", type=int, default=500)
    session.add_argument("--spread", type=float, default=0.02)
    session.add_argument("--gamma", type=float, default=0.8)
    session.add_argument("--seed", type=int, default=0)
    session.set_defaults(handler=_cmd_session)

    stats = commands.add_parser(
        "stats",
        help="run a mixed workload and render the metrics snapshot",
    )
    stats.add_argument(
        "templates", choices=list(TEMPLATE_NAMES), nargs="+"
    )
    stats.add_argument("--instances", type=int, default=300)
    stats.add_argument("--spread", type=float, default=0.02)
    stats.add_argument("--gamma", type=float, default=0.8)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--scale", type=float, default=0.1)
    stats.add_argument(
        "--budget", type=int, default=None,
        help="memory budget in bytes (enables the governor)",
    )
    stats.add_argument(
        "--format", choices=("table", "json", "prom"), default="table"
    )
    stats.set_defaults(handler=_cmd_stats)

    explain = commands.add_parser(
        "explain",
        help="run one instance fully traced and print the span tree",
    )
    explain.add_argument(
        "--template", choices=list(TEMPLATE_NAMES), required=True
    )
    explain.add_argument(
        "--point", type=float, nargs="+", required=True,
        help="plan-space coordinates in [0, 1]^r",
    )
    explain.add_argument(
        "--warmup", type=int, default=200,
        help="trajectory instances executed before the explained one",
    )
    explain.add_argument("--spread", type=float, default=0.02)
    explain.add_argument("--gamma", type=float, default=0.8)
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--scale", type=float, default=0.1)
    explain.add_argument(
        "--format", choices=("tree", "json"), default="tree"
    )
    explain.set_defaults(handler=_cmd_explain)

    trace = commands.add_parser(
        "trace",
        help="flight-recorder tooling: JSONL export and the regret audit",
    )
    trace.add_argument("action", choices=("export", "audit"))
    trace.add_argument(
        "templates", choices=list(TEMPLATE_NAMES), nargs="+"
    )
    trace.add_argument("--instances", type=int, default=300)
    trace.add_argument("--spread", type=float, default=0.02)
    trace.add_argument("--gamma", type=float, default=0.8)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--scale", type=float, default=0.1)
    trace.add_argument(
        "--out", default=None,
        help="JSONL destination for export (default: stdout)",
    )
    trace.set_defaults(handler=_cmd_trace)

    faults = commands.add_parser(
        "faults",
        help="fault-injection bench: degraded components, zero crashes",
    )
    faults.add_argument(
        "templates", choices=list(TEMPLATE_NAMES), nargs="+"
    )
    faults.add_argument("--instances", type=int, default=2000)
    faults.add_argument("--optimizer-failure", type=float, default=0.2)
    faults.add_argument("--predictor-failure", type=float, default=0.05)
    faults.add_argument("--torn-write", type=float, default=0.5)
    faults.add_argument("--snapshot-every", type=int, default=250)
    faults.add_argument("--spread", type=float, default=0.02)
    faults.add_argument("--gamma", type=float, default=0.8)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument(
        "--format", choices=("table", "json"), default="table"
    )
    faults.add_argument(
        "--trace-out", default=None,
        help="dump the flight-recorder traces as JSONL to this path",
    )
    faults.set_defaults(handler=_cmd_faults)

    report = commands.add_parser(
        "report",
        help="run a seeded workload and render the cache-quality "
        "health report (scorecards, SLO burn rates, sparklines)",
    )
    report.add_argument(
        "templates", choices=list(TEMPLATE_NAMES), nargs="+"
    )
    report.add_argument("--instances", type=int, default=400)
    report.add_argument("--spread", type=float, default=0.02)
    report.add_argument("--gamma", type=float, default=0.8)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--scale", type=float, default=0.1)
    report.add_argument(
        "--advance", type=float, default=1.0,
        help="simulated seconds per workload round (virtual clock)",
    )
    report.add_argument(
        "--tail", type=int, default=32,
        help="retained points per series in the report payload",
    )
    report.add_argument(
        "--format", choices=("text", "json", "html"), default="text"
    )
    report.add_argument(
        "--out", default=None,
        help="write the rendered report here instead of stdout",
    )
    report.add_argument(
        "--fail-on-breach", action="store_true",
        help="exit 1 when any SLO evaluates to breach",
    )
    report.set_defaults(handler=_cmd_report)

    watch = commands.add_parser(
        "watch",
        help="poll the health signals between workload batches",
    )
    watch.add_argument(
        "templates", choices=list(TEMPLATE_NAMES), nargs="+"
    )
    watch.add_argument("--iterations", type=int, default=5)
    watch.add_argument(
        "--batch", type=int, default=100,
        help="workload instances per template per tick",
    )
    watch.add_argument(
        "--interval", type=float, default=0.0,
        help="real seconds to sleep between ticks (0 = no pacing)",
    )
    watch.add_argument("--spread", type=float, default=0.02)
    watch.add_argument("--gamma", type=float, default=0.8)
    watch.add_argument("--seed", type=int, default=0)
    watch.add_argument("--scale", type=float, default=0.1)
    watch.add_argument("--advance", type=float, default=1.0)
    watch.set_defaults(handler=_cmd_watch)

    lint = commands.add_parser(
        "lint",
        help="invariant linter (RPR rules); args pass through, "
        "e.g. `repro lint src --format json` or `repro lint --selftest`",
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER)
    lint.set_defaults(handler=_cmd_lint)

    scenarios = commands.add_parser(
        "scenarios",
        help="adversarial scenario fleet with robustness contracts",
    )
    scenarios.add_argument("action", choices=("list", "run"))
    scenarios.add_argument(
        "names", nargs="*",
        help="scenario names (default: the whole fleet)",
    )
    scenarios.add_argument(
        "--fast", action="store_true",
        help="run the CI-sized fast tier of each scenario",
    )
    scenarios.add_argument("--batch-size", type=int, default=1)
    scenarios.add_argument(
        "--out", default=None,
        help="write the scenario matrix JSON here",
    )
    scenarios.add_argument(
        "--record-dir", default=None,
        help="also record each run as a replayable trace in this dir",
    )
    scenarios.set_defaults(handler=_cmd_scenarios)

    replay = commands.add_parser(
        "replay",
        help="record / re-run / verify deterministic workload traces",
    )
    replay.add_argument("action", choices=("record", "run", "verify"))
    replay.add_argument(
        "target",
        help="scenario name (record) or trace path (run/verify)",
    )
    replay.add_argument("--fast", action="store_true")
    replay.add_argument("--batch-size", type=int, default=1)
    replay.add_argument("--out", default=None)
    replay.set_defaults(handler=_cmd_replay)

    profile = commands.add_parser(
        "profile",
        help="hot-path stage profiler: per-stage self/cumulative time "
        "over a seeded workload (text tree + collapsed stacks)",
    )
    profile.add_argument(
        "templates", choices=list(TEMPLATE_NAMES), nargs="+"
    )
    profile.add_argument("--instances", type=int, default=400)
    profile.add_argument("--spread", type=float, default=0.02)
    profile.add_argument("--gamma", type=float, default=0.8)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--every", type=int, default=1,
        help="profile every Nth execution per template",
    )
    profile.add_argument(
        "--collapsed-out", default=None,
        help="write collapsed-stack JSON (flamegraph input) here",
    )
    profile.set_defaults(handler=_cmd_profile)

    lineage = commands.add_parser(
        "lineage",
        help="cache lineage forensics over the synopsis lifecycle "
        "journal: provenance queries (why), typed event timeline, "
        "checksummed JSONL export",
    )
    lineage.add_argument("action", choices=("why", "timeline", "export"))
    lineage.add_argument(
        "--journal", default=None,
        help="load an exported journal instead of running a workload",
    )
    lineage.add_argument(
        "--template", default=None,
        help="template id (required for why; filters timeline)",
    )
    lineage.add_argument(
        "--plan", type=int, default=None,
        help="plan id to explain (why)",
    )
    lineage.add_argument(
        "--at", type=int, default=None,
        help="time-travel: reconstruct state after this event seq "
        "(default: end of stream)",
    )
    lineage.add_argument(
        "--kind", default=None,
        help="filter the timeline to one event kind",
    )
    lineage.add_argument("--tail", type=int, default=40)
    lineage.add_argument(
        "--json", action="store_true",
        help="emit the why verdict as JSON",
    )
    lineage.add_argument("--out", default=None, help="export path")
    lineage.add_argument(
        "templates", nargs="*", default=["Q1"],
        metavar="TEMPLATE",
        help="templates to drive when no --journal is given "
        "(default: Q1)",
    )
    lineage.add_argument("--instances", type=int, default=400)
    lineage.add_argument("--spread", type=float, default=0.02)
    lineage.add_argument("--gamma", type=float, default=0.8)
    lineage.add_argument("--seed", type=int, default=0)
    lineage.add_argument("--capacity", type=int, default=4096)
    lineage.set_defaults(handler=_cmd_lineage)

    plan_profile = commands.add_parser(
        "plan-profile",
        help="structural profile of a template's plan space",
    )
    plan_profile.add_argument("template", choices=list(TEMPLATE_NAMES))
    plan_profile.add_argument("--samples", type=int, default=3000)
    plan_profile.set_defaults(handler=_cmd_plan_profile)

    bench = commands.add_parser(
        "bench",
        help="unified bench harness: run suites into the history "
        "journal, compare the latest run against the committed "
        "baselines (exit 1 on regression), print metric trajectories",
    )
    bench.add_argument("action", choices=("run", "compare", "history"))
    bench.add_argument(
        "names", nargs="*",
        help="bench names (run: override the suite; history: filter)",
    )
    bench.add_argument("--suite", choices=("ci", "full"), default="ci")
    bench.add_argument(
        "--results-dir", default="benchmarks/results",
        help="where the committed BENCH_*.json baselines live",
    )
    bench.add_argument(
        "--history", default=None,
        help="history journal path "
        "(default: <results-dir>/history.jsonl)",
    )
    bench.add_argument(
        "--refresh-baselines", action="store_true",
        help="rewrite the committed baseline snapshots from this run",
    )
    bench.add_argument(
        "--against", choices=("committed",), default="committed",
        help="what compare judges the latest journal run against",
    )
    bench.set_defaults(handler=_cmd_bench)

    experiment = commands.add_parser(
        "experiment", help="run one paper experiment at reduced scale"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.set_defaults(handler=_cmd_experiment)

    assumptions = commands.add_parser(
        "assumptions", help="validate plan choice predictability"
    )
    assumptions.add_argument("template", choices=list(TEMPLATE_NAMES))
    assumptions.add_argument("--points", type=int, default=50)
    assumptions.add_argument("--neighbors", type=int, default=100)
    assumptions.set_defaults(handler=_cmd_assumptions)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # ``lint`` forwards everything to the linter's own parser; argparse's
    # REMAINDER would swallow leading flags (``repro lint --selftest``),
    # so hand over before parsing.
    if argv and argv[0] == "lint":
        return _cmd_lint_args(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
