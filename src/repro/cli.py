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
  ``--batch-size 16`` runs blocks through ``execute_batch``;
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
  discipline; RPR101/RPR104: I/O-free observability, documented
  exceptions — see ``repro lint --list-rules``), exit 1 on findings;
* ``assumptions Q1`` — validate plan choice predictability on a template.

The workload commands (``session``, ``stats``, ``explain``, ``trace``,
``report``, ``watch``, ``profile``, ``lineage``) drive the same seeded
trajectory workload: template ``i`` on the command line follows a
random trajectory seeded ``--seed + i``.  Every command exits 0 on
success and 1 on failure; a library error (:class:`ReproError`) or an
unreadable path prints one ``repro <command>: <message>`` line to
stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from collections.abc import Iterator

import numpy as np

from repro import PPCConfig, PPCFramework
from repro.config import TraceConfig
from repro.exceptions import ReproError
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
    costs = space.cost_matrix(np.array(args.coords)[None, :])[:, 0]
    # A stable sort lists the argmin (the first cheapest plan, as
    # ``label`` picks it) first.
    ranking = np.argsort(costs, kind="stable")
    best = int(ranking[0])
    print(f"optimal plan : P{best}  (cost {costs[best]:,.1f})")
    print(space.plan(best).describe())
    print("\nall candidates:")
    for plan_id in ranking:
        print(f"  P{int(plan_id)}: {costs[plan_id]:12,.1f}")
    return 0


#: Every-execution decision tracing for the flight-recorder commands
#: (``explain``, ``trace``).
_FULL_TRACE = TraceConfig(interval=1, capacity=4096, error_capacity=512)

#: ``report``/``watch``: full tracing makes the scorecard's regret
#: attribution meaningful; a smaller recorder suffices there.
_REPORT_TRACE = TraceConfig(interval=1, capacity=1024, error_capacity=256)


def _run_framework(
    config: PPCConfig,
    templates: "list[str]",
    instances: int,
    spread: float,
    seed: int,
    batch_size: int = 1,
) -> PPCFramework:
    """Run each template's seeded trajectory in turn on a new framework.

    Templates are registered and driven one after another (duplicates
    dropped), template ``i`` drawing ``instances`` points seeded
    ``seed + i``.  ``batch_size > 1`` runs them in blocks of that many
    through ``execute_batch`` (the same decisions).
    """
    framework = PPCFramework(config, seed=seed)
    for offset, template in enumerate(dict.fromkeys(templates)):
        space = plan_space_for(template)
        framework.register(space)
        workload = RandomTrajectoryWorkload(
            space.dimensions, spread=spread, seed=seed + offset
        ).generate(instances)
        if batch_size > 1:
            for start in range(0, instances, batch_size):
                framework.execute_batch(
                    template, workload[start:start + batch_size]
                )
            continue
        for point in workload:
            framework.execute(template, point)
    return framework


def _service(
    args: argparse.Namespace,
    templates: "list[str]",
    *,
    trace: "TraceConfig | None" = None,
    clock=None,
    budget: "int | None" = None,
):
    """A TPC-H service over ``templates`` from the shared ``--gamma``,
    ``--seed`` and ``--scale`` flags.

    ``trace`` replaces the default trace sampler; ``clock`` (a
    :class:`VirtualClock`) drives the service's clock and sleep, so a
    few hundred instances fill real-sized SLO windows in milliseconds.
    """
    from repro.service import PlanCachingService

    service = PlanCachingService.tpch(
        scale_factor=args.scale,
        config=PPCConfig(
            confidence_threshold=args.gamma, trace=trace or TraceConfig()
        ),
        memory_budget_bytes=budget,
        seed=args.seed,
        clock=clock,
        sleep=clock.sleep if clock is not None else None,
    )
    for template in templates:
        service.register(template)
    return service


def _rounds(
    service,
    templates: "list[str]",
    rounds: int,
    spread: float,
    seed: int,
) -> Iterator[None]:
    """Interleave seeded trajectories through ``service``, a round at
    a time.

    Template ``i`` follows a trajectory seeded ``seed + i``; each round
    executes one instance per template, as a mixed production workload
    would, then yields so the caller can advance a clock or poll.
    """
    trajectories = [
        (
            template,
            RandomTrajectoryWorkload(
                service.framework.session(template).plan_space.dimensions,
                spread=spread,
                seed=seed + offset,
            ).generate(rounds),
        )
        for offset, template in enumerate(templates)
    ]
    for index in range(rounds):
        for template, points in trajectories:
            service.execute(service.instance_at(template, points[index]))
        yield


def _cmd_session(args: argparse.Namespace) -> int:
    framework = _run_framework(
        PPCConfig(confidence_threshold=args.gamma),
        [args.template],
        args.instances,
        args.spread,
        args.seed,
    )
    session = framework.session(args.template)
    metrics = session.ground_truth_metrics()
    print(f"instances            : {args.instances}")
    print(f"optimizer invocations: {session.optimizer_invocations}")
    print(f"precision            : {metrics.precision:.3f}")
    print(f"recall               : {metrics.recall:.3f}")
    print(f"synopsis bytes       : {session.predictor.space_bytes():,d}")
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

    if args.budget is not None and args.budget < 1:
        print("--budget must be a positive byte count", file=sys.stderr)
        return 1
    service = _service(args, args.templates, budget=args.budget)
    for __ in _rounds(
        service, args.templates, args.instances, args.spread, args.seed
    ):
        pass
    if args.format == "prom":
        print(service.prometheus(), end="")
    elif args.format == "json":
        print(json.dumps(service.metrics(), indent=2, sort_keys=True))
    else:
        _render_stats_table(service.metrics())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Run one instance fully traced and print the span tree."""
    import json

    from repro.obs.tracing import render_trace, trace_to_dict

    service = _service(args, [args.template], trace=_FULL_TRACE)
    session = service.framework.session(args.template)
    if len(args.point) != session.plan_space.dimensions:
        print(
            f"{args.template} needs {session.plan_space.dimensions} "
            "point coordinates",
            file=sys.stderr,
        )
        return 1
    if args.warmup:
        for __ in _rounds(
            service, [args.template], args.warmup, args.spread, args.seed
        ):
            pass
    trace = service.explain(
        service.instance_at(args.template, np.array(args.point))
    )
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

    service = _service(args, args.templates, trace=_FULL_TRACE)
    for __ in _rounds(
        service, args.templates, args.instances, args.spread, args.seed
    ):
        pass
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


def _cmd_report(args: argparse.Namespace) -> int:
    """Run a seeded workload and render the health report."""
    from repro.core.persistence import atomic_write_text
    from repro.obs.report import (
        render_report_html,
        render_report_json,
        render_report_text,
    )
    from repro.resilience import VirtualClock

    clock = VirtualClock()
    service = _service(
        args, args.templates, trace=_REPORT_TRACE, clock=clock
    )
    # One clock step per round, so telemetry windows actually fill.
    for __ in _rounds(
        service, args.templates, args.instances, args.spread, args.seed
    ):
        clock.advance(args.advance)
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
    from repro.obs.slo import SLOEngine
    from repro.resilience import VirtualClock
    from repro.resilience.clocks import system_sleep

    if args.iterations < 1 or args.batch < 1:
        print("--iterations and --batch must be >= 1", file=sys.stderr)
        return 1
    clock = VirtualClock()
    service = _service(
        args, args.templates, trace=_REPORT_TRACE, clock=clock
    )
    rounds = _rounds(
        service,
        args.templates,
        args.iterations * args.batch,
        args.spread,
        args.seed,
    )
    for tick in range(args.iterations):
        for __ in itertools.islice(rounds, args.batch):
            clock.advance(args.advance)
        verdicts = service.slo()
        scorecards = service.framework.refresh_quality()
        for template in args.templates:
            states = {row["name"]: row["state"] for row in verdicts[template]}
            worst = SLOEngine.worst_state({template: verdicts[template]})
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

    names = list(args.names) if args.names else list(SCENARIO_NAMES)
    scenarios = [get_scenario(name) for name in names]
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
    from repro.workload.scenarios import get_scenario

    if args.action == "record":
        if not args.out:
            print("replay record requires --out", file=sys.stderr)
            return 1
        result = record_trace(
            get_scenario(args.target),
            args.out,
            fast=args.fast,
            batch_size=args.batch_size,
        )
        print(
            f"recorded {len(result.decisions)} decisions of "
            f"{result.scenario!r} to {args.out}"
        )
        return 0
    if args.action == "run":
        header, decisions = replay_trace(args.target)
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
    report = verify_trace(args.target)
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

    if args.batch_size < 1:
        print("--batch-size must be >= 1", file=sys.stderr)
        return 1
    config = PPCConfig(
        confidence_threshold=args.gamma,
        profiling=ProfileConfig(enabled=True, interval=args.every),
    )
    framework = _run_framework(
        config,
        args.templates,
        args.instances,
        args.spread,
        args.seed,
        batch_size=args.batch_size,
    )
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
    from repro.obs.events import (
        export_journal,
        load_journal,
        render_timeline,
    )
    from repro.obs.lineage import LineageEngine

    if args.journal:
        events, torn_tail = load_journal(args.journal)
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
        framework = _run_framework(
            config, args.templates, args.instances, args.spread, args.seed
        )
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

    results_dir = pathlib.Path(args.results_dir)
    history_path = (
        pathlib.Path(args.history)
        if args.history
        else results_dir / "history.jsonl"
    )

    if args.action == "run":
        names = list(args.names) if args.names else list(SUITES[args.suite])
        outcome = run_suite(
            names,
            results_dir,
            history_path=history_path,
            refresh_baselines=args.refresh_baselines,
            suite_label=args.suite,
            log=print,
        )
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
        run_id, current = latest_run(entries)
        baselines = load_baselines(results_dir, sorted(current))
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

    # Flags every workload command shares, with one set of defaults.
    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument("--spread", type=float, default=0.02)
    workload.add_argument("--gamma", type=float, default=0.8)
    workload.add_argument("--seed", type=int, default=0)
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--scale", type=float, default=0.1)

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
        "session",
        parents=[workload],
        help="run an online plan-caching session",
    )
    session.add_argument("template", choices=list(TEMPLATE_NAMES))
    session.add_argument("--instances", type=int, default=500)
    session.set_defaults(handler=_cmd_session)

    stats = commands.add_parser(
        "stats",
        parents=[workload, scale],
        help="run a mixed workload and render the metrics snapshot",
    )
    stats.add_argument(
        "templates", choices=list(TEMPLATE_NAMES), nargs="+"
    )
    stats.add_argument("--instances", type=int, default=300)
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
        parents=[workload, scale],
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
    explain.add_argument(
        "--format", choices=("tree", "json"), default="tree"
    )
    explain.set_defaults(handler=_cmd_explain)

    trace = commands.add_parser(
        "trace",
        parents=[workload, scale],
        help="flight-recorder tooling: JSONL export and the regret audit",
    )
    trace.add_argument("action", choices=("export", "audit"))
    trace.add_argument(
        "templates", choices=list(TEMPLATE_NAMES), nargs="+"
    )
    trace.add_argument("--instances", type=int, default=300)
    trace.add_argument(
        "--out", default=None,
        help="JSONL destination for export (default: stdout)",
    )
    trace.set_defaults(handler=_cmd_trace)

    report = commands.add_parser(
        "report",
        parents=[workload, scale],
        help="run a seeded workload and render the cache-quality "
        "health report (scorecards, SLO burn rates, sparklines)",
    )
    report.add_argument(
        "templates", choices=list(TEMPLATE_NAMES), nargs="+"
    )
    report.add_argument("--instances", type=int, default=400)
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
        parents=[workload, scale],
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
    watch.add_argument("--advance", type=float, default=1.0)
    watch.set_defaults(handler=_cmd_watch)

    lint = commands.add_parser(
        "lint",
        help="invariant linter (RPR rules); args pass through, "
        "e.g. `repro lint src --format json` or `repro lint --list-rules`",
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
        parents=[workload],
        help="hot-path stage profiler: per-stage self/cumulative time "
        "over a seeded workload (text tree + collapsed stacks)",
    )
    profile.add_argument(
        "templates", choices=list(TEMPLATE_NAMES), nargs="+"
    )
    profile.add_argument("--instances", type=int, default=400)
    profile.add_argument(
        "--every", type=int, default=1,
        help="profile every Nth execution per template",
    )
    profile.add_argument(
        "--batch-size", type=int, default=1,
        help="run blocks of this many instances through execute_batch",
    )
    profile.add_argument(
        "--collapsed-out", default=None,
        help="write collapsed-stack JSON (flamegraph input) here",
    )
    profile.set_defaults(handler=_cmd_profile)

    lineage = commands.add_parser(
        "lineage",
        parents=[workload],
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
    # REMAINDER would swallow leading flags (``repro lint --list-rules``),
    # so hand over before parsing.
    if argv and argv[0] == "lint":
        return _cmd_lint_args(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
