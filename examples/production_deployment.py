"""Production-flavored deployment: budget, persistence, relevance.

Puts the beyond-the-paper machinery together the way a server would:

1. run three templates against one shared memory budget enforced by the
   :class:`MemoryGovernor` (cold templates lose histogram buckets first);
2. analyze one template's accumulated samples for parameter relevance
   and report which of its parameters actually drive plan choice;
3. persist the hottest template's synopses to JSON and reload them into
   a fresh predictor — the restart story.

Run:  python examples/production_deployment.py
"""

import tempfile

import numpy as np

from repro import PPCConfig, PPCFramework, plan_space_for
from repro.core import (
    MemoryGovernor,
    ParameterRelevanceAnalyzer,
    load_predictor,
    save_predictor,
)
from repro.core.point import SamplePool
from repro.workload import RandomTrajectoryWorkload


def main() -> None:
    framework = PPCFramework(
        PPCConfig(confidence_threshold=0.8, drift_response=False), seed=0
    )
    governor = MemoryGovernor(budget_bytes=9_000)

    spaces = {name: plan_space_for(name) for name in ("Q0", "Q1", "Q5")}
    for space in spaces.values():
        governor.register(framework.register(space))

    workloads = {
        name: RandomTrajectoryWorkload(
            space.dimensions, spread=0.02, seed=11
        ).generate(600)
        for name, space in spaces.items()
    }

    # Q0 and Q1 stay hot; Q5 runs only during a brief early burst.
    rng = np.random.default_rng(5)
    actions = []
    # The optimizer's answers, kept from what execute returns: a session
    # keeps only a window of its own records.
    optimized = {name: [] for name in spaces}
    for i in range(600):
        names = ("Q0", "Q1", "Q5") if i < 150 else ("Q0", "Q1")
        name = names[rng.integers(len(names))]
        record = framework.execute(name, workloads[name][i])
        if record.optimizer_invoked:
            optimized[name].append(record)
        governor.touch(name)
        if i % 50 == 49:
            actions.extend(governor.enforce())

    print("=== memory governor ===")
    print(f"budget            : {governor.budget_bytes:,d} bytes")
    print(f"total after run   : {governor.total_bytes:,d} bytes")
    for name in spaces:
        session = framework.session(name)
        print(
            f"{name}: {session.predictor.space_bytes():6,d} bytes, "
            f"b_h={session.predictor.max_buckets:3d}, "
            f"recall~{session.monitor.recall_estimate:.2f}"
        )
    reclaimed = {}
    for action in actions:
        reclaimed.setdefault(action.template, []).append(action.action)
    print(f"reclamations      : {reclaimed or 'none needed'}")

    # Parameter relevance on Q5's accumulated history.
    print("\n=== parameter relevance (Q5) ===")
    records = optimized["Q5"]
    pool = SamplePool(spaces["Q5"].dimensions)
    for record in records:
        pool.add(record.point, record.optimal_plan, record.optimal_cost)
    if len(pool) >= 20:
        analyzer = ParameterRelevanceAnalyzer(pool)
        rates = analyzer.axis_flip_rates()
        for index, predicate in enumerate(
            spaces["Q5"].template.predicates
        ):
            marker = "drives plans" if rates[index] > 1.0 else "mostly inert"
            print(f"  {str(predicate):40s} rate={rates[index]:.2f}  {marker}")

    # Persist and restore the hottest template's synopses.
    print("\n=== persistence (Q1) ===")
    hot = framework.session("Q1").predictor
    with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as handle:
        path = save_predictor(hot, handle.name)
    size = path.stat().st_size
    restored = load_predictor(path)
    probe = workloads["Q1"][-1]
    original = hot.predict(probe)
    reloaded = restored.predict(probe)
    print(f"state file size   : {size:,d} bytes")
    print(f"prediction before : {original and f'P{original.plan_id}'}")
    print(f"prediction after  : {reloaded and f'P{reloaded.plan_id}'}")
    assert (original is None) == (reloaded is None)


if __name__ == "__main__":
    main()
