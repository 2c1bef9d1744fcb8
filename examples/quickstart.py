"""Quickstart: parametric plan caching in thirty lines.

Builds the plan-space oracle for the paper's example template Q1
(supplier x lineitem with two parameterized predicates), runs an online
plan-caching session over a trajectory workload, and prints what the
framework achieved: how often the optimizer was bypassed, at what
precision, and at what execution-cost overhead.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import PPCConfig, PPCFramework, plan_space_for
from repro.workload import RandomTrajectoryWorkload


def main() -> None:
    # The plan space of Q1: the optimizer's plan choice as a function of
    # the two predicate selectivities, normalized onto [0, 1]^2.
    space = plan_space_for("Q1")
    print(f"Q1 plan space: {space.plan_count} plans over "
          f"[0,1]^{space.dimensions}")

    # Register the template with the PPC framework and replay a workload
    # whose parameters drift along random trajectories.
    framework = PPCFramework(PPCConfig(confidence_threshold=0.8), seed=0)
    framework.register(space)
    workload = RandomTrajectoryWorkload(
        space.dimensions, spread=0.02, seed=7
    ).generate(1000)

    # Keep the records execute returns: the session keeps only a window.
    records = [framework.execute("Q1", point) for point in workload]

    session = framework.session("Q1")
    metrics = session.ground_truth_metrics()
    suboptimality = np.mean([r.suboptimality for r in records])

    print(f"instances executed      : {len(records)}")
    print(f"optimizer invocations   : {session.optimizer_invocations} "
          f"({session.optimizer_invocations / len(records):.0%})")
    print(f"prediction precision    : {metrics.precision:.3f}")
    print(f"prediction recall       : {metrics.recall:.3f}")
    print(f"mean cost vs optimal    : {suboptimality:.3f}x")
    print(f"plan cache hit rate     : {session.cache.hit_rate:.0%}")


if __name__ == "__main__":
    main()
