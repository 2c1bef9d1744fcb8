"""A day in the life of an adaptive plan cache.

Simulates a multi-template workload whose character changes midway:
three templates run trajectory workloads concurrently, and halfway
through, Q1's plan space is artificially scrambled (a stand-in for a
bulk load or a statistics refresh flipping the optimizer's choices).
The framework's estimators notice, the drift response drops Q1's
histograms, and the session relearns the new space — while Q0 and Q8
sail on unaffected.

Run:  python examples/adaptive_caching.py
"""

import numpy as np

from repro import PPCConfig, PPCFramework, plan_space_for
from repro.workload import ManipulatedPlanSpace, RandomTrajectoryWorkload


def window_stats(records, start, stop):
    chunk = records[start:stop]
    if not chunk:
        return 0.0, 0.0
    answered = [r for r in chunk if r.predicted is not None]
    correct = sum(1 for r in answered if r.correct)
    precision = correct / len(answered) if answered else 1.0
    recall = correct / len(chunk)
    return precision, recall


def main() -> None:
    config = PPCConfig(
        confidence_threshold=0.8,
        drift_response=True,
        drift_threshold=0.6,
    )
    framework = PPCFramework(config, seed=0)

    oracles = {}
    workloads = {}
    total = 2000
    for name in ("Q0", "Q1", "Q8"):
        base = plan_space_for(name)
        # The manipulable wrapper quacks like a PlanSpace, so it can
        # stand in as both the black-box optimizer and ground truth.
        oracle = ManipulatedPlanSpace(base, seed=3)
        oracles[name] = oracle
        framework.register(oracle)
        workloads[name] = RandomTrajectoryWorkload(
            base.dimensions, spread=0.02, seed=11
        ).generate(total)

    # A session keeps only a window of its records: keep the whole
    # history from what execute returns.
    history = {name: [] for name in oracles}
    switch = total // 2
    rng = np.random.default_rng(5)
    for i in range(total):
        if i == switch:
            print(f"--- instance {i}: scrambling Q1's plan space ---")
            oracles["Q1"].activate()
        # Interleave the three templates randomly.
        name = ("Q0", "Q1", "Q8")[rng.integers(3)]
        point = workloads[name][i]
        history[name].append(framework.execute(name, point))

    print()
    print(f"{'template':>8s} {'phase':>12s} {'precision':>10s} "
          f"{'recall':>8s} {'drift events':>13s}")
    for name in ("Q0", "Q1", "Q8"):
        session = framework.session(name)
        records = history[name]
        half = len(records) // 2
        for phase, (lo, hi) in (
            ("before", (0, half)),
            ("after", (half, len(records))),
        ):
            precision, recall = window_stats(records, lo, hi)
            print(f"{name:>8s} {phase:>12s} {precision:10.3f} "
                  f"{recall:8.3f} {session.drift_events:13d}")

    q1 = framework.session("Q1")
    print(f"\nQ1 raised {q1.drift_events} drift event(s): the stale "
          f"histograms were dropped and {q1.predictor.total_points} fresh "
          "points were accumulated against the new plan space.  (The "
          "scrambled space deliberately violates the predictability "
          "assumptions, so precision stays low after the switch — the "
          "detector's job is to notice that and stop trusting the cache.)")


if __name__ == "__main__":
    main()
