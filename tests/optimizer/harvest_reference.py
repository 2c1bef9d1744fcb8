"""The plan-space harvest with one dynamic program per probe round, kept
as a test reference.

:func:`round_by_round_fingerprints` draws the probe rounds as
:meth:`PlanSpace._harvest <repro.optimizer.plan_space.PlanSpace._harvest>`
does (the structured probes, then every random round from one
generator), runs ``DPEnumerator.optimize`` once per round, and lists the
fingerprint of each winner not seen before, in point order, until a
random round finds nothing new.  ``PlanSpace`` runs one DP per group of
rounds; it must register the same fingerprints in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.optimizer.enumeration import DPEnumerator
from repro.optimizer.plan_space import (
    HARVEST_ROUND_POINTS,
    HARVEST_ROUNDS,
    PlanSpace,
)
from repro.rng import as_generator


def probe_rounds(degree: int, seed: int) -> list[np.ndarray]:
    """The harvest's probe rounds at ``seed``: the structured probes,
    then every random round, in the order they are drawn."""
    rng = as_generator(seed)
    rounds = [PlanSpace._structured_probes(degree)]
    for __ in range(HARVEST_ROUNDS):
        rounds.append(rng.uniform(0.0, 1.0, size=(HARVEST_ROUND_POINTS, degree)))
    return rounds


def round_by_round_fingerprints(enumerator: DPEnumerator, seed: int) -> list[str]:
    """The harvested fingerprints, in registration order, of one DP per
    round over ``enumerator``."""
    rounds = probe_rounds(enumerator.template.parameter_degree, seed)
    fingerprints: list[str] = []
    seen: set[str] = set()
    for round_index, points in enumerate(rounds):
        new_plans = 0
        for plan, __ in enumerator.optimize(points):
            if plan.fingerprint not in seen:
                seen.add(plan.fingerprint)
                fingerprints.append(plan.fingerprint)
                new_plans += 1
        if round_index > 0 and new_plans == 0:
            break
    return fingerprints
