"""The DP harvest, pinned bit for bit per TPC-H template, left-deep and
bushy.

``PlanSpace`` gets its candidates by running ``DPEnumerator.optimize``
over rounds of probe points.  A change to how the enumerator builds or
costs its candidates (sharing access paths, sort enforcers, join
metadata or memo entries between candidates) must leave every output of
the harvest unchanged to the last bit:

- the harvested plan fingerprints, in registration order;
- the ``cost_matrix`` bits at seeded points;
- the plan fingerprint and cost bits ``optimize`` returns at each point
  of one 64-point round.

The bushy enumerator is covered through a plan space whose harvest runs
it.  Regenerate the table (only for an intended change to the cost
model or the plan space) with ``PYTHONPATH=src python -m
tests.optimizer.test_harvest_golden``.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.optimizer.enumeration import DPEnumerator
from repro.optimizer.plan_space import HARVEST_ROUND_POINTS, PlanSpace
from repro.tpch import (
    TEMPLATE_NAMES,
    build_catalog,
    plan_space_for,
    query_template,
)

#: Seeds of the cost-matrix points and of the optimize round; half of
#: each set is rounded to a 1/100 grid, where plan costs tie most often.
MATRIX_SEED = 4401
ROUND_SEED = 4402

GOLDEN = {
    "Q0/left_deep": "5bb7503c4ab3c6eb81e6c582bb82466da1685a08034e41516565ef814dc18e0a",
    "Q0/bushy": "5bb7503c4ab3c6eb81e6c582bb82466da1685a08034e41516565ef814dc18e0a",
    "Q1/left_deep": "b678ce9a9584db6a4841e7e1da60695be4c0f32917ba3f4e0aec76e2aab8df24",
    "Q1/bushy": "b678ce9a9584db6a4841e7e1da60695be4c0f32917ba3f4e0aec76e2aab8df24",
    "Q2/left_deep": "51d3515380837103579b0e387f74714d5c6178d5ee8dcb6f315c95d87e00afd9",
    "Q2/bushy": "51d3515380837103579b0e387f74714d5c6178d5ee8dcb6f315c95d87e00afd9",
    "Q3/left_deep": "a5f93b87e48e518ad067252a82b06997f12982eeab2f59d4a4a8e21cb2b714fb",
    "Q3/bushy": "a5f93b87e48e518ad067252a82b06997f12982eeab2f59d4a4a8e21cb2b714fb",
    "Q4/left_deep": "cca07a3fcc247dccca82e51334cc8290d60e5b29d5300c8dcca33c460dc565c8",
    "Q4/bushy": "cca07a3fcc247dccca82e51334cc8290d60e5b29d5300c8dcca33c460dc565c8",
    "Q5/left_deep": "e9dddaa1690a0e35969bdf34a4260c3aa6191b84077e55fc2bc3939e3524334e",
    "Q5/bushy": "e9dddaa1690a0e35969bdf34a4260c3aa6191b84077e55fc2bc3939e3524334e",
    "Q6/left_deep": "a0bddc11c988f0b2fff47f7d092cb36030884f3a7ca1e15d7acd1f9208d072d6",
    "Q6/bushy": "b22e26b61ded76d0510665fe147d9e446c6c71fb37d70ceb763becbd39af68ee",
    "Q7/left_deep": "72032abebe8a6489683065011adb70a02035c3a6ce3adf93468aa764cb7cccfb",
    "Q7/bushy": "4811f1b350f2b6384eed01198e9bb8b44a340359ceda293785b4619e519d484c",
    "Q8/left_deep": "426dec825e324b49b758a4a5b5ad23a5bfc0575336dbffc7afe0bfd069a6c351",
    "Q8/bushy": "426dec825e324b49b758a4a5b5ad23a5bfc0575336dbffc7afe0bfd069a6c351",
}


class BushyPlanSpace(PlanSpace):
    """A plan space whose harvest runs the bushy enumerator."""

    def _harvest(self, rng: np.random.Generator) -> None:
        self._enumerator = DPEnumerator(
            self.template, self.catalog, self.model, allow_bushy=True
        )
        super()._harvest(rng)


@functools.lru_cache(maxsize=None)
def _catalog():
    return build_catalog()


def seeded_points(seed: int, dimensions: int) -> np.ndarray:
    rng = np.random.default_rng(seed + dimensions)
    uniform = rng.uniform(0.0, 1.0, (HARVEST_ROUND_POINTS // 2, dimensions))
    return np.concatenate([uniform, np.round(uniform, 2)])


def harvest_digest(name: str, bushy: bool) -> str:
    """SHA-256 over the three harvest outputs of template ``name``."""
    if bushy:
        space = BushyPlanSpace(query_template(name), _catalog(), seed=0)
    else:
        space = plan_space_for(name)
    digest = hashlib.sha256()
    for plan in space.plans:
        digest.update(plan.fingerprint.encode())
        digest.update(b"\n")
    matrix = space.cost_matrix(seeded_points(MATRIX_SEED, space.dimensions))
    assert matrix.dtype == np.float64
    digest.update(np.ascontiguousarray(matrix).tobytes())
    for plan, cost in space._enumerator.optimize(
        seeded_points(ROUND_SEED, space.dimensions)
    ):
        digest.update(plan.fingerprint.encode())
        digest.update(np.float64(cost).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("bushy", [False, True], ids=["left_deep", "bushy"])
@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_harvest_matches_golden_digest(name, bushy):
    key = f"{name}/{'bushy' if bushy else 'left_deep'}"
    assert harvest_digest(name, bushy) == GOLDEN[key]


if __name__ == "__main__":
    for template in TEMPLATE_NAMES:
        for bushy in (False, True):
            key = f"{template}/{'bushy' if bushy else 'left_deep'}"
            print(f'    "{key}": "{harvest_digest(template, bushy)}",')
