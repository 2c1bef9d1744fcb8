"""The plan-space oracle, pinned bit for bit per TPC-H template.

Every decision the framework makes is scored against
``PlanSpace.label``, and every plan it can pick was harvested by
``DPEnumerator.optimize``.  A change to how either evaluates plan
costs — sharing subplans, reordering arithmetic — must leave all three
of their outputs unchanged to the last bit:

- the harvested plan fingerprints, in harvest order;
- the ``cost_matrix`` bits on a fixed seeded probe set;
- the plan fingerprint and cost bits ``optimize`` returns at each
  structured harvest probe.

Regenerate the table (only for an intended change to the cost model or
the plan space) with ``PYTHONPATH=src python
tests/optimizer/test_oracle_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.optimizer.enumeration import DPEnumerator
from repro.optimizer.plan_space import PlanSpace
from repro.tpch import TEMPLATE_NAMES, plan_space_for

#: Probe rows per template: uniform draws, then the same draws rounded
#: to a 1/100 grid, where plan costs tie most often.
PROBE_ROWS = 256
PROBE_SEED = 20121

GOLDEN = {
    "Q0": "b2c5a09cca473a8fcf0b01b186ec8a394d6867063ccea5fc3597e489196c7284",
    "Q1": "e5461fbab99831b2e7119659acb99c3590d7e5cdfd4a5b758bd464f96c971b0a",
    "Q2": "98a2c6cf9948acfd0a239f53ab3d74005380b5484fe0698d6f33424dd3d37d3c",
    "Q3": "f8c2533a42668276f226a2379b3e71190e9bda6f7354562fe1ad2de51e4f33e7",
    "Q4": "b3d227c9384b96d29608d5d752ee80d4269545ed748b80f000282aecce078875",
    "Q5": "20f70a3ba026105f5936c8f0a4697928cd9c815944eae24cd6eb07d151adf7e4",
    "Q6": "cb218a0d92833e59487362cb383c2f864a2857b86c6fb983f1c515421d45b539",
    "Q7": "75ad1ba11a97b65058a98dfb85d3ae94f64616db5b2304e662c672aa781a6508",
    "Q8": "a50a38d3f8e5095264c67c1cbfeef1f352ac7ff62bcab0ee20b6cdcf240a398d",
}


def probe_points(dimensions: int) -> np.ndarray:
    rng = np.random.default_rng(PROBE_SEED + dimensions)
    uniform = rng.uniform(0.0, 1.0, (PROBE_ROWS // 2, dimensions))
    return np.concatenate([uniform, np.round(uniform, 2)])


def oracle_digest(name: str) -> str:
    """SHA-256 over the three oracle outputs of template ``name``."""
    space = plan_space_for(name)
    digest = hashlib.sha256()
    for plan in space.plans:
        digest.update(plan.fingerprint.encode())
        digest.update(b"\n")
    matrix = space.cost_matrix(probe_points(space.dimensions))
    assert matrix.dtype == np.float64
    digest.update(np.ascontiguousarray(matrix).tobytes())
    enumerator = DPEnumerator(space.template, space.catalog, space.model)
    for point in PlanSpace._structured_probes(space.dimensions):
        plan, cost = enumerator.optimize(point)[0]
        digest.update(plan.fingerprint.encode())
        digest.update(np.float64(cost).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_oracle_matches_golden_digest(name):
    assert oracle_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for template in TEMPLATE_NAMES:
        print(f'    "{template}": "{oracle_digest(template)}",')
