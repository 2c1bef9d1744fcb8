"""The plan-space oracle: ``plan(x)`` and ``cost(x, p)``.

Definition 2 of the paper models the optimizer, for one query template,
as a function from normalized optimizer parameters (the ``r`` predicate
selectivities) to plans.  :class:`PlanSpace` realizes that function:

1. **Harvest** — run the full DP enumerator over rounds of probe
   points (the structured probes, then rounds of 64 random points),
   one batched dynamic program per round, collecting every distinct
   winning plan in point order until a whole random round yields
   nothing new.  The harvested set is the candidate
   plan pool of the template.  Each new plan's subtrees are interned:
   a join prefix or access path that several candidates share becomes
   one node object.
2. **Label** — for arbitrary points, evaluate every candidate's cost
   formula and take the argmin: over ``(n,)`` arrays for a batch, in
   Python floats for one point (an online optimizer call), bit for bit
   the same either way.  One point's costs stay a list of floats and
   its first minimum is taken in Python, which is ``np.argmin``'s tie
   rule, so no numpy call costs a one-element array.  All candidates
   are costed through one memo, so each distinct subplan is evaluated
   once per call however many candidates contain it (Q5's 17 plans
   hold 85 operator nodes but only 37 distinct ones); the costs are bit
   for bit those of costing each plan alone.  At harvested points this
   matches the DP result exactly; elsewhere it defines a consistent
   piecewise-minimum plan diagram with the same cost surfaces, which is
   the structure every experiment consumes.

The PPC framework uses the oracle both as ground truth (did the
prediction match the optimizer's choice?) and as the "optimizer" it
invokes on cache misses, so labels are consistent by construction.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import OptimizationError
from repro.optimizer.catalog import Catalog
from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import DPEnumerator
from repro.optimizer.expressions import QueryTemplate
from repro.optimizer.operators import Memo, PlanNode
from repro.optimizer.plans import PhysicalPlan
from repro.rng import as_generator

#: Random points per harvest round, each round one batched DP.
HARVEST_ROUND_POINTS = 64
#: Random rounds at most, after the structured probes.
HARVEST_ROUNDS = 8


class PlanSpace:
    """Oracle for one template's plan space over ``[0, 1]^r``."""

    def __init__(
        self,
        template: QueryTemplate,
        catalog: Catalog,
        model: CostModel | None = None,
        seed: "int | np.random.Generator | None" = 0,
    ) -> None:
        if template.parameter_degree < 1:
            raise OptimizationError(
                f"template {template.name} has no parameterized predicates"
            )
        self.template = template
        self.catalog = catalog
        self.model = model or CostModel()
        self._enumerator = DPEnumerator(template, catalog, self.model)
        self.plans: list[PhysicalPlan] = []
        self._ids_by_fingerprint: dict[str, int] = {}
        #: Structural key -> the one node of that structure in ``plans``.
        self._subplans: dict[tuple, PlanNode] = {}
        self._harvest(as_generator(seed))

    # ------------------------------------------------------------------
    # Harvesting
    # ------------------------------------------------------------------
    def _harvest(self, rng: np.random.Generator) -> None:
        """One batched DP per probe round; the winners are registered in
        point order."""
        degree = self.template.parameter_degree
        probes = [self._structured_probes(degree)]
        for __ in range(HARVEST_ROUNDS):
            probes.append(rng.uniform(0.0, 1.0, size=(HARVEST_ROUND_POINTS, degree)))

        for round_index, points in enumerate(probes):
            new_plans = 0
            for plan, __ in self._enumerator.optimize(points):
                if self._register(plan):
                    new_plans += 1
            # After the structured probes, stop as soon as a whole random
            # round discovers nothing new.
            if round_index > 0 and new_plans == 0:
                break
        if not self.plans:
            raise OptimizationError("harvest produced no plans")

    @staticmethod
    def _structured_probes(degree: int) -> np.ndarray:
        """Corners, centre and per-axis sweeps — cheap coverage of the
        regions where plan choice usually flips."""
        levels = np.array([0.02, 0.25, 0.5, 0.75, 0.98])
        points = [np.full(degree, 0.5)]
        for axis in range(degree):
            for level in levels:
                point = np.full(degree, 0.5)
                point[axis] = level
                points.append(point)
        # Diagonal sweep plus extreme corners.
        for level in levels:
            points.append(np.full(degree, level))
        return np.unique(np.array(points), axis=0)

    def _register(self, plan: PhysicalPlan) -> bool:
        if plan.fingerprint in self._ids_by_fingerprint:
            return False
        self._ids_by_fingerprint[plan.fingerprint] = len(self.plans)
        self.plans.append(PhysicalPlan(plan.root.interned(self._subplans)))
        return True

    # ------------------------------------------------------------------
    # Oracle queries
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        return self.template.parameter_degree

    @property
    def plan_count(self) -> int:
        return len(self.plans)

    def plan(self, plan_id: int) -> PhysicalPlan:
        return self.plans[self._checked_id(plan_id)]

    def _checked_id(self, plan_id: int) -> int:
        """``plan_id`` if it names a candidate; a negative id would
        otherwise index from the end."""
        if not 0 <= plan_id < len(self.plans):
            raise OptimizationError(
                f"plan id {plan_id} outside the {len(self.plans)} plans of "
                f"template {self.template.name}"
            )
        return plan_id

    def _costs(self, points: np.ndarray) -> "list[float] | np.ndarray":
        """Every candidate's cost at ``points``, through one memo: a list
        of Python floats for one point, a ``(plans, n)`` matrix of
        ``(n,)`` cost arrays for a batch."""
        selectivities = self._enumerator.selectivities(points)
        memo: Memo = {}
        if len(selectivities) == 1:
            point = selectivities[0].tolist()
            return [plan.root.evaluate_point(point, memo)[1] for plan in self.plans]
        return np.stack(
            [plan.root.evaluate(selectivities, memo)[1] for plan in self.plans]
        )

    def cost_matrix(self, points: np.ndarray) -> np.ndarray:
        """Costs of every candidate plan at every point: ``(plans, n)``.

        One memo spans the candidates, so a subplan several of them
        share is costed once; every row is bit for bit ``plan.cost`` of
        that plan alone.  One point is costed in Python floats, a batch
        in ``(n,)`` arrays; the two agree bit for bit.
        """
        costs = self._costs(points)
        if isinstance(costs, list):
            return np.array(costs).reshape(-1, 1)
        return costs

    def label(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Optimal plan ids and costs at each point: ``((n,), (n,))``.

        The lowest id wins a tie.  One point stays in Python floats: its
        costs are a list and the first minimum is taken there, which is
        ``np.argmin``'s rule over a batch's cost matrix.
        """
        costs = self._costs(points)
        if isinstance(costs, list):
            best = min(costs)
            return np.array([costs.index(best)]), np.array([best])
        ids = np.argmin(costs, axis=0)
        return ids, costs[ids, np.arange(costs.shape[1])]

    def plan_at(self, points: np.ndarray) -> np.ndarray:
        """Optimal plan id at each point."""
        ids, __ = self.label(points)
        return ids

    def cost_at(self, points: np.ndarray, plan_id: "int | None" = None) -> np.ndarray:
        """Cost of ``plan_id`` (or of the optimal plan) at each point;
        one point is costed in Python floats, like :meth:`cost_matrix`."""
        if plan_id is None:
            __, costs = self.label(points)
            return costs
        plan = self.plans[self._checked_id(plan_id)]
        selectivities = self._enumerator.selectivities(points)
        if len(selectivities) == 1:
            return np.array([plan.root.evaluate_point(selectivities[0].tolist())[1]])
        return plan.cost(selectivities)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanSpace({self.template.name}, r={self.dimensions}, "
            f"plans={self.plan_count})"
        )
