"""The plan-space oracle: ``plan(x)`` and ``cost(x, p)``.

Definition 2 of the paper models the optimizer, for one query template,
as a function from normalized optimizer parameters (the ``r`` predicate
selectivities) to plans.  :class:`PlanSpace` realizes that function:

1. **Harvest** — run the full DP enumerator over rounds of probe
   points (the structured probes, then rounds of 64 random points),
   one batched dynamic program per fixed group of rounds, collecting
   every distinct winning plan in point order, round by round, until a
   whole random round yields nothing new.  The harvested set is the
   candidate plan pool of the template.  Each new plan's subtrees are interned:
   a join prefix or access path that several candidates share becomes
   one node object.
2. **Label** — for arbitrary points, cost every candidate and take the
   argmin.  The candidates are costed by one compiled program
   (:func:`~repro.optimizer.operators.compile_costs`), built on the
   first costing call and again whenever ``plans`` is reassigned: a
   straight-line function recorded from the nodes' own ``_evaluate``
   formulas, which evaluates each distinct subplan once (Q5's 17 plans
   hold 85 operator nodes; the program evaluates 34) with every node's
   numbers folded into literals, so it is bit for bit what each plan's
   own formulas cost.  It runs over ``(n,)`` arrays for a batch and in
   Python floats for one point (an online optimizer call), bit for bit
   the same either way.  One point is checked and mapped to
   selectivities in floats, its costs stay a list, and its first
   minimum is taken in Python, which is ``np.argmin``'s tie rule, so no
   numpy call costs a one-element array.  At harvested points this
   matches the DP result exactly; elsewhere it defines a consistent
   piecewise-minimum plan diagram with the same cost surfaces, which is
   the structure every experiment consumes.

The PPC framework uses the oracle both as ground truth (did the
prediction match the optimizer's choice?) and as the "optimizer" it
invokes on cache misses, so labels are consistent by construction.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import OptimizationError
from repro.optimizer.catalog import Catalog
from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import DPEnumerator
from repro.optimizer.expressions import QueryTemplate
from repro.optimizer.operators import CostProgram, PlanNode, Value, compile_costs
from repro.optimizer.plans import PhysicalPlan
from repro.rng import as_generator

#: Random points per harvest round.
HARVEST_ROUND_POINTS = 64
#: Random rounds at most, after the structured probes.
HARVEST_ROUNDS = 8
#: Rounds per batched DP, in order; the structured probes count as the
#: first round, so the groups sum to ``1 + HARVEST_ROUNDS``.  A DP costs
#: about the same at 64 points as at 200 (it pays per candidate), so
#: the first group covers the harvests that stop at their second random
#: round, most TPC-H templates at seed 0.  Later groups stay small
#: because a DP's peak memory grows with its points: one DP over all
#: nine rounds peaks at about three times these groups' peak.
HARVEST_GROUPS = (3, 2, 4)


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
        self._plans: list[PhysicalPlan] = []
        #: The candidates' costing program, compiled on first use.
        self._program: "CostProgram | None" = None
        self._ids_by_fingerprint: dict[str, int] = {}
        #: Structural key -> the one node of that structure in ``plans``.
        self._subplans: dict[tuple, PlanNode] = {}
        self._harvest(as_generator(seed))

    # ------------------------------------------------------------------
    # Harvesting
    # ------------------------------------------------------------------
    def _harvest(self, rng: np.random.Generator) -> None:
        """Register each probe round's winners in point order, round by
        round, until a random round registers nothing new.

        Every round is drawn first, in order, from ``rng``; then one
        batched DP runs per group of :data:`HARVEST_GROUPS`, and only
        when the harvest reaches the group.  ``optimize`` gives each
        point the plan it would get alone, so the plans, their order and
        their ids are those of one DP per round.
        """
        degree = self.template.parameter_degree
        rounds = [self._structured_probes(degree)]
        for __ in range(HARVEST_ROUNDS):
            rounds.append(rng.uniform(0.0, 1.0, size=(HARVEST_ROUND_POINTS, degree)))

        for round_index, winners in enumerate(self._round_winners(rounds)):
            new_plans = 0
            for plan, __ in winners:
                if self._register(plan):
                    new_plans += 1
            # After the structured probes, stop as soon as a whole random
            # round discovers nothing new.
            if round_index > 0 and new_plans == 0:
                break
        if not self.plans:
            raise OptimizationError("harvest produced no plans")

    def _round_winners(
        self, rounds: list[np.ndarray]
    ) -> Iterator[list[tuple[PhysicalPlan, float]]]:
        """Each round's ``optimize`` pairs, in round order, from one DP
        per group of :data:`HARVEST_GROUPS` rounds, run lazily."""
        start = 0
        for size in HARVEST_GROUPS:
            group = rounds[start : start + size]
            start += size
            winners = self._enumerator.optimize(np.concatenate(group))
            offset = 0
            for points in group:
                yield winners[offset : offset + len(points)]
                offset += len(points)

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
        self._ids_by_fingerprint[plan.fingerprint] = len(self._plans)
        self._plans.append(PhysicalPlan(plan.root.interned(self._subplans)))
        return True

    # ------------------------------------------------------------------
    # Oracle queries
    # ------------------------------------------------------------------
    @property
    def plans(self) -> list[PhysicalPlan]:
        """The candidates; plan ``i`` is ``plans[i]``."""
        return self._plans

    @plans.setter
    def plans(self, plans: list[PhysicalPlan]) -> None:
        """A new candidate list; its program is compiled on next use."""
        self._plans = plans
        self._program = None

    @property
    def dimensions(self) -> int:
        return self.template.parameter_degree

    @property
    def plan_count(self) -> int:
        return len(self._plans)

    def plan(self, plan_id: int) -> PhysicalPlan:
        return self._plans[self._checked_id(plan_id)]

    def _checked_id(self, plan_id: int) -> int:
        """``plan_id`` if it names a candidate: an integer (never a
        bool) in ``0..plan_count-1``.  A negative id would otherwise
        index from the end, and ``True`` would serve plan 1."""
        if isinstance(plan_id, (bool, np.bool_)) or not isinstance(
            plan_id, (int, np.integer)
        ):
            raise OptimizationError(f"plan id {plan_id} is not an integer")
        if not 0 <= plan_id < len(self._plans):
            raise OptimizationError(
                f"plan id {plan_id} outside the {len(self._plans)} plans of "
                f"template {self.template.name}"
            )
        return int(plan_id)

    def _point(self, points: np.ndarray) -> "list[float] | None":
        """The selectivities of ``points`` as ``r`` Python floats if it
        is one point, ``(r,)`` or ``(1, r)``; None for a batch.

        Checks the point as :meth:`DPEnumerator.selectivities` checks a
        batch: ``r`` coordinates, each a number in ``[0, 1]`` (NaN
        fails both comparisons).
        """
        points = np.asarray(points, dtype=float)
        if not (points.ndim == 1 or points.ndim == 2 and len(points) == 1):
            return None
        point = points.ravel().tolist()
        if len(point) != self.dimensions:
            raise OptimizationError(
                f"expected {self.dimensions}-dimensional points, got shape "
                f"{points.shape}"
            )
        for coordinate in point:
            if not 0.0 <= coordinate <= 1.0:
                raise OptimizationError(
                    "plan-space points must be finite and lie in [0, 1]^r"
                )
        return self._enumerator.mapping.point_to_selectivity(point)

    def _costs(self, points: np.ndarray) -> "tuple[list[Value], int | None]":
        """Every candidate's cost at ``points``, by the compiled program,
        and the batch size: Python floats and None for one point; for a
        batch of ``n``, ``(n,)`` arrays, or a float where no selectivity
        reaches a candidate."""
        if self._program is None:
            self._program = compile_costs(
                [plan.root for plan in self._plans], self.dimensions
            )
        point = self._point(points)
        if point is not None:
            return self._program(point), None
        selectivities = self._enumerator.selectivities(points)
        return self._program(selectivities.T), len(selectivities)

    def cost_matrix(self, points: np.ndarray) -> np.ndarray:
        """Costs of every candidate plan at every point: ``(plans, n)``.

        Each distinct subplan is costed once, by the compiled program;
        every row is bit for bit ``plan.cost`` of that plan alone.  One
        point is costed in Python floats, a batch in ``(n,)`` arrays;
        the two agree bit for bit.
        """
        costs, n = self._costs(points)
        if n is None:
            return np.array(costs).reshape(-1, 1)
        return _matrix(costs, n)

    def label(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Optimal plan ids and costs at each point: ``((n,), (n,))``.

        The lowest id wins a tie.  One point stays in Python floats: its
        costs are the program's list and the first minimum is taken
        there, which is ``np.argmin``'s rule over a batch's cost matrix.
        """
        costs, n = self._costs(points)
        if n is None:
            best = min(costs)
            return np.array([costs.index(best)]), np.array([best])
        matrix = _matrix(costs, n)
        ids = np.argmin(matrix, axis=0)
        return ids, matrix[ids, np.arange(n)]

    def plan_at(self, points: np.ndarray) -> np.ndarray:
        """Optimal plan id at each point."""
        ids, __ = self.label(points)
        return ids

    def cost_at(self, points: np.ndarray, plan_id: "int | None" = None) -> np.ndarray:
        """Cost of ``plan_id`` (or of the optimal plan) at each point,
        read off the compiled program's costs: in Python floats for one
        point, in ``(n,)`` arrays for a batch, bit for bit alike."""
        if plan_id is None:
            __, costs = self.label(points)
            return costs
        plan_id = self._checked_id(plan_id)
        costs, n = self._costs(points)
        if n is None:
            return np.array([costs[plan_id]])
        cost = costs[plan_id]
        return cost if isinstance(cost, np.ndarray) else np.full(n, cost)

    def __getstate__(self) -> dict:
        """The state without the compiled program, which a generated
        function cannot be pickled as; it is rebuilt on first use."""
        return {**self.__dict__, "_program": None}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanSpace({self.template.name}, r={self.dimensions}, "
            f"plans={self.plan_count})"
        )


def _matrix(costs: list[Value], n: int) -> np.ndarray:
    """A batch's candidate costs as a ``(plans, n)`` matrix; a constant
    cost fills its row."""
    matrix = np.empty((len(costs), n))
    for row, cost in zip(matrix, costs, strict=True):
        row[:] = cost
    return matrix
