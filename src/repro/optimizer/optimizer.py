"""Optimizer facade: the component the plan cache bypasses.

:class:`Optimizer` wraps the DP enumerator behind the narrow interface
the PPC framework sees — "optimize this query instance, give me a plan
and its cost" — and counts invocations, which the runtime simulation
(Figure 13) charges for.
"""

from __future__ import annotations

import numpy as np

from repro.optimizer.catalog import Catalog
from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import DPEnumerator
from repro.optimizer.expressions import QueryTemplate
from repro.optimizer.plans import PhysicalPlan


class Optimizer:
    """Cost-based optimizer for one query template."""

    def __init__(
        self,
        template: QueryTemplate,
        catalog: Catalog,
        model: CostModel | None = None,
    ) -> None:
        self.template = template
        self.catalog = catalog
        self.model = model or CostModel()
        self._enumerator = DPEnumerator(template, catalog, self.model)
        self.invocation_count = 0

    def optimize(self, x: np.ndarray) -> tuple[PhysicalPlan, float]:
        """Run full plan enumeration at selectivity point ``x``."""
        self.invocation_count += 1
        return self._enumerator.optimize(x)
