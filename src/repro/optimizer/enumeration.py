"""System-R style dynamic-programming plan enumeration.

:class:`PlanBuilder` resolves catalog metadata into fully bound
operator nodes (access paths per table, join alternatives per step);
:class:`DPEnumerator` runs the classic bottom-up dynamic program over
connected table subsets, keeping the cheapest plan per (subset,
interesting order) at each selectivity point of a batch.

A real optimizer is invoked for one query instance at a time; the
:class:`~repro.optimizer.plan_space.PlanSpace` oracle instead harvests
plan choices over rounds of probe points, so the enumerator runs one
dynamic program for a whole round.  Every DP cell holds per-point
arrays, each candidate is costed once over the round in arrays, and
each point ends with the plan and cost bits a one-point run gives.  The
oracle then re-evaluates the harvested candidates with the same
operator formulas.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.exceptions import OptimizationError
from repro.optimizer.catalog import Catalog
from repro.optimizer.cost_model import CostModel
from repro.optimizer.expressions import JoinPredicate, QueryTemplate
from repro.optimizer.parameters import ParameterMapping
from repro.optimizer.operators import (
    HashJoin,
    IndexNLJoin,
    IndexScan,
    Memo,
    MergeJoin,
    NestedLoopJoin,
    PlanNode,
    SeqScan,
    Sort,
)
from repro.optimizer.plans import PhysicalPlan


class PlanBuilder:
    """Constructs bound operator nodes for one template over a catalog."""

    def __init__(
        self,
        template: QueryTemplate,
        catalog: Catalog,
        model: CostModel | None = None,
    ) -> None:
        self.template = template
        self.catalog = catalog
        self.model = model or CostModel()

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def access_paths(self, table_name: str) -> list[PlanNode]:
        """All single-table plans: one SeqScan plus one IndexScan per
        indexed parameterized predicate."""
        table = self.catalog.table(table_name)
        predicates = self.template.predicates_on(table_name)
        all_params = tuple(p.param_index for p in predicates)

        paths: list[PlanNode] = [
            SeqScan(table_name, table.row_count, table.pages, all_params, self.model)
        ]
        for predicate in predicates:
            index = self.catalog.index_on(table_name, predicate.column.column)
            if index is None:
                continue
            residuals = tuple(
                i for i in all_params if i != predicate.param_index
            )
            scan = IndexScan(
                table=table_name,
                index_name=index.name,
                sarg_param=predicate.param_index,
                base_rows=table.row_count,
                pages=table.pages,
                residual_params=residuals,
                clustered=index.clustered,
                model=self.model,
            )
            scan.sort_order = str(predicate.column)
            paths.append(scan)
        return paths

    # ------------------------------------------------------------------
    # Join alternatives
    # ------------------------------------------------------------------
    def join_selectivity(self, joins: list[JoinPredicate]) -> float:
        """Combined selectivity of the connecting equi-join predicates.

        Each predicate contributes ``1 / max(ndv(left), ndv(right))``
        under the standard containment assumption.
        """
        selectivity = 1.0
        for join in joins:
            left = self.catalog.table(join.left.table).column(join.left.column)
            right = self.catalog.table(join.right.table).column(join.right.column)
            selectivity /= max(left.distinct_count, right.distinct_count)
        return selectivity

    def join_candidates(
        self, outer: PlanNode, inner_table: str
    ) -> list[PlanNode]:
        """Every physical join of ``outer`` with ``inner_table``."""
        joins = self.template.joins_between(outer.tables, inner_table)
        if not joins:
            return []
        selectivity = self.join_selectivity(joins)
        primary = joins[0]
        inner_column = primary.column_for(inner_table)
        outer_column = primary.column_for(
            next(iter(primary.tables() - {inner_table}))
        )
        table = self.catalog.table(inner_table)
        local_params = tuple(
            p.param_index for p in self.template.predicates_on(inner_table)
        )

        candidates: list[PlanNode] = []
        for inner_path in self.access_paths(inner_table):
            candidates.append(HashJoin(outer, inner_path, selectivity, self.model))
            candidates.append(
                NestedLoopJoin(outer, inner_path, selectivity, self.model)
            )

        index = self.catalog.index_on(inner_table, inner_column.column)
        if index is not None:
            candidates.append(
                IndexNLJoin(
                    outer=outer,
                    inner_table=inner_table,
                    inner_index=index.name,
                    inner_base_rows=table.row_count,
                    inner_param_indexes=local_params,
                    join_selectivity=selectivity,
                    model=self.model,
                )
            )

        candidates.extend(
            self._merge_candidates(
                outer, inner_table, str(outer_column), str(inner_column), selectivity
            )
        )
        return candidates

    def join_subtree_candidates(
        self, outer: PlanNode, inner: PlanNode
    ) -> list[PlanNode]:
        """Joins of two arbitrary subtrees (bushy enumeration).

        Index nested loops requires a base-table inner, so bushy
        combinations offer hash, in-memory nested loops and merge (with
        sort enforcers on whichever side lacks the order).
        """
        joins = self.template.joins_connecting(outer.tables, inner.tables)
        if not joins:
            return []
        selectivity = self.join_selectivity(joins)
        primary = joins[0]
        if primary.left.table in outer.tables:
            outer_column, inner_column = primary.left, primary.right
        else:
            outer_column, inner_column = primary.right, primary.left

        candidates: list[PlanNode] = [
            HashJoin(outer, inner, selectivity, self.model),
            NestedLoopJoin(outer, inner, selectivity, self.model),
        ]
        sorted_outer = (
            outer
            if outer.sort_order == str(outer_column)
            else Sort(outer, str(outer_column), self.model)
        )
        sorted_inner = (
            inner
            if inner.sort_order == str(inner_column)
            else Sort(inner, str(inner_column), self.model)
        )
        candidates.append(
            MergeJoin(
                sorted_outer,
                sorted_inner,
                selectivity,
                self.model,
                order=str(outer_column),
            )
        )
        return candidates

    def _merge_candidates(
        self,
        outer: PlanNode,
        inner_table: str,
        outer_order: str,
        inner_order: str,
        selectivity: float,
    ) -> list[PlanNode]:
        """Merge joins, adding Sort enforcers where an order is missing."""
        sorted_outer = (
            outer
            if outer.sort_order == outer_order
            else Sort(outer, outer_order, self.model)
        )

        candidates = []
        for inner_path in self.access_paths(inner_table):
            sorted_inner = (
                inner_path
                if inner_path.sort_order == inner_order
                else Sort(inner_path, inner_order, self.model)
            )
            candidates.append(
                MergeJoin(
                    sorted_outer,
                    sorted_inner,
                    selectivity,
                    self.model,
                    order=outer_order,
                )
            )
        return candidates


class _Cell:
    """One ``(subset, sort_order)`` cell of the DP table over a round of
    ``n`` points: the cheapest cost found so far at each point, whether
    the point has seen a candidate yet, and the index into ``nodes`` of
    the plan holding that cost."""

    __slots__ = ("cost", "seen", "index", "nodes")

    def __init__(self, n: int) -> None:
        self.cost = np.zeros(n)
        self.seen = np.zeros(n, dtype=bool)
        self.index = np.zeros(n, dtype=np.intp)
        self.nodes: list[PlanNode] = []

    def take(self, node: PlanNode, cost: np.ndarray, where: np.ndarray) -> bool:
        """Give ``node`` the points of ``where`` at which it is the first
        candidate or strictly cheaper than the plan held; whether it
        took any."""
        better = where & (~self.seen | (cost < self.cost))
        if not better.any():
            return False
        self.cost[better] = cost[better]
        self.seen |= better
        self.index[better] = len(self.nodes)
        self.nodes.append(node)
        return True

    def winners(self) -> list[tuple[PlanNode, np.ndarray]]:
        """Each node that holds the cell at some point, with the mask of
        those points."""
        return [
            (self.nodes[i], self.index == i) for i in np.unique(self.index)
        ]


class DPEnumerator:
    """Bottom-up dynamic program over connected table subsets.

    ``optimize`` takes *normalized* plan-space points in ``[0, 1]^r``
    and converts them to actual predicate selectivities through the
    template's :class:`~repro.optimizer.parameters.ParameterMapping`
    before costing — the ``plan(f(q))`` decomposition of Section II-A.
    """

    def __init__(
        self,
        template: QueryTemplate,
        catalog: Catalog,
        model: CostModel | None = None,
        allow_bushy: bool = False,
    ) -> None:
        self.template = template
        self.builder = PlanBuilder(template, catalog, model)
        self.mapping = ParameterMapping.for_template(template, catalog)
        self.allow_bushy = allow_bushy

    def selectivities(self, points: np.ndarray) -> np.ndarray:
        """Normalized plan-space points, ``(r,)`` or ``(n, r)``, as an
        ``(n, r)`` array of predicate selectivities.

        Raises :class:`OptimizationError` unless every coordinate is a
        number in ``[0, 1]``: NaN fails both comparisons, so it is
        rejected with the out-of-range values and the infinities.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        degree = self.template.parameter_degree
        if points.ndim != 2 or points.shape[1] != degree:
            raise OptimizationError(
                f"expected {degree}-dimensional points, got shape {points.shape}"
            )
        if not ((points >= 0.0) & (points <= 1.0)).all():
            raise OptimizationError(
                "plan-space points must be finite and lie in [0, 1]^r"
            )
        return self.mapping.to_selectivity(points)

    def optimize(self, points: np.ndarray) -> list[tuple[PhysicalPlan, float]]:
        """Best plan and its cost at each normalized point, ``(r,)`` or
        ``(n, r)``: ``n`` pairs, in point order.

        One dynamic program serves the whole batch.  Each DP cell keeps
        per-point arrays (cost, seen, winner index), so a join candidate
        is built once per distinct subplan that wins its outer side at
        some point, costed once over all ``n`` points, and takes the
        cell only at the points where that subplan is the winner and it
        is the first candidate seen or strictly cheaper — the rule a
        one-point DP applies, so every point gets the plan and the cost
        bits it would get alone.  A one-point caller passes a batch of
        one and takes ``[0]``.

        Every candidate is costed through one memo, so a subtree kept in
        the DP table is evaluated once, not once per join built on it.
        A candidate that wins at no point leaves the memo again (its own
        node and the fresh operators under it), and after each subset
        size the memo keeps only the winners later joins can build on.
        """
        x = self.selectivities(points)
        n = len(x)
        if n == 0:
            return []
        everywhere = np.ones(n, dtype=bool)
        memo: Memo = {}

        best: dict[frozenset[str], dict[str | None, _Cell]] = {}
        for table in self.template.tables:
            entries: dict[str | None, _Cell] = {}
            for path in self.builder.access_paths(table):
                self._keep_if_better(entries, path, x, memo, everywhere)
            best[frozenset((table,))] = entries

        table_list = list(self.template.tables)
        for size in range(2, len(table_list) + 1):
            for combo in itertools.combinations(table_list, size):
                subset = frozenset(combo)
                entries = {}
                for inner_table in combo:
                    remainder = subset - {inner_table}
                    outer_entries = best.get(remainder)
                    if not outer_entries:
                        continue
                    if not self.template.joins_between(remainder, inner_table):
                        continue
                    for outer_cell in outer_entries.values():
                        for outer, where in outer_cell.winners():
                            for candidate in self.builder.join_candidates(
                                outer, inner_table
                            ):
                                self._keep_if_better(
                                    entries, candidate, x, memo, where
                                )
                if self.allow_bushy and size >= 4:
                    self._expand_bushy(best, subset, entries, x, memo)
                if entries:
                    best[subset] = entries
            # The next size builds only on this size's winners (bushy
            # joins on any size from two up): every other subplan's costs
            # leave the memo.
            floor = 2 if self.allow_bushy else size
            memo = {
                node: memo[node]
                for tables, cells in best.items()
                if len(tables) >= floor
                for cell in cells.values()
                for node, __ in cell.winners()
                if node in memo
            }

        full = best.get(frozenset(table_list))
        if not full:
            raise OptimizationError(
                f"template {self.template.name}: join graph is disconnected"
            )
        # The cheapest full plan, first seen on a tie.  Under ORDER BY,
        # the interesting order at the root: either a plan already
        # sorted on the requested column, or a plan plus a final sort
        # enforcer — whichever costs less.
        target = (
            None if self.template.order_by is None else str(self.template.order_by)
        )
        chosen = _Cell(n)
        for cell in full.values():
            for node, where in cell.winners():
                if target is not None and node.sort_order != target:
                    node = Sort(node, target, self.builder.model)
                self._offer(chosen, node, x, memo, where)
        plans = {
            i: PhysicalPlan(chosen.nodes[i])
            for i in np.unique(chosen.index).tolist()
        }
        return [
            (plans[i], cost)
            for i, cost in zip(chosen.index.tolist(), chosen.cost.tolist())
        ]

    def _expand_bushy(
        self,
        best: dict,
        subset: frozenset[str],
        entries: dict,
        x: np.ndarray,
        memo: Memo,
    ) -> None:
        """Consider composite-composite joins (bushy trees).

        Partitions the subset into two halves of size >= 2 each (the
        size-1 halves are the left-deep expansions already handled);
        the smallest member anchors one side to avoid enumerating each
        partition twice.  A pair of subplans is joined only if both win
        their side at some common point.
        """
        members = sorted(subset)
        anchor = members[0]
        others = members[1:]
        for mask in range(1, 1 << len(others)):
            left = frozenset(
                [anchor] + [t for i, t in enumerate(others) if mask & (1 << i)]
            )
            right = subset - left
            if len(left) < 2 or len(right) < 2:
                continue
            left_entries = best.get(left)
            right_entries = best.get(right)
            if not left_entries or not right_entries:
                continue
            for left_cell in left_entries.values():
                for right_cell in right_entries.values():
                    right_winners = right_cell.winners()
                    for outer, outer_where in left_cell.winners():
                        for inner, inner_where in right_winners:
                            where = outer_where & inner_where
                            if not where.any():
                                continue
                            for candidate in self.builder.join_subtree_candidates(
                                outer, inner
                            ):
                                self._keep_if_better(
                                    entries, candidate, x, memo, where
                                )

    @classmethod
    def _keep_if_better(
        cls,
        entries: dict["str | None", _Cell],
        node: PlanNode,
        x: np.ndarray,
        memo: Memo,
        where: np.ndarray,
    ) -> None:
        """Offer ``node`` to the cell of its sort order."""
        cell = entries.get(node.sort_order)
        if cell is None:
            cell = entries[node.sort_order] = _Cell(len(x))
        cls._offer(cell, node, x, memo, where)

    @staticmethod
    def _offer(
        cell: _Cell,
        node: PlanNode,
        x: np.ndarray,
        memo: Memo,
        where: np.ndarray,
    ) -> None:
        """Cost ``node`` over the round and let it take ``cell`` at the
        points of ``where`` it wins.  If it wins none, its memo entries
        — the newest, since dicts pop in LIFO order — leave again."""
        known = len(memo)
        __, cost = node.evaluate(x, memo)
        if cell.take(node, cost, where):
            return
        for __ in range(len(memo) - known):
            memo.popitem()
