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

A program pays for its joins and little else.  It makes one
:class:`PlanBuilder`, which builds each access path once and each sort
enforcer once per (input node, order), so every candidate over one holds
the same node and the memo, keyed by identity, costs it once.  Those
costs stay in the memo while a later join can use them; a candidate
that wins nowhere, and a winner that later candidates displace from its
last point, leave it again.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

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


class JoinSpec(NamedTuple):
    """What joining two sides reads from the catalog and the template:
    the combined selectivity of the connecting predicates and the orders
    a merge join needs on each side (the primary predicate's columns)."""

    selectivity: float
    outer_order: str
    inner_order: str
    #: For a base-table inner with an index on its join column: the
    #: index an index nested-loops join probes, the table's rows and its
    #: parameterized predicates.  None otherwise, and for a bushy join.
    probe: "tuple[str, float, tuple[int, ...]] | None" = None


class PlanBuilder:
    """Builds the bound operator nodes of one dynamic program.

    Every node that several candidates share is built once: a table's
    access paths and its index probes' synthetic inner on first use, and
    one sort enforcer per (input node, order).  Each pair of join sides
    has its :class:`JoinSpec` resolved once.  So every candidate over the
    same access path or enforcer holds the same object, and a memo keyed
    by identity costs it once.
    :class:`DPEnumerator` makes one builder per ``optimize`` call: the
    nodes of one program are never handed to another.
    """

    def __init__(
        self,
        template: QueryTemplate,
        catalog: Catalog,
        model: CostModel | None = None,
    ) -> None:
        self.template = template
        self.catalog = catalog
        self.model = model or CostModel()
        self._paths: dict[str, tuple[PlanNode, ...]] = {}
        self._sorts: dict[tuple[PlanNode, str], Sort] = {}
        self._probe_sides: dict[str, SeqScan] = {}
        #: Keyed by (outer tables, inner table) for a base-table inner,
        #: by (outer tables, inner tables) for a bushy join.
        self._specs: dict[tuple, "JoinSpec | None"] = {}

    # ------------------------------------------------------------------
    # Shared nodes
    # ------------------------------------------------------------------
    def access_paths(self, table_name: str) -> tuple[PlanNode, ...]:
        """All single-table plans: one SeqScan plus one IndexScan per
        indexed parameterized predicate, built on the first call."""
        paths = self._paths.get(table_name)
        if paths is None:
            paths = self._paths[table_name] = self._build_paths(table_name)
        return paths

    def _build_paths(self, table_name: str) -> tuple[PlanNode, ...]:
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
        return tuple(paths)

    def sorted(self, node: PlanNode, order: str) -> PlanNode:
        """``node`` if it is sorted on ``order``; otherwise its one sort
        enforcer on ``order``, built on the first call."""
        if node.sort_order == order:
            return node
        key = (node, order)
        enforcer = self._sorts.get(key)
        if enforcer is None:
            enforcer = self._sorts[key] = Sort(node, order, self.model)
        return enforcer

    def probe_side(
        self, table_name: str, probe: "tuple[str, float, tuple[int, ...]]"
    ) -> SeqScan:
        """The synthetic inner every index nested-loops probe of
        ``table_name`` shares (:meth:`IndexNLJoin.probe_side`), built on
        the first call; ``probe`` is the :class:`JoinSpec`'s."""
        side = self._probe_sides.get(table_name)
        if side is None:
            __, base_rows, param_indexes = probe
            side = self._probe_sides[table_name] = IndexNLJoin.probe_side(
                table_name, base_rows, param_indexes, self.model
            )
        return side

    def retain(self, kept: list[PlanNode]) -> list[PlanNode]:
        """Forget every sort enforcer except those over an access path or
        over a node of ``kept``; the shared nodes left, which later joins
        can still use: the access paths, then those enforcers."""
        paths = [path for paths in self._paths.values() for path in paths]
        inputs = set(paths).union(kept)
        self._sorts = {
            key: enforcer
            for key, enforcer in self._sorts.items()
            if key[0] in inputs
        }
        return paths + list(self._sorts.values())

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

    def join_spec(
        self, outer_tables: frozenset[str], inner_table: str
    ) -> "JoinSpec | None":
        """How ``outer_tables`` join the base table ``inner_table``, or
        None if no predicate connects them; resolved on the first call."""
        key = (outer_tables, inner_table)
        if key not in self._specs:
            self._specs[key] = self._base_spec(outer_tables, inner_table)
        return self._specs[key]

    def _base_spec(
        self, outer_tables: frozenset[str], inner_table: str
    ) -> "JoinSpec | None":
        joins = self.template.joins_between(outer_tables, inner_table)
        if not joins:
            return None
        primary = joins[0]
        inner_column = primary.column_for(inner_table)
        outer_column = primary.column_for(
            next(iter(primary.tables() - {inner_table}))
        )
        index = self.catalog.index_on(inner_table, inner_column.column)
        probe = None
        if index is not None:
            probe = (
                index.name,
                self.catalog.table(inner_table).row_count,
                tuple(
                    p.param_index for p in self.template.predicates_on(inner_table)
                ),
            )
        return JoinSpec(
            self.join_selectivity(joins), str(outer_column), str(inner_column), probe
        )

    def join_candidates(
        self, outer: PlanNode, inner_table: str
    ) -> list[PlanNode]:
        """Every physical join of ``outer`` with ``inner_table``: hash and
        nested loops over each access path, an index nested-loops probe
        if the inner join column is indexed, then a merge join over each
        access path, with sort enforcers where an order is missing."""
        spec = self.join_spec(outer.tables, inner_table)
        if spec is None:
            return []
        selectivity = spec.selectivity
        paths = self.access_paths(inner_table)

        candidates: list[PlanNode] = []
        for inner_path in paths:
            candidates.append(HashJoin(outer, inner_path, selectivity, self.model))
            candidates.append(
                NestedLoopJoin(outer, inner_path, selectivity, self.model)
            )

        if spec.probe is not None:
            candidates.append(
                IndexNLJoin(
                    outer,
                    inner_table,
                    *spec.probe,
                    selectivity,
                    self.model,
                    inner=self.probe_side(inner_table, spec.probe),
                )
            )

        sorted_outer = self.sorted(outer, spec.outer_order)
        for inner_path in paths:
            candidates.append(
                MergeJoin(
                    sorted_outer,
                    self.sorted(inner_path, spec.inner_order),
                    selectivity,
                    self.model,
                    order=spec.outer_order,
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
        key = (outer.tables, inner.tables)
        if key not in self._specs:
            self._specs[key] = self._subtree_spec(*key)
        spec = self._specs[key]
        if spec is None:
            return []
        selectivity = spec.selectivity
        return [
            HashJoin(outer, inner, selectivity, self.model),
            NestedLoopJoin(outer, inner, selectivity, self.model),
            MergeJoin(
                self.sorted(outer, spec.outer_order),
                self.sorted(inner, spec.inner_order),
                selectivity,
                self.model,
                order=spec.outer_order,
            ),
        ]

    def _subtree_spec(
        self, outer_tables: frozenset[str], inner_tables: frozenset[str]
    ) -> "JoinSpec | None":
        joins = self.template.joins_connecting(outer_tables, inner_tables)
        if not joins:
            return None
        primary = joins[0]
        if primary.left.table in outer_tables:
            outer_column, inner_column = primary.left, primary.right
        else:
            outer_column, inner_column = primary.right, primary.left
        return JoinSpec(
            self.join_selectivity(joins), str(outer_column), str(inner_column)
        )


class _Cell:
    """One ``(subset, sort_order)`` cell of the DP table over a round of
    ``n`` points: the cheapest cost found so far at each point, whether
    the point has seen a candidate yet (``full`` once all have: the
    common case, which then skips the unseen test), and the index into
    ``nodes`` of the plan holding that cost.  A node that holds no point
    any more leaves ``nodes``; its slot holds None, so every index
    stays."""

    __slots__ = ("cost", "seen", "full", "index", "nodes")

    def __init__(self, n: int) -> None:
        self.cost = np.zeros(n)
        self.seen = np.zeros(n, dtype=bool)
        self.full = False
        self.index = np.zeros(n, dtype=np.intp)
        self.nodes: list["PlanNode | None"] = []

    def take(
        self, node: PlanNode, cost: np.ndarray, where: np.ndarray
    ) -> "list[PlanNode] | None":
        """Give ``node`` the points of ``where`` at which it is the first
        candidate or strictly cheaper than the plan held.  None if it
        took no point; otherwise the nodes it took the last point of,
        which the cell lets go."""
        if self.full:
            better = taken = where & (cost < self.cost)
        else:
            better = where & (~self.seen | (cost < self.cost))
            taken = better & self.seen
        if not np.count_nonzero(better):
            return None
        lost = set(self.index[taken].tolist())
        np.putmask(self.cost, better, cost)
        np.putmask(self.index, better, len(self.nodes))
        self.nodes.append(node)
        if not self.full:
            self.seen |= better
            self.full = np.count_nonzero(self.seen) == len(self.seen)
        if lost:
            held = self.index if self.full else self.index[self.seen]
            lost.difference_update(held.tolist())
        displaced = [self.nodes[i] for i in lost]
        for i in lost:
            self.nodes[i] = None
        return displaced

    def winners(self) -> list[tuple[PlanNode, np.ndarray]]:
        """Each node that holds the cell at some point, with the mask of
        those points, in the order the nodes took the cell."""
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
        self.catalog = catalog
        self.model = model or CostModel()
        self.mapping = ParameterMapping.for_template(template, catalog)
        self.allow_bushy = allow_bushy

    @property
    def builder(self) -> PlanBuilder:
        """A new builder of this template's nodes, like the one each
        ``optimize`` call makes for its program."""
        return PlanBuilder(self.template, self.catalog, self.model)

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

        Every node is costed once per program, through one memo.  The
        program's :class:`PlanBuilder` builds each access path once and
        each sort enforcer once per (input node, order), so every
        candidate over one shares it, and their costs stay in the memo
        while a later join can use them: the access paths and the
        enforcers over them for the whole program, an enforcer over a
        kept subplan as long as the subplan.  A candidate that wins at
        no point leaves the memo again, and so does a kept one once
        later candidates have taken all its points (its cell keeps a
        placeholder).  After each subset size the memo keeps only the
        winners later joins can build on, with those shared nodes.
        """
        x = self.selectivities(points)
        n = len(x)
        if n == 0:
            return []
        builder = PlanBuilder(self.template, self.catalog, self.model)
        everywhere = np.ones(n, dtype=bool)
        memo: Memo = {}

        best: dict[frozenset[str], dict[str | None, _Cell]] = {}
        # Every later join shares the access paths: each is costed once
        # here, and no cell lets its costs go.
        for table in self.template.tables:
            entries: dict[str | None, _Cell] = {}
            for path in builder.access_paths(table):
                __, cost = path.evaluate(x, memo)
                cell = entries.get(path.sort_order)
                if cell is None:
                    cell = entries[path.sort_order] = _Cell(n)
                cell.take(path, cost, everywhere)
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
                    if builder.join_spec(remainder, inner_table) is None:
                        continue
                    for outer_cell in outer_entries.values():
                        for outer, where in outer_cell.winners():
                            for candidate in builder.join_candidates(
                                outer, inner_table
                            ):
                                self._keep_if_better(
                                    entries, candidate, x, memo, where
                                )
                if self.allow_bushy and size >= 4:
                    self._expand_bushy(builder, best, subset, entries, x, memo)
                if entries:
                    best[subset] = entries
            # The next size builds only on this size's winners (bushy
            # joins on any size from two up), the access paths and the
            # enforcers over either: every other node's costs leave the
            # memo.
            floor = 2 if self.allow_bushy else size
            kept = [
                node
                for tables, cells in best.items()
                if len(tables) >= floor
                for cell in cells.values()
                for node, __ in cell.winners()
            ]
            memo = {
                node: memo[node]
                for node in kept + builder.retain(kept)
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
                if target is not None:
                    node = builder.sorted(node, target)
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
        builder: PlanBuilder,
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
                            if not np.count_nonzero(where):
                                continue
                            for candidate in builder.join_subtree_candidates(
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
        points of ``where`` it wins.  A node that wins no point leaves
        the memo again, and so does each node it displaced from its last
        point: nothing builds on either.  The nodes under them keep their
        costs: a join candidate is the one node its builder made fresh,
        over shared access paths, sort enforcers and kept subplans."""
        __, cost = node.evaluate(x, memo)
        displaced = cell.take(node, cost, where)
        for gone in [node] if displaced is None else displaced:
            memo.pop(gone, None)
