"""Physical plan operators: one cardinality and cost formula per node.

Every node has one ``_evaluate`` formula, which ``evaluate(x,
memo=None)`` runs over a batch: ``x`` is an ``(n, r)`` array of
selectivity points, and ``(rows, cost)`` come back as ``(n,)`` arrays;
one point is a one-row batch.  The DP enumerator costs plans that do
not exist until it builds them, so it runs ``evaluate``, and so does
:meth:`PhysicalPlan.cost`.

A :class:`~repro.optimizer.plan_space.PlanSpace` knows its candidates
once harvested, so :func:`compile_costs` turns them into one
straight-line Python function, its only costing path.  That program is
the formula itself, recorded: each node's ``_evaluate`` runs once over
a point view of symbolic values, and every operation it applies to one
becomes a program operation, in the same order, while what Python
computes from the node's numbers alone is folded into a literal.  So
program and formula agree on every bit by construction.  A formula may
apply only ``+ - * /``, comparisons, unary minus and
``np.exp``/``np.log2`` to a point value; anything else, and any Python
branch on one, raises :class:`ConfigurationError` at compile time.

The program reads its point through a *point view* ``x``: ``x[i]`` is
selectivity ``i``, an ``(n,)`` column for a batch and a float for one
point (``_evaluate`` always sees columns).  A formula only multiplies,
adds, compares and calls numpy ufuncs, which accept both kinds, so one
formula serves both operand kinds.  A branch is a comparison multiplied
in — ``(a > b) * v`` is ``v`` or ``0.0`` — where array code would call
``np.where`` or ``np.maximum``.  The two kinds agree to the last bit:
``+ - * /`` are the same IEEE operations on a float and on an array
element, and ``np.exp``/``np.log2`` run the same ufunc loop on both
(``math.exp`` is *not* bit-equal to ``np.exp``).  A ufunc hands a float
its result back as a numpy scalar, and every later operation on one
costs several times a float's, so the program calls each ufunc through
:func:`_ufunc`, which converts a float's result back to a Python float:
the same bits, and the ancestors above ``IndexScan`` and ``Sort`` stay
in float arithmetic.  A non-finite point would break the agreement (a
comparison with NaN is False, ``np.maximum`` propagates it); the
callers reject it before costing.

Plans that share a subtree — a join prefix, an access path — share its
cost too.  The program evaluates each shared node once; in the DP, one
``memo`` threaded through several calls at the same points does the
same for every candidate built on a kept subtree.  Sharing needs shared
*objects*; :meth:`PlanNode.interned` folds structurally equal subtrees
into one node so the memo and the program can find them.

Nodes are constructed with all catalog quantities (row counts, page
counts, join selectivities) already resolved to plain numbers, so the
operator layer has no dependency on the catalog — mirroring how a real
executor receives a fully bound plan.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.optimizer.cost_model import CostModel

#: A cardinality or a cost: an ``(n,)`` array over a batch, a float at
#: one point.
Value = np.ndarray | float
#: Selectivities: ``x[i]`` is column ``i`` of an ``(r, n)`` array, or
#: element ``i`` of ``r`` floats.
PointView = np.ndarray | Sequence[float]
RowsCost = tuple[Value, Value]
#: Evaluated nodes at one set of points, keyed by node identity.
Memo = dict["PlanNode", RowsCost]
#: A compiled cost program: every candidate's cost at the point view
#: ``x`` (see :func:`compile_costs`).
CostProgram = Callable[[PointView], list[Value]]
#: The ufuncs a formula may apply to a point value.
_UFUNCS = (np.exp, np.log2)


def _selectivity_product(x: PointView, param_indexes: tuple[int, ...]) -> Value:
    """Combined selectivity of the predicates at ``param_indexes``.

    Starts from the first selectivity rather than from one: ``1.0 * v
    == v`` exactly, so the product is bit for bit the same with one
    fewer multiplication.  No predicate selects everything: ``1.0``.
    """
    if not param_indexes:
        return 1.0
    product = x[param_indexes[0]]
    for index in param_indexes[1:]:
        product = product * x[index]
    return product


def _ufunc(ufunc: np.ufunc, value: Value) -> Value:
    """``ufunc(value)``: for a Python float, the numpy scalar's Python
    float, the same bits; an array or a recorded value as it comes."""
    result = ufunc(value)
    return float(result) if isinstance(value, float) else result


def _literal(value: "int | float") -> str:
    """A node's number as program source: only a finite ``int`` or
    ``float`` is ever emitted, so ``repr`` is an exact literal.  The
    numbers come from a catalog and a cost model, so anything else
    raises."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigurationError(
            f"cost program constant must be a finite number, got {value!r}"
        )
    return repr(value)


#: The comparisons a formula may record; at one point each is a bool.
_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


def _operation(symbol: str) -> tuple[Callable, Callable]:
    """The :class:`_Recorded` methods recording ``a {symbol} b``: the
    forward one, called on ``a``, and the reflected one, called on
    ``b``."""
    template = f"({{}} {symbol} {{}})"
    return (
        lambda self, other: _Recorded(template, self, other),
        lambda self, other: _Recorded(template, other, self),
    )


#: The source templates of the recorded comparisons.
_COMPARISON_TEMPLATES = frozenset(
    f"({{}} {symbol} {{}})" for symbol in _COMPARISONS
)


class _Recorded:
    """A point value while :func:`compile_costs` records a formula: the
    source ``template`` of one operation over its ``operands``, each an
    earlier recorded value or a constant Python folded.  An operand
    never refers back, so a recording is freed without the cyclic
    collector."""

    __slots__ = ("template", "operands", "uses", "name")

    def __init__(self, template: str, *operands: "_Recorded | int | float") -> None:
        self.template = template
        self.operands = operands
        #: Recorded values with this one as an operand.
        self.uses = 0
        #: The program local holding the value; None inlines it.
        self.name: "str | None" = None
        for operand in operands:
            if isinstance(operand, _Recorded):
                operand.uses += 1

    __add__, __radd__ = _operation("+")
    __sub__, __rsub__ = _operation("-")
    __truediv__, __rtruediv__ = _operation("/")
    # Python reflects a comparison into the mirrored one.
    __lt__, __le__, __gt__, __ge__, __eq__, __ne__ = (
        _operation(symbol)[0] for symbol in _COMPARISONS
    )
    _times, _rtimes = _operation("*")

    def _unit(self, other: object) -> bool:
        """Whether ``self * other`` is ``self`` bit for bit: ``v * 1.0
        == v`` for every float ``v``, so a folded ``1.0`` factor records
        nothing.  Not for a comparison, which is a bool at one point
        (``True * 1.0`` is the float ``1.0``)."""
        return (
            type(other) is float
            and other == 1.0
            and self.template not in _COMPARISON_TEMPLATES
        )

    def __mul__(self, other: "_Recorded | int | float") -> "_Recorded":
        return self if self._unit(other) else self._times(other)

    def __rmul__(self, other: "int | float") -> "_Recorded":
        return self if self._unit(other) else self._rtimes(other)

    def __neg__(self) -> "_Recorded":
        return _Recorded("(-{})", self)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs) -> "_Recorded":
        if ufunc not in _UFUNCS or method != "__call__" or kwargs:
            raise ConfigurationError(
                f"a cost formula cannot apply {ufunc.__name__} to a point value"
            )
        return _Recorded(f"_ufunc({ufunc.__name__}, {{}})", *inputs)

    def __bool__(self) -> bool:
        raise ConfigurationError(
            "a cost formula cannot branch on a point value in Python: "
            "multiply a comparison in"
        )


class _Recording:
    """A cost program in the making.  As the memo of the formulas,
    ``get`` runs a node's ``_evaluate`` over the recorded point ``x``
    the first time a parent (or the caller) asks for it, and names the
    node's results ``rows{k}`` and ``cost{k}``.  Then ``source`` emits a
    value: a named or shared one as a line of its own, once, after its
    operands', any other inline.  A class, not a recursive closure: a
    closure that names itself is a reference cycle."""

    def __init__(self, degree: int) -> None:
        self.x = [_Recorded("x[{}]", i) for i in range(degree)]
        self.results: dict[PlanNode, RowsCost] = {}
        self.lines: list[str] = []
        self.defined: set[str] = set()

    def get(self, node: "PlanNode") -> RowsCost:
        found = self.results.get(node)
        if found is None:
            found = self.results[node] = node._evaluate(self.x, self)
            for prefix, value in zip(("rows", "cost"), found):
                if isinstance(value, _Recorded) and value.name is None:
                    value.name = f"{prefix}{len(self.results)}"
        return found

    def source(self, value: "_Recorded | int | float") -> str:
        if not isinstance(value, _Recorded):
            # A folded comparison is a bool: ``True * v == 1 * v``.
            return _literal(int(value) if type(value) is bool else value)
        if value.name in self.defined:
            return value.name
        expression = value.template.format(*map(self.source, value.operands))
        if value.name is None:
            if value.uses < 2:
                return expression
            value.name = f"v{len(self.lines)}"
        self.defined.add(value.name)
        self.lines.append(f"{value.name} = {expression}")
        return value.name


def compile_costs(roots: Sequence["PlanNode"], degree: int) -> CostProgram:
    """One straight-line function costing every plan of ``roots``.

    Recorded from the formulas: each distinct node's (by identity)
    ``_evaluate`` runs once over ``degree`` recorded selectivities,
    children first.  Node results and values read more than once become
    locals, a value read once is inlined, and nothing is rewritten:
    each operation keeps its operands' order and association.  The one
    operation not recorded is a product with a folded ``1.0``, which
    is its other operand bit for bit (:meth:`_Recorded._unit`).

    The function takes a point view — ``r`` Python floats for one
    point, an ``(r, n)`` array for a batch — and returns each root's
    cost in ``roots`` order, bit for bit the entries of
    :meth:`PlanNode.evaluate` over the same points.  A cost no
    selectivity reaches is a float on both paths.
    """
    recording = _Recording(degree)
    try:
        costs = [recording.get(root)[1] for root in roots]
    except TypeError as exc:
        raise ConfigurationError(
            f"a cost formula applies an operation a cost program cannot "
            f"record to a point value: {exc}"
        ) from exc
    returned = ", ".join(map(recording.source, costs))
    body = "".join(f"    {line}\n" for line in recording.lines)
    namespace = {"_ufunc": _ufunc, **{ufunc.__name__: ufunc for ufunc in _UFUNCS}}
    source = f"def program(x):\n{body}    return [{returned}]\n"
    exec(compile(source, "<cost program>", "exec"), namespace)
    # Popped, so its globals do not hold it: no cycle outlives a space.
    return namespace.pop("program")


def _column(value: Value, n: int) -> np.ndarray:
    """``value`` over ``n`` points; a constant — a subtree no
    selectivity reaches, such as a ``SeqScan``'s cost — is broadcast."""
    if isinstance(value, np.ndarray):
        return value
    return np.full(n, value)


def _frozen(value: Value, n: int) -> np.ndarray:
    """``value`` as a batch memo holds it: ``(n,)`` and read-only."""
    value = _column(value, n)
    value.flags.writeable = False
    return value


class PlanNode(ABC):
    """Base class of all physical operators."""

    #: Tables contributing rows to this subtree.
    tables: frozenset[str]
    #: Column the output is sorted on (as ``"table.column"``), or None.
    sort_order: "str | None" = None
    model: CostModel
    #: Attributes holding the child nodes, in evaluation order.
    _child_slots: tuple[str, ...] = ()

    def evaluate(self, x: np.ndarray, memo: "Memo | None" = None) -> RowsCost:
        """Output cardinality and cumulative cost at each point of ``x``.

        ``x`` is normalized to an ``(n, r)`` float array once, here, and
        the results are ``(n,)`` arrays.  Without a ``memo`` every node
        of the subtree is evaluated and the arrays returned are the
        caller's own.  With one, a node already in ``memo`` (by
        identity) returns its cached result, and every node evaluated is
        added, children included — so the memo must only ever see one
        ``x``.  Cached arrays are full length and read-only: they are
        shared with every later caller, and a parent writing into one
        would corrupt a sibling plan's cost, so the write raises
        instead.
        """
        x = _as_points(x)
        if memo is not None:
            return self._memoized(x.T, memo)
        rows, cost = self._evaluate(x.T, None)
        return _column(rows, x.shape[0]), _column(cost, x.shape[0])

    def _memoized(self, x: np.ndarray, memo: "Memo | None") -> RowsCost:
        if memo is None:
            return self._evaluate(x, None)
        found = memo.get(self)
        if found is None:
            rows, cost = self._evaluate(x, memo)
            n = x.shape[1]
            found = memo[self] = (_frozen(rows, n), _frozen(cost, n))
        return found

    @abstractmethod
    def _evaluate(self, x: PointView, memo: "Memo | None") -> RowsCost:
        """This node's formula at the points of view ``x``, its
        children evaluated through ``memo``."""

    @abstractmethod
    def _fields(self) -> tuple:
        """Every attribute ``_evaluate`` reads, other than the children
        and the cost model."""

    def interned(self, pool: "dict[tuple, PlanNode]") -> "PlanNode":
        """The node of ``pool`` structurally equal to this subtree, or
        this node, added to ``pool``, if there is none yet.

        Children are interned first and re-pointed in place, so call
        this only on a tree nothing else holds.  A node's key is its
        type, sort order, cost model, every field its cost formula reads
        and its (already interned) children's identities — never its
        :meth:`fingerprint`, which omits numbers such as page counts
        that the formulas depend on.
        """
        for slot in self._child_slots:
            setattr(self, slot, getattr(self, slot).interned(pool))
        key = (type(self), self.sort_order, self.model, *self._fields())
        key += tuple(getattr(self, slot) for slot in self._child_slots)
        return pool.setdefault(key, self)

    @abstractmethod
    def fingerprint(self) -> str:
        """Structural identity of the plan; equal plans compare equal."""

    def describe(self, indent: int = 0) -> str:
        """Readable multi-line plan rendering."""
        return " " * indent + self.fingerprint()


def _as_points(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    return x


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------
class SeqScan(PlanNode):
    """Full sequential scan with all local predicates applied as filters."""

    def __init__(
        self,
        table: str,
        base_rows: float,
        pages: float,
        param_indexes: tuple[int, ...],
        model: CostModel,
    ) -> None:
        self.table = table
        self.base_rows = float(base_rows)
        self.pages = float(pages)
        self.param_indexes = tuple(param_indexes)
        self.model = model
        self.tables = frozenset((table,))
        self.sort_order = None

    def _evaluate(self, x: PointView, memo: "Memo | None") -> RowsCost:
        rows = self.base_rows * _selectivity_product(x, self.param_indexes)
        cost = (
            self.pages * self.model.seq_page_cost
            + self.base_rows * self.model.cpu_tuple_cost
        )
        return rows, cost

    def _fields(self) -> tuple:
        return (self.table, self.base_rows, self.pages, self.param_indexes)

    def fingerprint(self) -> str:
        return f"SeqScan({self.table})"


class IndexScan(PlanNode):
    """Index range scan driven by one sargable parameterized predicate.

    The sargable predicate's selectivity decides how many index entries
    (and, for an unclustered index, how many random page fetches) the
    scan performs; the remaining local predicates are residual filters.
    """

    def __init__(
        self,
        table: str,
        index_name: str,
        sarg_param: int,
        base_rows: float,
        pages: float,
        residual_params: tuple[int, ...],
        clustered: bool,
        model: CostModel,
    ) -> None:
        if sarg_param in residual_params:
            raise ConfigurationError("sargable predicate repeated as residual")
        self.table = table
        self.index_name = index_name
        self.sarg_param = sarg_param
        self.base_rows = float(base_rows)
        self.pages = float(pages)
        self.residual_params = tuple(residual_params)
        self.clustered = clustered
        self.model = model
        self.tables = frozenset((table,))
        self.sort_order = None  # set by the builder to the indexed column

    def _evaluate(self, x: PointView, memo: "Memo | None") -> RowsCost:
        sarg_sel = x[self.sarg_param]
        fetched = self.base_rows * sarg_sel
        if self.clustered:
            io_cost = self.pages * sarg_sel * self.model.seq_page_cost
        else:
            # Mackert-Lohman estimate of distinct pages touched by
            # `fetched` random row accesses; saturates at the table's
            # page count instead of growing without bound.
            decay = _ufunc(np.exp, -fetched / self.pages)
            pages_touched = self.pages * (1.0 - decay)
            io_cost = pages_touched * self.model.random_page_cost
        cost = self.model.index_probe_cost + io_cost + fetched * self.model.cpu_tuple_cost
        if not self.residual_params:
            # No residual predicate: skip the product's ``* 1.0``.
            return fetched, cost
        rows = fetched * _selectivity_product(x, self.residual_params)
        return rows, cost

    def _fields(self) -> tuple:
        return (
            self.table,
            self.index_name,
            self.sarg_param,
            self.base_rows,
            self.pages,
            self.residual_params,
            self.clustered,
        )

    def fingerprint(self) -> str:
        return f"IndexScan({self.table}.{self.index_name})"


# ----------------------------------------------------------------------
# Sort
# ----------------------------------------------------------------------
class Sort(PlanNode):
    """Explicit sort enforcing an order for a merge join."""

    _child_slots = ("child",)

    def __init__(self, child: PlanNode, order: str, model: CostModel) -> None:
        self.child = child
        self.order = order
        self.model = model
        self.tables = child.tables
        self.sort_order = order

    def _evaluate(self, x: PointView, memo: "Memo | None") -> RowsCost:
        rows, cost = self.child._memoized(x, memo)
        # max(rows, 2.0): exactly one term is nonzero.
        safe_rows = (rows > 2.0) * rows + (rows <= 2.0) * 2.0
        sort_cost = self.model.sort_cost_factor * rows * _ufunc(np.log2, safe_rows)
        return rows, cost + sort_cost

    def _fields(self) -> tuple:
        return (self.order,)

    def fingerprint(self) -> str:
        return f"Sort[{self.order}]({self.child.fingerprint()})"

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return f"{pad}Sort on {self.order}\n{self.child.describe(indent + 2)}"


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
class _Join(PlanNode):
    """Shared bookkeeping for binary joins."""

    _child_slots = ("outer", "inner")

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        join_selectivity: float,
        model: CostModel,
    ) -> None:
        if outer.tables & inner.tables:
            raise ConfigurationError("join sides overlap")
        if not 0.0 < join_selectivity <= 1.0:
            raise ConfigurationError("join selectivity must be in (0, 1]")
        self.outer = outer
        self.inner = inner
        self.join_selectivity = float(join_selectivity)
        self.model = model
        self.tables = outer.tables | inner.tables
        self.sort_order = None

    def _output_rows(self, outer_rows: Value, inner_rows: Value) -> Value:
        return outer_rows * inner_rows * self.join_selectivity

    def _fields(self) -> tuple:
        return (self.join_selectivity,)

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return (
            f"{pad}{type(self).__name__} (sel={self.join_selectivity:.2e})\n"
            f"{self.outer.describe(indent + 2)}\n"
            f"{self.inner.describe(indent + 2)}"
        )


class NestedLoopJoin(_Join):
    """In-memory nested loops over a materialized inner.

    Cost is quadratic in input cardinalities; wins only when both sides
    are tiny, producing the small optimality pockets near the plan-space
    origin.  Like any nested-loops join, it emits outer tuples in
    order, so the outer's sort order survives.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sort_order = self.outer.sort_order

    def _evaluate(self, x: PointView, memo: "Memo | None") -> RowsCost:
        outer_rows, outer_cost = self.outer._memoized(x, memo)
        inner_rows, inner_cost = self.inner._memoized(x, memo)
        compare_cost = outer_rows * inner_rows * self.model.cpu_compare_cost
        rows = self._output_rows(outer_rows, inner_rows)
        cost = outer_cost + inner_cost + compare_cost + rows * self.model.cpu_tuple_cost
        return rows, cost

    def fingerprint(self) -> str:
        return f"NLJ({self.outer.fingerprint()},{self.inner.fingerprint()})"


class IndexNLJoin(_Join):
    """Nested loops probing an index on the inner base table.

    The inner side must be a base-table access: each outer row performs
    one index probe fetching ``inner_base_rows * join_selectivity``
    matches, after which the inner table's local predicates filter the
    output.  Wins when the outer is small, independent of inner size.

    The probe cost comes from the index, not from a scan of the inner,
    so ``inner`` is a synthetic ``SeqScan`` with one page that is never
    evaluated (:meth:`probe_side`): it exists only so the node has the
    two sides every join has (tables, fingerprints).  Its fingerprint
    equals the real scan's; only its page count tells them apart, which
    is why :meth:`PlanNode.interned` keys on every costed field.  A
    caller building many probes of one table passes one ``probe_side``
    as ``inner``; without it, the join builds its own.
    """

    def __init__(
        self,
        outer: PlanNode,
        inner_table: str,
        inner_index: str,
        inner_base_rows: float,
        inner_param_indexes: tuple[int, ...],
        join_selectivity: float,
        model: CostModel,
        inner: "SeqScan | None" = None,
    ) -> None:
        if inner is None:
            inner = self.probe_side(
                inner_table, inner_base_rows, inner_param_indexes, model
            )
        super().__init__(outer, inner, join_selectivity, model)
        self.inner_table = inner_table
        self.inner_index = inner_index
        self.inner_base_rows = float(inner_base_rows)
        self.inner_param_indexes = tuple(inner_param_indexes)
        # Nested loops emit outer tuples in order.
        self.sort_order = outer.sort_order

    @staticmethod
    def probe_side(
        table: str,
        base_rows: float,
        param_indexes: tuple[int, ...],
        model: CostModel,
    ) -> "SeqScan":
        """The synthetic one-page inner of every probe of ``table``."""
        return SeqScan(table, base_rows, 1.0, param_indexes, model)

    def _evaluate(self, x: PointView, memo: "Memo | None") -> RowsCost:
        outer_rows, outer_cost = self.outer._memoized(x, memo)
        matches_per_probe = self.inner_base_rows * self.join_selectivity
        probe_cost = (
            self.model.index_probe_cost
            + matches_per_probe * self.model.random_page_cost
        )
        residual = _selectivity_product(x, self.inner_param_indexes)
        rows = outer_rows * matches_per_probe * residual
        cost = (
            outer_cost
            + outer_rows * probe_cost
            + rows * self.model.cpu_tuple_cost
        )
        return rows, cost

    def _fields(self) -> tuple:
        return (
            self.join_selectivity,
            self.inner_table,
            self.inner_index,
            self.inner_base_rows,
            self.inner_param_indexes,
        )

    def fingerprint(self) -> str:
        return (
            f"IdxNLJ({self.outer.fingerprint()},"
            f"{self.inner_table}.{self.inner_index})"
        )

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return (
            f"{pad}IndexNLJoin probe {self.inner_table}.{self.inner_index}\n"
            f"{self.outer.describe(indent + 2)}"
        )


class HashJoin(_Join):
    """Hash join building on the inner side, spilling past memory."""

    def _evaluate(self, x: PointView, memo: "Memo | None") -> RowsCost:
        outer_rows, outer_cost = self.outer._memoized(x, memo)
        inner_rows, inner_cost = self.inner._memoized(x, memo)
        build = inner_rows * self.model.hash_build_cost
        probe = outer_rows * self.model.hash_probe_cost
        spill_penalty = (inner_rows > self.model.hash_memory_rows) * (
            (outer_rows + inner_rows)
            * self.model.hash_spill_factor
            * self.model.cpu_tuple_cost
        )
        rows = self._output_rows(outer_rows, inner_rows)
        cost = (
            outer_cost
            + inner_cost
            + build
            + probe
            + spill_penalty
            + rows * self.model.cpu_tuple_cost
        )
        return rows, cost

    def fingerprint(self) -> str:
        return f"HJ({self.outer.fingerprint()},{self.inner.fingerprint()})"


class MergeJoin(_Join):
    """Merge join; both inputs must already carry the join order."""

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        join_selectivity: float,
        model: CostModel,
        order: str,
    ) -> None:
        super().__init__(outer, inner, join_selectivity, model)
        self.sort_order = order

    def _evaluate(self, x: PointView, memo: "Memo | None") -> RowsCost:
        outer_rows, outer_cost = self.outer._memoized(x, memo)
        inner_rows, inner_cost = self.inner._memoized(x, memo)
        merge = (outer_rows + inner_rows) * self.model.merge_cost_factor
        rows = self._output_rows(outer_rows, inner_rows)
        cost = outer_cost + inner_cost + merge + rows * self.model.cpu_tuple_cost
        return rows, cost

    def fingerprint(self) -> str:
        return f"MJ({self.outer.fingerprint()},{self.inner.fingerprint()})"
