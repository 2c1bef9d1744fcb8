"""The compiled cost program is the node formulas, bit for bit.

A :class:`~repro.optimizer.plan_space.PlanSpace` costs its candidates
through one straight-line function (``operators.compile_costs``),
recorded by running each node's own ``_evaluate`` over symbolic
selectivities, with the catalog and cost-model numbers folded into
literals.  There is one formula and one recorded program, which must
agree on every cost bit with ``evaluate``'s columns: at one point in
Python floats, over a batch in arrays, and above all where a formula
branches — the ``Sort`` floor at two rows and the hash join's spill
threshold.  No harvested TPC-H candidate holds a ``Sort``, a
``MergeJoin`` or a clustered ``IndexScan``, so hand-built plans cover
those, and a test-local operator shows that ``_evaluate`` alone is
enough, while a formula the program cannot record is refused when it
compiles.  A one-point call maps and checks its coordinates itself, so
it must refuse every point the batch refuses.
"""

import math
import pickle
import re

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, OptimizationError
from repro.optimizer import operators
from repro.optimizer.cost_model import CostModel
from repro.optimizer.operators import (
    HashJoin,
    IndexNLJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    PlanNode,
    SeqScan,
    Sort,
    _literal,
    compile_costs,
)
from repro.optimizer.plan_space import PlanSpace
from repro.tpch import TEMPLATE_NAMES, plan_space_for

MODEL = CostModel()
LIMIT = MODEL.hash_memory_rows


def nodes(space: PlanSpace) -> list[PlanNode]:
    """Every distinct node of the candidates."""
    seen: dict[int, PlanNode] = {}
    stack = [plan.root for plan in space.plans]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, slot) for slot in node._child_slots)
    return list(seen.values())


def rows_along(space, node, start, direction, t):
    """``node``'s output rows at ``start + t * direction``."""
    x = space._enumerator.selectivities(start + t * direction)
    rows, __ = node.evaluate(x)
    return float(rows[0])


def straddling(space: PlanSpace) -> list[np.ndarray]:
    """Points just below and just above each hash join's spill
    threshold, found by bisection along the diagonal and along each axis
    through the centre (a node's rows never fall as a coordinate
    grows)."""
    degree = space.dimensions
    lines = [(np.zeros(degree), np.ones(degree))]
    for axis in range(degree):
        start = np.full(degree, 0.5)
        start[axis] = 0.0
        direction = np.zeros(degree)
        direction[axis] = 1.0
        lines.append((start, direction))
    points = []
    for node in nodes(space):
        if type(node) is not HashJoin:
            continue
        inner, limit = node.inner, node.model.hash_memory_rows
        for start, direction in lines:
            lo, hi = 0.0, 1.0
            if not (
                rows_along(space, inner, start, direction, lo) <= limit
                < rows_along(space, inner, start, direction, hi)
            ):
                continue
            for __ in range(64):
                mid = (lo + hi) / 2.0
                if rows_along(space, inner, start, direction, mid) <= limit:
                    lo = mid
                else:
                    hi = mid
            points += [start + lo * direction, start + hi * direction]
    return points


def parity_points(space: PlanSpace) -> np.ndarray:
    degree = space.dimensions
    random = np.random.default_rng(21).uniform(0.0, 1.0, (64, degree))
    edges = [np.zeros(degree), np.ones(degree)]
    for axis in range(degree):
        edge = np.full(degree, 0.5)
        edge[axis] = 0.0
        edges.append(edge.copy())
        edge[axis] = 1.0
        edges.append(edge)
    return np.vstack(
        [random, space._structured_probes(degree), np.array(edges), *straddling(space)]
    )


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_the_program_is_the_node_formulas_bitwise(name):
    space = plan_space_for(name)
    points = parity_points(space)
    selectivities = space._enumerator.selectivities(points)
    formulas = np.stack([plan.root.evaluate(selectivities)[1] for plan in space.plans])
    assert space.cost_matrix(points).tobytes() == formulas.tobytes()
    mapping = space._enumerator.mapping
    for i, point in enumerate(points):
        row = mapping.point_to_selectivity(point.tolist())
        assert np.array(row).tobytes() == selectivities[i].tobytes()
        costs, n = space._costs(point)
        assert n is None
        assert all(type(cost) is float for cost in costs)
        assert np.array(costs).tobytes() == formulas[:, i].tobytes()


def test_the_spill_threshold_is_crossed_on_tpch():
    """The parity points straddle some hash join's spill threshold, so
    the test above is not vacuous there."""
    assert any(straddling(plan_space_for(name)) for name in ("Q1", "Q5"))


def hand_built() -> list[PlanNode]:
    """Every operator kind, a clustered and an unclustered index scan,
    a sort whose input falls below two rows and a hash join whose
    inner crosses ``hash_memory_rows``, over selectivities ``(s0, s1)``."""
    tiny = SeqScan("a", 4.0, 1, (0,), MODEL)
    big = SeqScan("b", 2.0 * LIMIT, 782, (1,), MODEL)
    constant = SeqScan("c", 5_000, 50, (), MODEL)
    clustered = IndexScan("b", "pk_b", 1, 2.0 * LIMIT, 782, (0,), True, MODEL)
    unclustered = IndexScan("b", "ix_b", 1, 2.0 * LIMIT, 782, (), False, MODEL)
    return [
        Sort(tiny, "a.k", MODEL),
        HashJoin(SeqScan("d", 1_000, 10, (0,), MODEL), big, 1e-4, MODEL),
        HashJoin(tiny, clustered, 1e-4, MODEL),
        NestedLoopJoin(tiny, unclustered, 1e-3, MODEL),
        IndexNLJoin(tiny, "b", "pk_b", 2.0 * LIMIT, (1,), 1e-5, MODEL),
        MergeJoin(
            Sort(big, "b.k", MODEL), Sort(constant, "c.k", MODEL),
            1e-3, MODEL, order="b.k",
        ),
        constant,
    ]


def test_hand_built_plans_cost_their_formulas_bitwise_at_the_branches():
    roots = hand_built()
    program = compile_costs(roots, 2)
    half = 0.5
    points = np.array(
        [
            # The sort's input is 4 * s0 rows: the floor lies at s0 = 0.5.
            [math.nextafter(half, 0.0), 0.3],
            [half, 0.3],
            [math.nextafter(half, 1.0), 0.3],
            # The spill: the inner is 2 * LIMIT * s1 rows.
            [0.7, math.nextafter(half, 0.0)],
            [0.7, half],
            [0.7, math.nextafter(half, 1.0)],
            [0.0, 0.0],
            [1.0, 1.0],
            [0.0, 1.0],
            [1e-5, 0.02],
        ]
    )
    batch = program(points.T)
    formulas = [root.evaluate(points)[1] for root in roots]
    for cost, expected in zip(batch, formulas, strict=True):
        column = cost if isinstance(cost, np.ndarray) else np.full(len(points), cost)
        assert column.tobytes() == expected.tobytes()
    for i, point in enumerate(points):
        for cost, expected in zip(program(point.tolist()), formulas, strict=True):
            assert type(cost) is float
            assert np.float64(cost).tobytes() == expected[i].tobytes()
    # Both sides of both branches were reached.
    sort_input = 4.0 * points[:3, 0]
    assert (sort_input <= 2.0).any() and (sort_input > 2.0).any()
    spill_input = 2.0 * LIMIT * points[3:6, 1]
    assert (spill_input <= LIMIT).any() and (spill_input > LIMIT).any()


class Formula(PlanNode):
    """An operator defined by its ``_evaluate`` alone: ``formula(x,
    rows)`` with ``rows = 1000 * s0`` rows in."""

    def __init__(self, formula) -> None:
        self.formula = formula
        self.model = MODEL
        self.tables = frozenset(("t",))

    def _evaluate(self, x, memo):
        rows = 1000.0 * x[0]
        return rows, self.formula(x, rows)

    def _fields(self) -> tuple:
        return (self.formula,)

    def fingerprint(self) -> str:
        return "Formula(t)"


def capped(x, rows):
    """A branch at 400 rows and an ``np.exp``, as the operators write
    them: a comparison multiplied in."""
    decay = np.exp(-rows / 250.0)
    return (rows > 400.0) * (rows * decay + x[1]) + (rows <= 400.0) * 7.5 - 1.0


def test_an_operator_needs_only_its_evaluate():
    node = Formula(capped)
    program = compile_costs([node], 2)
    points = np.array(
        [[0.0, 0.1], [0.2, 0.9], [0.4, 0.5], [math.nextafter(0.4, 1.0), 0.5],
         [0.7, 0.0], [1.0, 1.0]]
    )
    __, expected = node.evaluate(points)
    (batch,) = program(points.T)
    assert batch.tobytes() == expected.tobytes()
    for i, point in enumerate(points):
        (cost,) = program(point.tolist())
        assert type(cost) is float
        assert np.float64(cost).tobytes() == expected[i].tobytes()
    # Both sides of the branch were reached.
    assert (points[:, 0] * 1000.0 > 400.0).any()
    assert (points[:, 0] * 1000.0 <= 400.0).any()


def unit_factors(x, rows):
    """Folded ``1.0`` factors on both sides of a value, and one on a
    comparison, which stays: at one point ``True * 1.0`` is a float."""
    return 1.0 * (rows * 1.0) + (x[1] > 0.5) * 1.0


def program_source(monkeypatch, roots, degree) -> str:
    """The source :func:`compile_costs` generates for ``roots``."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(operators, "compile", spy, raising=False)
    compile_costs(roots, degree)
    return sources[0]


def test_a_folded_unit_factor_records_nothing(monkeypatch):
    node = Formula(unit_factors)
    source = program_source(monkeypatch, [node], 2)
    assert source.count("1.0") == 1
    assert "((x[1] > 0.5) * 1.0)" in source
    program = compile_costs([node], 2)
    points = np.array([[0.2, 0.9], [0.4, 0.5], [0.7, 0.0], [1.0, 1.0]])
    __, expected = node.evaluate(points)
    (batch,) = program(points.T)
    assert batch.tobytes() == expected.tobytes()
    for i, point in enumerate(points):
        (cost,) = program(point.tolist())
        assert type(cost) is float
        assert np.float64(cost).tobytes() == expected[i].tobytes()


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_no_program_multiplies_by_one(monkeypatch, name):
    """No recorded TPC-H program holds a ``* 1.0`` (or ``1.0 *``), and
    no cost of a batch is a view of the batch's point view."""
    space = plan_space_for(name)
    roots = [plan.root for plan in space.plans]
    source = program_source(monkeypatch, roots, space.dimensions)
    assert re.search(r"\* 1\.0(?![0-9e])|(?<![0-9.e])1\.0 \*", source) is None
    view = space._enumerator.selectivities(parity_points(space)).T
    for cost in compile_costs(roots, space.dimensions)(view):
        assert not np.shares_memory(cost, view)


def python_branch(x, rows):
    return rows * 2.0 if rows > 400.0 else rows


@pytest.mark.parametrize(
    "formula",
    [
        python_branch,
        lambda x, rows: rows**2,
        lambda x, rows: np.maximum(rows, 2.0),
    ],
    ids=["python-if", "power", "np.maximum"],
)
def test_a_formula_the_program_cannot_record_is_refused(formula):
    with pytest.raises(ConfigurationError):
        compile_costs([Formula(formula)], 2)


BAD = [math.nan, math.inf, -math.inf, -0.1, 1.1]


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf", "below", "above"])
def test_a_one_point_call_refuses_a_bad_coordinate(q5_space, bad):
    for axis in range(q5_space.dimensions):
        point = np.full(q5_space.dimensions, 0.5)
        point[axis] = bad
        for shaped in (point, point[None, :], point.tolist()):
            with pytest.raises(OptimizationError, match=r"\[0, 1\]"):
                q5_space.label(shaped)
            with pytest.raises(OptimizationError, match=r"\[0, 1\]"):
                q5_space.cost_at(shaped, 0)
            with pytest.raises(OptimizationError, match=r"\[0, 1\]"):
                q5_space.cost_at(shaped)


@pytest.mark.parametrize("length", [0, 3, 5])
def test_a_one_point_call_refuses_a_wrong_length(q5_space, length):
    point = np.full(length, 0.5)
    for shaped in (point, point[None, :]):
        with pytest.raises(OptimizationError, match="4-dimensional"):
            q5_space.label(shaped)
        with pytest.raises(OptimizationError, match="4-dimensional"):
            q5_space.cost_at(shaped, 0)


def test_the_program_is_built_on_first_use_and_after_plans_change(
    tiny_template, tiny_catalog
):
    space = PlanSpace(tiny_template, tiny_catalog, seed=0)
    assert space._program is None
    point = np.array([0.3, 0.6])
    before = space.cost_matrix(point)
    program = space._program
    assert program is not None
    space.label(point)
    assert space._program is program
    space.plans = space.plans[::-1]
    assert space._program is None
    after = space.cost_matrix(point)
    assert after[::-1].tobytes() == before.tobytes()


def test_a_costed_space_pickles_and_recompiles(q1_space):
    points = np.random.default_rng(3).uniform(0.0, 1.0, (5, 2))
    before = q1_space.cost_matrix(points)
    assert q1_space._program is not None
    restored = pickle.loads(pickle.dumps(q1_space))
    assert restored._program is None
    assert restored.cost_matrix(points).tobytes() == before.tobytes()
    assert q1_space._program is not None


@pytest.mark.parametrize(
    "value", [np.float64(1.0), np.int64(1), True, "1.0", math.inf, math.nan]
)
def test_only_finite_python_numbers_become_source(value):
    with pytest.raises(ConfigurationError):
        _literal(value)
    assert _literal(0.1) == "0.1"
    assert _literal(3) == "3"
