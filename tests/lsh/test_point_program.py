"""The one-point z program is the stacked pass, bit for bit.

:meth:`StackedEnsemble.z_values` hands a one-row batch to a compiled
straight-line function (``stacked.compile_point``) and any other batch
to the stacked numpy pass.  The two renderings must agree on every
projection bit (compiled with a projection ``return``) and every
z-value: on the predictors the TPC-H sessions build (Q0-Q8) and on
hand-built ensembles that reach what those do not — one to twelve
input dimensions, where a numpy reduction would stop adding left to
right from eight terms on; fewer output than input dimensions; and a
curve whose codes pass 2**53.  Points include the cube's corners and centre (the
zero-norm branch), the floats on either side of a cell boundary, and
coordinates that land exactly on a cell boundary or on the clip edges.

A restored or copied predictor compiles its own program from its own
transforms.  Any one-row batch of the ensemble's width runs the
program, however wide.  A dropped program, z or cost, is freed at once: it holds
no reference cycle for the collector to find.
"""

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PPCConfig
from repro.core.framework import TemplateSession
from repro.core.histogram_predictor import HistogramPredictor
from repro.core.persistence import dumps_predictor, loads_predictor
from repro.core.point import SamplePool
from repro.exceptions import ConfigurationError
from repro.lsh import Grid, StackedEnsemble, TransformEnsemble, ZOrderCurve
from repro.lsh.stacked import compile_point
from repro.optimizer.operators import compile_costs
from repro.tpch import TEMPLATE_NAMES, plan_space_for
from repro.workload import sample_points

_PREDICTORS: dict[str, StackedEnsemble] = {}


def template_stacked(name: str) -> StackedEnsemble:
    """The stacked view of the predictor a default session builds."""
    if name not in _PREDICTORS:
        session = TemplateSession(plan_space_for(name), PPCConfig(), seed=7)
        _PREDICTORS[name] = session.predictor._stacked
    return _PREDICTORS[name]


def hand_built(
    dims: int,
    output_dims: "int | None" = None,
    bits: int = 4,
    transforms: int = 3,
    seed: int = 0,
) -> StackedEnsemble:
    ensemble = TransformEnsemble(
        transforms, dims, output_dims=output_dims, resolution=16, seed=seed
    )
    grids = [Grid(*transform.output_bounds, 16) for transform in ensemble]
    width = ensemble.transforms[0].output_dims
    return StackedEnsemble(
        ensemble, grids, curve=ZOrderCurve(width, min(bits, 62 // width))
    )


def assert_parity(stacked: StackedEnsemble, points: np.ndarray) -> None:
    """Program == stacked pass on every point of ``points`` (at least
    two, so the whole batch runs the stacked pass)."""
    points = np.asarray(points, dtype=float)
    assert points.shape[0] >= 2
    projections = stacked.transform(points).transpose(1, 0, 2)
    z_values = stacked.z_values(points)
    project = compile_point(stacked, projections=True)
    for i, point in enumerate(points):
        program = np.array(project(*point.tolist()))
        assert program.tobytes() == projections[i].ravel().tobytes(), i
        one = stacked.z_values(point[None, :])
        assert one.shape == (stacked.count, 1)
        assert one.tobytes() == z_values[:, i:i + 1].tobytes(), i
    assert stacked._program is not None


def corners(dims: int) -> np.ndarray:
    """The all-0, all-1 and all-0.5 points (the last: zero norm)."""
    return np.array([np.zeros(dims), np.ones(dims), np.full(dims, 0.5)])


def straddling(stacked: StackedEnsemble, lines: int, seed: int) -> np.ndarray:
    """Adjacent floats on either side of a cell boundary: along random
    segments through the cube, bisect the first transform's z-value
    down to neighbouring points whose z-values differ."""
    rng = np.random.default_rng(seed)
    points = []
    for __ in range(lines):
        start, end = rng.random((2, stacked.input_dims))

        def at(t):
            return start + t * (end - start)

        lo, hi = 0.0, 1.0
        z_lo = stacked.z_values(at(lo)[None, :])[0, 0]
        if stacked.z_values(at(hi)[None, :])[0, 0] == z_lo:
            continue
        while np.nextafter(lo, hi) < hi:
            middle = 0.5 * (lo + hi)
            if stacked.z_values(at(middle)[None, :])[0, 0] == z_lo:
                lo = middle
            else:
                hi = middle
        points += [at(lo), at(hi)]
    return np.array(points)


def edged(stacked: StackedEnsemble, point: np.ndarray) -> list[StackedEnsemble]:
    """Copies of ``stacked`` whose first grid axis is moved so that
    ``point``'s first coordinate lands exactly where the z pass
    branches: on a cell boundary (``u * cells`` an integer), on the
    lower clip edge (``u == 0``), on the upper one (``u == 1``, clipped
    to the float below 1), just past it, and below the grid."""
    projected = float(stacked.transform(point[None, :])[0, 0, 0])
    assert projected >= 0.25
    cells = float(stacked.curve.cells_per_axis)
    step = 2.0 ** -4
    cases = [
        (projected - step, 1.0, lambda u: u * cells == cells * step),
        (projected, 1.0, lambda u: u == 0.0),
        (projected - step, step, lambda u: u == 1.0),
        (projected - step, float(np.nextafter(step, 0.0)), lambda u: u > 1.0),
        (projected + step, 1.0, lambda u: u < 0.0),
    ]
    copies = []
    for lo, span, lands in cases:
        moved = copy.deepcopy(stacked)
        moved.grid_lo[0, 0] = lo
        moved.grid_span[0, 0] = span
        assert lands((projected - lo) / span)
        copies.append(moved)
    return copies


def positive_first_projection(stacked: StackedEnsemble) -> np.ndarray:
    """A cube point whose first projection is at least 0.25."""
    for point in sample_points(stacked.input_dims, 200, seed=5):
        if stacked.transform(point[None, :])[0, 0, 0] >= 0.25:
            return point
    raise AssertionError("no point projects past 0.25")


def unit_points(dims: int) -> st.SearchStrategy:
    return st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=dims, max_size=dims
    )


class TestTemplatePredictors:
    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    def test_corners_straddles_and_uniform_points(self, name):
        stacked = template_stacked(name)
        dims = stacked.input_dims
        assert_parity(
            stacked,
            np.vstack([
                corners(dims),
                sample_points(dims, 300, seed=11),
                straddling(stacked, 8, seed=12),
            ]),
        )

    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_point(self, name, data):
        stacked = template_stacked(name)
        point = data.draw(unit_points(stacked.input_dims))
        assert_parity(stacked, np.array([point, point]))

    @pytest.mark.parametrize("name", ["Q1", "Q5", "Q7"])
    def test_exact_cell_boundaries_and_clip_edges(self, name):
        stacked = template_stacked(name)
        point = positive_first_projection(stacked)
        for moved in edged(stacked, point):
            assert_parity(moved, np.vstack([point, corners(moved.input_dims)]))


class TestHandBuiltEnsembles:
    @pytest.mark.parametrize("dims", range(1, 13))
    def test_one_to_twelve_dimensions(self, dims):
        stacked = hand_built(dims, seed=dims)
        assert_parity(
            stacked,
            np.vstack([
                corners(dims),
                sample_points(dims, 200, seed=dims),
                straddling(stacked, 4, seed=dims),
            ]),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_any_point_any_ensemble(self, dims, seed, data):
        output_dims = data.draw(st.integers(1, dims))
        stacked = hand_built(dims, output_dims, seed=seed)
        point = data.draw(unit_points(dims))
        assert_parity(stacked, np.array([point, corners(dims)[2]]))

    @pytest.mark.parametrize(("dims", "output_dims"), [(3, 1), (6, 2), (12, 5)])
    def test_fewer_output_dimensions(self, dims, output_dims):
        stacked = hand_built(dims, output_dims, seed=dims)
        assert_parity(
            stacked, np.vstack([corners(dims), sample_points(dims, 200, seed=3)])
        )

    def test_codes_past_two_to_the_53(self):
        stacked = hand_built(4, bits=15, seed=4)
        assert stacked.curve.total_codes == 2**60
        points = sample_points(4, 300, seed=4)
        z_values = stacked.z_values(points)
        codes = np.round(z_values * 2.0**60).astype(np.int64)
        assert (codes > 2**53).any()
        assert_parity(stacked, np.vstack([corners(4), points]))

    def test_points_outside_the_cube_clip_alike(self):
        stacked = hand_built(3, seed=9)
        points = sample_points(3, 100, seed=9) * 8.0 - 4.0
        unit = (
            stacked.transform(points) - stacked.grid_lo[:, None, :]
        ) / stacked.grid_span[:, None, :]
        assert (unit < 0.0).any() and (unit > 1.0).any()
        assert_parity(stacked, points)

    def test_exact_cell_boundaries_and_clip_edges(self):
        stacked = hand_built(9, seed=2)
        point = positive_first_projection(stacked)
        for moved in edged(stacked, point):
            assert_parity(moved, np.vstack([point, corners(9)]))


class TestWhereTheProgramRuns:
    def test_only_a_one_row_batch_compiles_it(self):
        stacked = hand_built(2)
        stacked.z_values(sample_points(2, 5, seed=0))
        assert stacked._program is None
        stacked.z_values(sample_points(2, 1, seed=0))
        assert stacked._program is not None

    def test_a_wide_one_row_batch_runs_the_program(self):
        stacked = hand_built(129, output_dims=2, transforms=2)
        points = sample_points(129, 2, seed=0)
        block = stacked.z_values(points)
        one = stacked.z_values(points[:1])
        assert stacked._program is not None
        assert one.tobytes() == block[:, :1].tobytes()

    def test_a_non_finite_constant_is_refused(self):
        stacked = hand_built(2)
        stacked.translations[1] = np.nan
        with pytest.raises(ConfigurationError, match="finite number"):
            stacked.z_values(sample_points(2, 1, seed=0))

    def test_without_a_curve_it_still_refuses(self):
        ensemble = TransformEnsemble(2, 2, resolution=16, seed=0)
        grids = [Grid(*transform.output_bounds, 16) for transform in ensemble]
        stacked = StackedEnsemble(ensemble, grids)
        with pytest.raises(ConfigurationError, match="without a z-order curve"):
            stacked.z_values(sample_points(2, 1, seed=0))


def z_program():
    return compile_point(template_stacked("Q1"))


def cost_program():
    space = plan_space_for("Q1")
    return compile_costs([plan.root for plan in space.plans], space.dimensions)


@pytest.mark.parametrize("build", [z_program, cost_program], ids=["z", "cost"])
def test_a_dropped_program_is_freed_without_the_collector(build):
    enabled = gc.isenabled()
    gc.disable()
    try:
        program = weakref.ref(build())
        assert program() is None
    finally:
        if enabled:
            gc.enable()


def trained(seed: int) -> HistogramPredictor:
    predictor = HistogramPredictor(
        SamplePool(3), plan_count=2, histogram_kind="incremental", seed=seed
    )
    for i, point in enumerate(sample_points(3, 40, seed=seed)):
        predictor.insert(point, i % 2, 1.0 + i)
    return predictor


class TestRestoreAndCopy:
    def test_a_restore_serves_the_restored_transforms(self, monkeypatch):
        """The restore builds a predictor on seed-0 transforms, swaps in
        the saved ones and rebuilds the stacked view.  Even if the
        seed-0 view had compiled its program, the restored predictor
        answers with the saved directions."""
        rebuild = HistogramPredictor._rebuild_stacked

        def compiling(self):
            rebuild(self)
            self._stacked.z_values(np.full((1, self.dimensions), 0.3))
            assert self._stacked._program is not None

        saved = trained(seed=5)
        text = dumps_predictor(saved)
        monkeypatch.setattr(HistogramPredictor, "_rebuild_stacked", compiling)
        restored = loads_predictor(text)
        points = sample_points(3, 50, seed=6)
        seed_zero = HistogramPredictor(
            SamplePool(3), plan_count=2, histogram_kind="incremental", seed=0
        )
        assert not np.array_equal(
            seed_zero.z_values(points), saved.z_values(points)
        )
        for point in points:
            one = restored.z_values(point[None, :])
            assert one.tobytes() == saved.z_values(point[None, :]).tobytes()
        assert restored.z_values(points).tobytes() == (
            saved.z_values(points).tobytes()
        )

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_copy_recompiles_on_use(self, clone):
        predictor = trained(seed=8)
        point = sample_points(3, 1, seed=9)
        expected = predictor.z_values(point)
        assert predictor._stacked._program is not None
        copied = clone(predictor)
        assert copied._stacked._program is None
        assert copied.z_values(point).tobytes() == expected.tobytes()
        assert copied._stacked._program is not None
        assert copied._stacked._program is not predictor._stacked._program
