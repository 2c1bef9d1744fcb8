"""StackedEnsemble mirrors the per-transform path bit for bit.

The struct-of-arrays view exists purely for throughput: every value it
produces must be bitwise equal to looping the individual
``PlanSpaceTransform`` / ``Grid`` / ``ZOrderCurve`` operations, or the
scalar/batch parity guarantee upstream falls apart.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.lsh import Grid, StackedEnsemble, TransformEnsemble, ZOrderCurve
from repro.workload import sample_points


def _build(transforms=5, dims=2, resolution=8, seed=3, output_dims=None):
    ensemble = TransformEnsemble(
        transforms,
        dims,
        output_dims=output_dims,
        resolution=resolution,
        seed=seed,
    )
    grids = [
        Grid(*transform.output_bounds, resolution)
        for transform in ensemble
    ]
    return ensemble, grids


class TestTransform:
    @pytest.mark.parametrize("dims", [2, 3, 4, 8, 12])
    def test_bitwise_equal_to_per_transform_apply(self, dims):
        ensemble, grids = _build(dims=dims, seed=dims)
        stacked = StackedEnsemble(ensemble, grids)
        points = sample_points(dims, 50, seed=7)
        transformed = stacked.transform(points)
        assert transformed.shape == (
            len(ensemble),
            50,
            stacked.output_dims,
        )
        for i, transform in enumerate(ensemble):
            assert np.array_equal(transformed[i], transform.apply(points))

    def test_batch_of_one_equals_row_of_batch(self):
        """The parity keystone: a 1-point batch computes the exact bits
        of the same point inside a larger batch."""
        ensemble, grids = _build()
        stacked = StackedEnsemble(ensemble, grids)
        points = sample_points(2, 30, seed=8)
        full = stacked.transform(points)
        for j in [0, 13, 29]:
            single = stacked.transform(points[j : j + 1])
            assert np.array_equal(single[:, 0, :], full[:, j, :])

    def test_origin_and_boundaries(self):
        ensemble, grids = _build()
        stacked = StackedEnsemble(ensemble, grids)
        points = np.array(
            [[0.5, 0.5], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        )
        transformed = stacked.transform(points)
        for i, transform in enumerate(ensemble):
            assert np.array_equal(transformed[i], transform.apply(points))


class TestCellIds:
    def test_bitwise_equal_to_grid_cell_ids(self):
        ensemble, grids = _build()
        stacked = StackedEnsemble(ensemble, grids)
        points = sample_points(2, 80, seed=9)
        ids = stacked.cell_ids(points)
        assert ids.dtype == np.int64
        for i, (transform, grid) in enumerate(
            zip(ensemble, grids, strict=True)
        ):
            assert np.array_equal(
                ids[i], grid.cell_ids(transform.apply(points))
            )

    def test_out_of_grid_points_clip_like_grid(self):
        ensemble, grids = _build()
        stacked = StackedEnsemble(ensemble, grids)
        points = np.array([[-3.0, 5.0], [10.0, -10.0]])
        ids = stacked.cell_ids(points)
        for i, (transform, grid) in enumerate(
            zip(ensemble, grids, strict=True)
        ):
            assert np.array_equal(
                ids[i], grid.cell_ids(transform.apply(points))
            )


class TestZValues:
    def test_bitwise_equal_to_unit_coords_plus_linearize(self):
        ensemble, grids = _build(resolution=16)
        curve = ZOrderCurve(2, 4)
        stacked = StackedEnsemble(ensemble, grids, curve=curve)
        points = sample_points(2, 80, seed=10)
        z_values = stacked.z_values(points)
        for i, (transform, grid) in enumerate(
            zip(ensemble, grids, strict=True)
        ):
            expected = curve.linearize(
                grid.unit_coords(transform.apply(points))
            )
            assert np.array_equal(z_values[i], expected)

    def test_requires_a_curve(self):
        ensemble, grids = _build()
        stacked = StackedEnsemble(ensemble, grids)
        with pytest.raises(ConfigurationError):
            stacked.z_values(sample_points(2, 4, seed=0))


class TestValidation:
    def test_grid_count_must_match_ensemble(self):
        ensemble, grids = _build()
        with pytest.raises(ConfigurationError):
            StackedEnsemble(ensemble, grids[:-1])
