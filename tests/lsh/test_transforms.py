"""Locality-preserving transform pipeline (Section IV-B)."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.lsh.transforms import (
    PlanSpaceTransform,
    TransformEnsemble,
    hypersphere_radius,
)


class TestHypersphereRadius:
    def test_dimension_one(self):
        # 1-ball of radius r has volume 2r; [-1, 1] has volume 2 -> r = 1.
        assert hypersphere_radius(1) == pytest.approx(1.0)

    def test_dimension_two(self):
        # pi r^2 = 4 -> r = 2 / sqrt(pi).
        assert hypersphere_radius(2) == pytest.approx(2.0 / math.sqrt(math.pi))

    def test_radius_grows_with_dimension(self):
        radii = [hypersphere_radius(r) for r in range(1, 8)]
        assert all(a < b for a, b in zip(radii, radii[1:], strict=False))

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            hypersphere_radius(0)


class TestPipelineStages:
    def test_center_and_scale_maps_cube_vertices_to_sphere(self):
        transform = PlanSpaceTransform(2, seed=0)
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        scaled = transform.center_and_scale(corners)
        norms = np.linalg.norm(scaled, axis=1)
        assert norms == pytest.approx(transform.radius, rel=1e-12)

    def test_center_maps_centre_to_origin(self):
        transform = PlanSpaceTransform(3, seed=0)
        centre = transform.center_and_scale(np.full((1, 3), 0.5))
        assert np.abs(centre).max() < 1e-12

    def test_stretch_fixes_cube_surface_on_sphere(self):
        transform = PlanSpaceTransform(2, seed=0)
        # A point on the cube surface but not a vertex.
        surface = np.array([[transform.cube_half_width, 0.1]])
        stretched = transform.stretch(surface)
        assert np.linalg.norm(stretched[0]) == pytest.approx(transform.radius)

    def test_stretch_keeps_origin(self):
        transform = PlanSpaceTransform(2, seed=0)
        assert np.abs(transform.stretch(np.zeros((1, 2)))).max() == 0.0

    def test_stretch_is_radial(self):
        transform = PlanSpaceTransform(3, seed=0)
        point = np.array([[0.2, -0.1, 0.05]])
        stretched = transform.stretch(point)
        cross = np.cross(point[0], stretched[0])
        assert np.abs(cross).max() < 1e-12

    def test_projection_dimensions(self):
        transform = PlanSpaceTransform(4, output_dims=2, seed=0)
        out = transform.apply(np.random.default_rng(0).uniform(0, 1, (10, 4)))
        assert out.shape == (10, 2)

    def test_direction_vectors_are_unit(self):
        transform = PlanSpaceTransform(5, seed=3)
        norms = np.linalg.norm(transform.directions, axis=1)
        assert norms == pytest.approx(np.ones(5))

    def test_output_within_declared_bounds(self):
        transform = PlanSpaceTransform(3, seed=1)
        points = np.random.default_rng(1).uniform(0, 1, (500, 3))
        out = transform.apply(points)
        lo, hi = transform.output_bounds
        assert (out >= lo - 1e-9).all()
        assert (out <= hi + 1e-9).all()

    def test_translations_bounded_by_cell_fraction(self):
        resolution = 10
        transform = PlanSpaceTransform(
            2, resolution=resolution, translation_fraction=1.0, seed=2
        )
        cell = 2.0 * transform.radius / resolution
        assert (transform.translations >= 0.0).all()
        assert (transform.translations <= cell).all()

    def test_locality_preserved(self):
        """Close points stay close relative to far points."""
        transform = PlanSpaceTransform(2, seed=4)
        base = np.array([[0.3, 0.3]])
        near = np.array([[0.32, 0.31]])
        far = np.array([[0.9, 0.85]])
        b, n, f = (transform.apply(p)[0] for p in (base, near, far))
        assert np.linalg.norm(b - n) < np.linalg.norm(b - f)

    def test_invalid_output_dims(self):
        with pytest.raises(ConfigurationError):
            PlanSpaceTransform(2, output_dims=3)
        with pytest.raises(ConfigurationError):
            PlanSpaceTransform(2, output_dims=0)

    def test_dimension_mismatch_rejected(self):
        transform = PlanSpaceTransform(2, seed=0)
        with pytest.raises(ConfigurationError):
            transform.apply(np.zeros((3, 4)))


class TestEnsemble:
    def test_members_differ(self):
        ensemble = TransformEnsemble(3, 2, seed=0)
        d0 = ensemble.transforms[0].directions
        d1 = ensemble.transforms[1].directions
        assert not np.allclose(d0, d1)

    def test_deterministic_under_seed(self):
        a = TransformEnsemble(3, 2, seed=5)
        b = TransformEnsemble(3, 2, seed=5)
        points = np.random.default_rng(0).uniform(0, 1, (20, 2))
        for ta, tb in zip(a, b, strict=True):
            assert np.allclose(ta.apply(points), tb.apply(points))

    def test_apply_all_shapes(self):
        ensemble = TransformEnsemble(4, 3, seed=0)
        outputs = [transform.apply(np.zeros((7, 3))) for transform in ensemble]
        assert len(outputs) == 4
        assert all(out.shape == (7, 3) for out in outputs)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ConfigurationError):
            TransformEnsemble(0, 2)
