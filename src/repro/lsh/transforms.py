"""Randomized locality-preserving geometrical transformations.

Section IV-B of the paper transforms the plan-space points before grid
partitioning so that several independently randomized grids can be
intersected, de-correlating bucket-misalignment errors.  One transform
performs, in order:

1. translate the unit cube ``[0, 1]^r`` by ``(-0.5, ..., -0.5)``;
2. scale so the cube's vertices lie on the hypersphere ``S`` of radius
   ``lambda``, where ``lambda`` is chosen so that ``S`` has the same
   volume as ``[-1, 1]^r``;
3. stretch points radially until the cube fills the volume of ``S``
   (minimizing the shrinking effect of the projection step);
4. project onto ``s`` random unit vectors whose components are drawn
   from a standard normal distribution;
5. shift each projected coordinate by a translation drawn from a small
   interval (a fraction of one grid cell).

Unlike Tao et al.'s nearest-neighbor setting, plan caching tolerates
non-nearby points hashing together, so the paper keeps ``s = r`` for
low dimensions (``s < r`` only for dimensionality reduction) and draws
the translations from a much smaller interval.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng import as_generator


def hypersphere_radius(dims: int) -> float:
    """Radius of the ``dims``-sphere with the volume of ``[-1, 1]^dims``.

    Solves ``c_r * radius**r = 2**r`` with
    ``c_r = pi**(r/2) / Gamma(r/2 + 1)``.
    """
    if dims < 1:
        raise ConfigurationError("dimension must be >= 1")
    unit_ball_volume = math.pi ** (dims / 2.0) / math.gamma(dims / 2.0 + 1.0)
    return 2.0 * unit_ball_volume ** (-1.0 / dims)


class PlanSpaceTransform:
    """One randomized transformation ``[0, 1]^r -> R^s``."""

    def __init__(
        self,
        input_dims: int,
        output_dims: int | None = None,
        resolution: int = 16,
        translation_fraction: float = 1.0,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if input_dims < 1:
            raise ConfigurationError("input_dims must be >= 1")
        self.input_dims = input_dims
        self.output_dims = output_dims if output_dims is not None else input_dims
        if self.output_dims < 1 or self.output_dims > input_dims:
            raise ConfigurationError(
                "output_dims must lie in [1, input_dims] "
                "(s = r normally, s < r for dimensionality reduction)"
            )
        if resolution < 1:
            raise ConfigurationError("resolution must be >= 1")
        rng = as_generator(seed)

        self.radius = hypersphere_radius(input_dims)
        self.cube_half_width = self.radius / math.sqrt(input_dims)

        directions = rng.standard_normal((self.output_dims, input_dims))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        self.directions = directions / norms

        # Projected coordinates lie in [-radius, radius]; the grid divides
        # that span into `resolution` cells, and translations are a small
        # fraction of one cell width.
        cell_width = 2.0 * self.radius / resolution
        self.translations = rng.uniform(
            0.0, translation_fraction * cell_width, size=self.output_dims
        )
        self.resolution = resolution

    @classmethod
    def from_arrays(
        cls,
        input_dims: int,
        output_dims: int,
        resolution: int,
        directions: np.ndarray,
        translations: np.ndarray,
    ) -> "PlanSpaceTransform":
        """Reconstruct a transform from persisted direction/translation
        arrays (exact round-trip for predictor serialization)."""
        transform = cls(
            input_dims, output_dims=output_dims, resolution=resolution, seed=0
        )
        directions = np.asarray(directions, dtype=float)
        translations = np.asarray(translations, dtype=float)
        if directions.shape != (output_dims, input_dims):
            raise ConfigurationError("direction matrix shape mismatch")
        if translations.shape != (output_dims,):
            raise ConfigurationError("translation vector shape mismatch")
        transform.directions = directions
        transform.translations = translations
        return transform

    # ------------------------------------------------------------------
    # Pipeline stages (exposed separately for testing)
    # ------------------------------------------------------------------
    def center_and_scale(self, points: np.ndarray) -> np.ndarray:
        """Stages 1-2: map ``[0, 1]^r`` onto the hypercube inscribed in S."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        if points.shape[1] != self.input_dims:
            raise ConfigurationError(
                f"expected {self.input_dims}-dimensional points"
            )
        return (points - 0.5) * (2.0 * self.cube_half_width)

    def stretch(self, centered: np.ndarray) -> np.ndarray:
        """Stage 3: radial stretch of the hypercube onto the ball.

        A point on the cube surface (``max_i |p_i| = cube_half_width``)
        lands exactly on the sphere of radius ``radius``; interior
        points scale linearly along their ray.  The norm sums its
        squares left to right over the ``r`` axes.
        """
        squares = np.zeros(centered.shape[0])
        for i in range(self.input_dims):
            squares += centered[:, i] * centered[:, i]
        norms = np.sqrt(squares)
        max_components = np.abs(centered).max(axis=1)
        factors = np.ones_like(norms)
        nonzero = norms > 0.0
        factors[nonzero] = (
            self.radius
            * max_components[nonzero]
            / (self.cube_half_width * norms[nonzero])
        )
        return centered * factors[:, None]

    def project(self, stretched: np.ndarray) -> np.ndarray:
        """Stages 4-5: random unit-vector projection plus translation.

        Each dot product is a left-to-right loop of elementwise
        multiply-adds over the ``r`` axes from ``0.0``, not a BLAS
        ``@`` or a numpy reduction: gemv/gemm may round dot products
        differently depending on the batch shape, and a reduction's
        order is numpy's to choose.  The scalar/batch parity contract
        requires each point's projection to be bitwise independent of
        how many points it is batched with, and equal to the stacked
        fast path in :mod:`repro.lsh.stacked`, which writes the same
        loop.
        """
        projected = np.zeros((stretched.shape[0], self.output_dims))
        for i in range(self.input_dims):
            projected += stretched[:, i, None] * self.directions[:, i]
        return projected + self.translations

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Full pipeline: unit-cube points ``(n, r)`` to ``(n, s)``."""
        return self.project(self.stretch(self.center_and_scale(points)))

    @property
    def output_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounding box guaranteed to contain all transformed points."""
        margin = self.translations
        lo = np.full(self.output_dims, -self.radius)
        hi = np.full(self.output_dims, self.radius) + margin
        return lo, hi


class TransformEnsemble:
    """The ``t`` independent transforms used by APPROXIMATE-LSH.

    Each member has independently drawn directions and translations;
    the predictor intersects their density estimates by taking the
    median (Section IV-B).
    """

    def __init__(
        self,
        count: int,
        input_dims: int,
        output_dims: int | None = None,
        resolution: int = 16,
        translation_fraction: float = 1.0,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if count < 1:
            raise ConfigurationError("ensemble needs at least one transform")
        rng = as_generator(seed)
        self.transforms = [
            PlanSpaceTransform(
                input_dims,
                output_dims=output_dims,
                resolution=resolution,
                translation_fraction=translation_fraction,
                seed=child,
            )
            for child in rng.spawn(count)
        ]

    def __len__(self) -> int:
        return len(self.transforms)

    def __iter__(self):
        return iter(self.transforms)

    def apply_all(self, points: np.ndarray) -> list[np.ndarray]:
        """Transform the same points through every ensemble member."""
        return [transform.apply(points) for transform in self.transforms]
