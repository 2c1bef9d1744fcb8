"""Struct-of-arrays fast path over a transform ensemble.

The predictors of Section IV evaluate the same point under ``t``
independently randomized transforms.  Looping Python over the ensemble
costs ``t`` interpreter round-trips per prediction; this module
flattens the per-transform direction matrices, translations and grid
bounds into contiguous arrays so one numpy pass answers *all* ``t``
transforms for a whole point batch at once — the layout behind
``predict_batch`` being the primitive.

Numerical contract: every reduction runs along the trailing axis of a
contiguous array, so each output element is computed from its own data
strip regardless of how many points (or transforms) ride in the batch.
That makes a batch of one bitwise identical to any row of a larger
batch, which is what lets scalar ``predict`` delegate to the batch core
without perturbing seeded experiment results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError

#: Largest float below 1: the top of the unit interval z_values clips to.
_BELOW_ONE = float(np.nextafter(1.0, 0.0))

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsh.grid import Grid
    from repro.lsh.transforms import TransformEnsemble
    from repro.lsh.zorder import ZOrderCurve


class StackedEnsemble:
    """Columnar view of a :class:`TransformEnsemble` plus its grids.

    Holds the ``t`` direction matrices stacked into one ``(t*s, r)``
    block and the grid bounds/cell widths as ``(t, s)`` arrays.  The
    view is derived state: rebuild it (predictors do, via their
    ``_rebuild_stacked`` hook) whenever the underlying transforms or
    grids are replaced wholesale, e.g. by persistence restore.
    """

    def __init__(
        self,
        ensemble: "TransformEnsemble",
        grids: "list[Grid]",
        curve: "ZOrderCurve | None" = None,
    ) -> None:
        transforms = list(ensemble)
        if len(transforms) != len(grids):
            raise ConfigurationError(
                "stacked ensemble needs one grid per transform"
            )
        first = transforms[0]
        self.count = len(transforms)
        self.input_dims = first.input_dims
        self.output_dims = first.output_dims
        self.radius = first.radius
        self.cube_half_width = first.cube_half_width
        for transform in transforms:
            if (
                transform.input_dims != self.input_dims
                or transform.output_dims != self.output_dims
            ):
                raise ConfigurationError(
                    "ensemble members must share input/output dimensions"
                )
        self.directions = np.concatenate(
            [transform.directions for transform in transforms], axis=0
        )
        self.translations = np.concatenate(
            [transform.translations for transform in transforms]
        )
        self.grid_lo = np.stack([grid.lo for grid in grids])
        self.grid_span = np.stack([grid.hi - grid.lo for grid in grids])
        self.cell_widths = np.stack([grid.cell_widths for grid in grids])
        self.resolution = grids[0].resolution
        self.curve = curve

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Unit-cube points ``(m, r)`` to ``(t, m, s)`` coordinates.

        Stages 1-3 (center, scale, radial stretch) depend only on the
        input dimensionality, so they run once and feed all ``t``
        projections; stages 4-5 run as one stacked multiply-sum.
        """
        points = np.asarray(points, dtype=float)
        centered = (points - 0.5) * (2.0 * self.cube_half_width)
        # np.linalg.norm(centered, axis=1), bit for bit, without its
        # per-call dispatch.
        norms = np.sqrt(np.add.reduce(centered * centered, axis=1))
        max_components = np.maximum.reduce(np.abs(centered), axis=1)
        factors = np.divide(
            self.radius * max_components,
            self.cube_half_width * norms,
            out=np.ones_like(norms),
            where=norms > 0.0,
        )
        stretched = centered * factors[:, None]
        # Explicit multiply + trailing-axis sum instead of BLAS `@`:
        # gemv/gemm may round dot products differently across batch
        # shapes, and the parity contract forbids that.
        projected = np.add.reduce(
            stretched[:, None, :] * self.directions[None, :, :], axis=2
        )
        projected += self.translations
        return projected.reshape(
            points.shape[0], self.count, self.output_dims
        ).transpose(1, 0, 2)

    def cell_ids(self, points: np.ndarray) -> np.ndarray:
        """Flat (row-major) grid cell ids ``(t, m)`` of each point."""
        transformed = self.transform(points)
        relative = (
            transformed - self.grid_lo[:, None, :]
        ) / self.cell_widths[:, None, :]
        coords = np.clip(
            relative.astype(np.int64), 0, self.resolution - 1
        )
        ids = np.zeros(coords.shape[:2], dtype=np.int64)
        for axis in range(self.output_dims):
            ids = ids * self.resolution + coords[..., axis]
        return ids

    def z_values(self, points: np.ndarray) -> np.ndarray:
        """Normalized z-order values ``(t, m)`` of each point."""
        if self.curve is None:
            raise ConfigurationError(
                "stacked ensemble was built without a z-order curve"
            )
        unit = self.transform(points) - self.grid_lo[:, None, :]
        unit /= self.grid_span[:, None, :]
        # np.clip's wrapper costs more than the clip on a small batch.
        np.maximum(unit, 0.0, out=unit)
        np.minimum(unit, _BELOW_ONE, out=unit)
        flat = unit.reshape(-1, self.output_dims)
        return self.curve.linearize(flat).reshape(self.count, -1)
