"""Fixed-resolution grid over a rectangular region.

The NAIVE predictor partitions the raw plan space with a single grid;
APPROXIMATE-LSH partitions each randomly transformed space with one.
A grid maps points to integer cell coordinates and flat cell ids, and
exposes the geometric quantities (cell width, cell volume) needed to
convert per-cell point counts into densities.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from repro.exceptions import ConfigurationError


class Grid:
    """Uniform grid with ``resolution`` cells along each of ``dims`` axes."""

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        resolution: int,
    ) -> None:
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ConfigurationError("grid bounds must be 1-D and aligned")
        if (self.hi <= self.lo).any():
            raise ConfigurationError("grid upper bound must exceed lower bound")
        if resolution < 1:
            raise ConfigurationError("grid resolution must be >= 1")
        self.dims = self.lo.shape[0]
        self.resolution = resolution
        self.cell_widths = (self.hi - self.lo) / resolution

    @property
    def total_cells(self) -> int:
        return self.resolution**self.dims

    def cell_coords(self, points: np.ndarray) -> np.ndarray:
        """Integer cell coordinates ``(n, dims)`` of each point (clipped)."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        relative = (points - self.lo) / self.cell_widths
        return np.clip(relative.astype(np.int64), 0, self.resolution - 1)

    def cell_ids(self, points: np.ndarray) -> np.ndarray:
        """Flattened (row-major) cell ids ``(n,)`` of each point."""
        coords = self.cell_coords(points)
        ids = np.zeros(coords.shape[0], dtype=np.int64)
        for axis in range(self.dims):
            ids = ids * self.resolution + coords[:, axis]
        return ids

    def unit_coords(self, points: np.ndarray) -> np.ndarray:
        """Rescale points into the unit cube (for z-order linearization)."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        unit = (points - self.lo) / (self.hi - self.lo)
        return np.clip(unit, 0.0, np.nextafter(1.0, 0.0))

    def neighbor_ids(self, point: np.ndarray, radius: float) -> Iterator[int]:
        """Flat ids of all cells intersecting the ball around ``point``.

        Used by the NAIVE predictor when a query ball spills beyond the
        containing bucket.  Iterates the (small) hyper-rectangle of
        cells covering the ball's bounding box.
        """
        point = np.asarray(point, dtype=float)
        lo_coords = self.cell_coords(point - radius)[0]
        hi_coords = self.cell_coords(point + radius)[0]
        ranges = [
            range(int(lo_coords[axis]), int(hi_coords[axis]) + 1)
            for axis in range(self.dims)
        ]
        for coords in itertools.product(*ranges):
            flat = 0
            for axis in range(self.dims):
                flat = flat * self.resolution + coords[axis]
            yield flat
