"""Figures 2, 5, 6 and 7: the illustrative data behind the paper's plots.

These experiments produce the raw material of the paper's qualitative
figures: the plan diagram of a two-parameter template (Figure 2), the
geometry of the randomized transforms (Figure 5), the z-order
linearized per-plan distributions (Figure 6) and a sample
random-trajectories workload (Figure 7).  Each returns printable data;
the plan diagram additionally renders as ASCII art.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.lsh.grid import Grid
from repro.lsh.transforms import PlanSpaceTransform
from repro.lsh.zorder import ZOrderCurve
from repro.tpch import plan_space_for
from repro.workload import sample_points

_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass
class PlanDiagram:
    """A rasterized 2-D plan diagram."""

    template: str
    resolution: int
    cells: np.ndarray  # (resolution, resolution) plan ids
    plan_fractions: dict[int, float]

    def render(self) -> str:
        """ASCII rendering, one glyph per plan, origin bottom-left."""
        lines = []
        for row in range(self.resolution - 1, -1, -1):
            glyphs = [
                _GLYPHS[int(p) % len(_GLYPHS)] for p in self.cells[row]
            ]
            lines.append("".join(glyphs))
        return "\n".join(lines)


def plan_diagram(template: str = "Q1", resolution: int = 48) -> PlanDiagram:
    """Figure 2: rasterize a two-parameter template's plan space."""
    plan_space = plan_space_for(template)
    if plan_space.dimensions != 2:
        raise ConfigurationError(
            "plan diagrams require a two-parameter template"
        )
    axis = (np.arange(resolution) + 0.5) / resolution
    xs, ys = np.meshgrid(axis, axis)
    points = np.column_stack([xs.ravel(), ys.ravel()])
    ids = plan_space.plan_at(points)
    cells = ids.reshape(resolution, resolution)
    unique, counts = np.unique(ids, return_counts=True)
    fractions = {
        int(u): float(c) / ids.size for u, c in zip(unique, counts, strict=True)
    }
    return PlanDiagram(template, resolution, cells, fractions)


@dataclass(frozen=True)
class TransformView:
    """Figure 5: one randomized transform applied to labeled samples."""

    transform_index: int
    projected: np.ndarray  # (n, s)
    cell_ids: np.ndarray  # (n,)
    plan_ids: np.ndarray  # (n,)


def transform_views(
    template: str = "Q1",
    transforms: int = 3,
    samples: int = 500,
    resolution: int = 8,
    seed: int = 7,
) -> list[TransformView]:
    """Project a labeled sample set through several random transforms."""
    plan_space = plan_space_for(template)
    points = sample_points(plan_space.dimensions, samples, seed=seed)
    plan_ids = plan_space.plan_at(points)
    views = []
    for index in range(transforms):
        transform = PlanSpaceTransform(
            plan_space.dimensions, resolution=resolution, seed=seed + index
        )
        projected = transform.apply(points)
        grid = Grid(*transform.output_bounds, resolution)
        views.append(
            TransformView(
                index, projected, grid.cell_ids(projected), plan_ids
            )
        )
    return views


@dataclass(frozen=True)
class ZOrderDistribution:
    """Figure 6: per-plan point distribution along the z-axis."""

    plan_id: int
    z_values: np.ndarray
    interval_count: int


def zorder_distributions(
    template: str = "Q1",
    samples: int = 1000,
    resolution: int = 16,
    seed: int = 7,
) -> list[ZOrderDistribution]:
    """Linearize a labeled sample set; count contiguous z intervals per
    plan (the fragmentation z-ordering introduces)."""
    plan_space = plan_space_for(template)
    points = sample_points(plan_space.dimensions, samples, seed=seed)
    plan_ids = plan_space.plan_at(points)
    transform = PlanSpaceTransform(
        plan_space.dimensions, resolution=resolution, seed=seed
    )
    grid = Grid(*transform.output_bounds, resolution)
    curve = ZOrderCurve(
        transform.output_dims, int(np.log2(resolution))
    )
    z_values = curve.linearize(grid.unit_coords(transform.apply(points)))

    distributions = []
    cell = curve.cell_extent()
    for plan in np.unique(plan_ids):
        zs = np.sort(z_values[plan_ids == plan])
        # Contiguous runs: gaps larger than one cell split intervals.
        intervals = 1 + int((np.diff(zs) > cell * 1.5).sum()) if zs.size else 0
        distributions.append(
            ZOrderDistribution(int(plan), zs, intervals)
        )
    return distributions


