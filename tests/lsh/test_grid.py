"""Grid partitioning: cell assignment, ids, neighbors."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.lsh.grid import Grid


@pytest.fixture()
def unit_grid():
    return Grid(np.zeros(2), np.ones(2), resolution=4)


class TestCellAssignment:
    def test_cell_coords_basic(self, unit_grid):
        coords = unit_grid.cell_coords(np.array([[0.1, 0.6], [0.9, 0.2]]))
        assert coords.tolist() == [[0, 2], [3, 0]]

    def test_upper_edge_clipped_into_last_cell(self, unit_grid):
        coords = unit_grid.cell_coords(np.array([[1.0, 1.0]]))
        assert coords.tolist() == [[3, 3]]

    def test_points_outside_bounds_clipped(self, unit_grid):
        coords = unit_grid.cell_coords(np.array([[-0.5, 1.5]]))
        assert coords.tolist() == [[0, 3]]

    def test_cell_ids_unique_per_cell(self, unit_grid):
        centers = np.array(
            [[(i + 0.5) / 4, (j + 0.5) / 4] for i in range(4) for j in range(4)]
        )
        ids = unit_grid.cell_ids(centers)
        assert len(np.unique(ids)) == 16
        assert ids.min() == 0 and ids.max() == 15

    def test_total_cells_and_volume(self, unit_grid):
        assert unit_grid.total_cells == 16
        assert np.prod(unit_grid.cell_widths) == pytest.approx(1.0 / 16.0)

    def test_nonuniform_bounds(self):
        grid = Grid(np.array([-2.0, 0.0]), np.array([2.0, 1.0]), resolution=2)
        assert grid.cell_widths == pytest.approx([2.0, 0.5])
        ids = grid.cell_ids(np.array([[-1.5, 0.75]]))
        assert ids[0] == 0 * 2 + 1


class TestUnitCoords:
    def test_rescaling(self):
        grid = Grid(np.array([-1.0]), np.array([3.0]), resolution=4)
        unit = grid.unit_coords(np.array([[1.0]]))
        assert unit[0, 0] == pytest.approx(0.5)

    def test_output_strictly_below_one(self, unit_grid):
        unit = unit_grid.unit_coords(np.array([[1.0, 2.0]]))
        assert (unit < 1.0).all()


class TestNeighbors:
    def test_ball_inside_one_cell(self, unit_grid):
        ids = list(unit_grid.neighbor_ids(np.array([0.375, 0.375]), 0.05))
        assert ids == [unit_grid.cell_ids(np.array([[0.375, 0.375]]))[0]]

    def test_ball_spanning_cells(self, unit_grid):
        ids = list(unit_grid.neighbor_ids(np.array([0.25, 0.25]), 0.05))
        assert len(ids) == 4  # the four cells around the corner (0.25, 0.25)

    def test_ball_at_domain_corner(self, unit_grid):
        ids = list(unit_grid.neighbor_ids(np.array([0.0, 0.0]), 0.05))
        assert ids == [0]

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            Grid(np.zeros(2), np.zeros(2), 4)
        with pytest.raises(ConfigurationError):
            Grid(np.zeros(2), np.ones(2), 0)
        with pytest.raises(ConfigurationError):
            Grid(np.zeros((2, 2)), np.ones((2, 2)), 4)
