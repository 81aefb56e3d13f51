import numpy as np
import pytest

from hazardplan.errors import ValidationError
from hazardplan.grid import (
    ACTION_DISPLACEMENTS,
    Cell,
    GridMap,
    MotionKernel,
    MoveAction,
    N_ACTIONS,
    N_SLOTS,
    SLOT_DISPLACEMENTS,
)

from oracles import admissible_actions, diagonal_neighbors, motion_prob, orthogonal_neighbors


def test_action_order_and_displacements():
    assert [a.name for a in MoveAction] == ["STAY", "NORTH", "EAST", "SOUTH", "WEST"]
    assert MoveAction.STAY.displacement == (0, 0)
    assert MoveAction.NORTH.displacement == (0, 1)
    assert MoveAction.EAST.displacement == (1, 0)
    assert MoveAction.SOUTH.displacement == (0, -1)
    assert MoveAction.WEST.displacement == (-1, 0)
    assert ACTION_DISPLACEMENTS == SLOT_DISPLACEMENTS[:N_ACTIONS]
    # diagonals follow in NE, SE, SW, NW order
    assert SLOT_DISPLACEMENTS[5:] == ((1, 1), (1, -1), (-1, -1), (-1, 1))
    assert N_SLOTS == 9


def test_cells_sorted_col_major():
    gm = GridMap(3, 2, [Cell(1, 0)], Cell(2, 1))
    assert gm.cells == (Cell(0, 0), Cell(0, 1), Cell(1, 1), Cell(2, 0), Cell(2, 1))
    assert gm.n_free == 5
    for i, c in enumerate(gm.cells):
        assert gm.index(c) == i
    assert gm.goal_index == gm.index(Cell(2, 1))


def test_neighbor_slots_follow_displacements():
    gm = GridMap(3, 3, [Cell(1, 1)], Cell(0, 0))
    for i, cell in enumerate(gm.cells):
        for j, (dc, dr) in enumerate(SLOT_DISPLACEMENTS):
            nb = Cell(cell.col + dc, cell.row + dr)
            k = gm.neighbor_slots[i, j]
            if gm.is_free(nb):
                assert gm.cells[k] == nb
            else:
                assert k == -1


def test_admissible_actions_respect_walls_and_obstacles():
    gm = GridMap(3, 3, [Cell(1, 1)], Cell(0, 0))
    # corner cell: stay plus the two inward moves
    assert admissible_actions(gm, Cell(0, 0)) == (MoveAction.STAY, MoveAction.NORTH, MoveAction.EAST)
    # obstacle blocks the move into it
    acts = admissible_actions(gm, Cell(1, 0))
    assert MoveAction.NORTH not in acts
    assert set(acts) == {MoveAction.STAY, MoveAction.EAST, MoveAction.WEST}


def test_neighbors_sets():
    gm = GridMap(3, 3, [], Cell(1, 1))
    assert orthogonal_neighbors(gm, Cell(1, 1)) == frozenset(
        {Cell(1, 2), Cell(2, 1), Cell(1, 0), Cell(0, 1)}
    )
    assert diagonal_neighbors(gm, Cell(1, 1)) == frozenset(
        {Cell(2, 2), Cell(2, 0), Cell(0, 0), Cell(0, 2)}
    )
    assert orthogonal_neighbors(gm, Cell(0, 0)) == frozenset({Cell(0, 1), Cell(1, 0)})


def test_gridmap_validation():
    with pytest.raises(ValidationError):
        GridMap(0, 3, [], Cell(0, 0))
    with pytest.raises(ValidationError):
        GridMap(3, 3, [Cell(5, 5)], Cell(0, 0))
    with pytest.raises(ValidationError):
        GridMap(3, 3, [Cell(0, 0)], Cell(0, 0))
    with pytest.raises(ValidationError):
        GridMap(3, 3, [], Cell(3, 0))
    gm = GridMap(2, 2, [], Cell(0, 0))
    with pytest.raises(ValidationError):
        gm.index(Cell(9, 9))


def test_gridmap_equality_and_hash():
    a = GridMap(3, 3, [Cell(1, 1)], Cell(0, 0))
    b = GridMap(3, 3, [Cell(1, 1)], Cell(0, 0))
    c = GridMap(3, 3, [], Cell(0, 0))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_deterministic_kernel_moves_as_aimed():
    gm = GridMap(3, 3, [Cell(1, 1)], Cell(0, 0))
    kern = MotionKernel.deterministic(gm)
    assert kern.kind == "deterministic"
    for i, cell in enumerate(gm.cells):
        for u in admissible_actions(gm, cell):
            row = kern.slot_probs[i, u]
            assert row[u] == 1.0
            assert row.sum() == 1.0
    # inadmissible rows carry no mass
    i = gm.index(Cell(1, 0))
    assert kern.slot_probs[i, MoveAction.NORTH].sum() == 0.0


def test_motion_prob_queries():
    gm = GridMap(3, 1, [], Cell(2, 0))
    kern = MotionKernel.deterministic(gm)
    assert motion_prob(kern, Cell(1, 0), Cell(0, 0), MoveAction.EAST) == 1.0
    assert motion_prob(kern, Cell(0, 0), Cell(0, 0), MoveAction.EAST) == 0.0
    with pytest.raises(ValidationError):
        motion_prob(kern, Cell(0, 0), Cell(0, 0), MoveAction.NORTH)


def test_tabular_kernel_slip_row():
    gm = GridMap(3, 1, [], Cell(2, 0))
    table = {
        (Cell(0, 0), MoveAction.EAST): {Cell(1, 0): 0.8, Cell(0, 0): 0.2},
    }
    kern = MotionKernel.tabular(gm, table)
    assert kern.kind == "tabular"
    i = gm.index(Cell(0, 0))
    assert kern.slot_probs[i, MoveAction.EAST, MoveAction.EAST] == pytest.approx(0.8)
    assert kern.slot_probs[i, MoveAction.EAST, MoveAction.STAY] == pytest.approx(0.2)
    # rows not in the table stay deterministic
    j = gm.index(Cell(1, 0))
    assert kern.slot_probs[j, MoveAction.WEST, MoveAction.WEST] == 1.0


def test_tabular_kernel_validation():
    gm = GridMap(3, 1, [], Cell(2, 0))
    with pytest.raises(ValidationError):
        MotionKernel.tabular(gm, {(Cell(0, 0), MoveAction.NORTH): {Cell(0, 0): 1.0}})
    with pytest.raises(ValidationError):
        MotionKernel.tabular(gm, {(Cell(0, 0), MoveAction.EAST): {Cell(1, 0): -0.2, Cell(0, 0): 1.2}})
    with pytest.raises(ValidationError):
        MotionKernel.tabular(gm, {(Cell(0, 0), MoveAction.EAST): {Cell(2, 0): 1.0}})
    with pytest.raises(ValidationError):
        MotionKernel.tabular(gm, {(Cell(0, 0), MoveAction.EAST): {Cell(1, 0): 0.5}})


@pytest.mark.parametrize("row", [
    {Cell(1, 0): float("nan")},
    {Cell(1, 0): 1.0, Cell(0, 0): float("nan")},
])
def test_tabular_kernel_rejects_nan(row):
    # NaN passes both "p < 0" and "abs(total - 1) > tol" as False
    gm = GridMap(3, 1, [], Cell(2, 0))
    with pytest.raises(ValidationError, match="NaN"):
        MotionKernel.tabular(gm, {(Cell(0, 0), MoveAction.EAST): row})


def test_tabular_rows_sum_to_one_within_tolerance():
    gm = GridMap(2, 2, [], Cell(1, 1))
    table = {
        (Cell(0, 0), MoveAction.NORTH): {
            Cell(0, 1): 0.6,
            Cell(1, 0): 0.3,
            Cell(0, 0): 0.1 + 1e-15,
        }
    }
    kern = MotionKernel.tabular(gm, table)
    i = gm.index(Cell(0, 0))
    assert kern.slot_probs[i, MoveAction.NORTH].sum() == pytest.approx(1.0, abs=1e-12)
