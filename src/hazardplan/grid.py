"""Grid environment: cells, obstacles, admissible moves, and robot motion kernels.

Coordinates are (col, row) pairs; row indices grow northward, so North
displaces by (0, +1) and renderers draw row 0 along the bottom edge.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, FrozenSet, Iterable, Mapping, NamedTuple, Tuple

import numpy as np

from .errors import ValidationError

KERNEL_ROW_TOL = 1e-12


class Cell(NamedTuple):
    """A grid cell addressed as (col, row)."""

    col: int
    row: int


class MoveAction(IntEnum):
    """The five move inputs, ordered for deterministic tie-breaking."""

    STAY = 0
    NORTH = 1
    EAST = 2
    SOUTH = 3
    WEST = 4

    @property
    def displacement(self) -> Tuple[int, int]:
        return ACTION_DISPLACEMENTS[self.value]


ACTION_DISPLACEMENTS: Tuple[Tuple[int, int], ...] = (
    (0, 0),
    (0, 1),
    (1, 0),
    (0, -1),
    (-1, 0),
)
DIAGONAL_DISPLACEMENTS: Tuple[Tuple[int, int], ...] = (
    (1, 1),
    (1, -1),
    (-1, -1),
    (-1, 1),
)
# Slot layout shared by the hazard field and the planner: slot 0 is the cell
# itself, slots 1-4 the orthogonal move targets in action order, slots 5-8
# the diagonals (used by hazard spread only).
SLOT_DISPLACEMENTS: Tuple[Tuple[int, int], ...] = ACTION_DISPLACEMENTS + DIAGONAL_DISPLACEMENTS
N_ACTIONS = 5
N_SLOTS = len(SLOT_DISPLACEMENTS)


class GridMap:
    """Bounded rectangular grid with static obstacles and a single exit cell.

    Free cells are indexed 0..n_free-1 in sorted (col, row) order; the arrays
    built here (cells, neighbor_slots) are the common currency for the hazard
    sampler and the planner.
    """

    def __init__(self, width: int, height: int, obstacles: Iterable[Cell], goal: Cell):
        if width < 1 or height < 1:
            raise ValidationError(f"grid dimensions must be positive, got {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        obstacles = frozenset(Cell(*c) for c in obstacles)
        for c in obstacles:
            if not self._in_bounds(c):
                raise ValidationError(f"obstacle {c} outside the {width}x{height} grid")
        self.obstacles: FrozenSet[Cell] = obstacles
        self.goal = Cell(*goal)
        if not self._in_bounds(self.goal):
            raise ValidationError(f"goal {self.goal} outside the {width}x{height} grid")
        if self.goal in obstacles:
            raise ValidationError(f"goal {self.goal} sits on an obstacle")
        cells = sorted(
            Cell(c, r)
            for c in range(width)
            for r in range(height)
            if Cell(c, r) not in obstacles
        )
        if not cells:
            raise ValidationError("obstacles fill the entire grid")
        self.cells: Tuple[Cell, ...] = tuple(cells)
        self.cell_index: Dict[Cell, int] = {c: i for i, c in enumerate(self.cells)}
        self.n_free = len(self.cells)
        # neighbor_slots[i, j] = free-cell index of cells[i] + SLOT_DISPLACEMENTS[j],
        # or -1 when that cell is blocked or out of bounds: read from the
        # free-cell index of every (col, row), padded by a ring of -1. The
        # cells are in (col, row) order, the order of the index's free entries.
        col, row = np.array(self.cells).T
        index = np.full((width + 2, height + 2), -1, dtype=np.int32)
        index[col + 1, row + 1] = np.arange(self.n_free)
        shift = np.array(SLOT_DISPLACEMENTS).T + 1
        self.neighbor_slots = index[col[:, np.newaxis] + shift[0], row[:, np.newaxis] + shift[1]]
        self.goal_index = self.cell_index[self.goal]

    def _in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell.col < self.width and 0 <= cell.row < self.height

    def is_free(self, cell: Cell) -> bool:
        return self._in_bounds(cell) and cell not in self.obstacles

    def index(self, cell: Cell) -> int:
        try:
            return self.cell_index[Cell(*cell)]
        except KeyError:
            raise ValidationError(f"{cell} is not a free cell") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.obstacles == other.obstacles
            and self.goal == other.goal
        )

    def __hash__(self) -> int:
        return hash((self.width, self.height, self.obstacles, self.goal))

    def __repr__(self) -> str:
        return (
            f"GridMap({self.width}x{self.height}, {len(self.obstacles)} obstacles, "
            f"goal={tuple(self.goal)})"
        )


class MotionKernel:
    """Move-input transition law over cells.

    The default deterministic kernel moves exactly along the chosen action.
    A tabular kernel may redistribute mass over the cell itself and its free
    orthogonal neighbors (the same support the contamination field stores).
    """

    def __init__(self, gridmap: GridMap, kind: str, slot_probs: np.ndarray):
        self.gridmap = gridmap
        self.kind = kind
        # slot_probs[i, u, j]: probability that action u taken at cells[i]
        # lands on neighbor slot j (slot 0 = stay put).
        self.slot_probs = slot_probs

    @classmethod
    def deterministic(cls, gridmap: GridMap) -> "MotionKernel":
        n = gridmap.n_free
        probs = np.zeros((n, N_ACTIONS, N_ACTIONS))
        admissible = gridmap.neighbor_slots[:, :N_ACTIONS] >= 0
        for u in range(N_ACTIONS):
            probs[admissible[:, u], u, u] = 1.0
        return cls(gridmap, "deterministic", probs)

    @classmethod
    def tabular(
        cls,
        gridmap: GridMap,
        table: Mapping[Tuple[Cell, MoveAction], Mapping[Cell, float]],
    ) -> "MotionKernel":
        n = gridmap.n_free
        probs = np.zeros((n, N_ACTIONS, N_ACTIONS))
        seen = set()
        for (cell, action), row in table.items():
            i = gridmap.index(cell)
            u = MoveAction(action)
            if gridmap.neighbor_slots[i, u] < 0:
                raise ValidationError(f"action {u.name} is not admissible at {cell}")
            seen.add((i, int(u)))
            total = 0.0
            for nxt, p in row.items():
                # NaN fails every comparison, so test for the good case
                if not float(p) >= 0.0:
                    raise ValidationError(
                        f"motion probability {p!r} at {cell}, {u.name} is negative or NaN"
                    )
                j = _slot_of(gridmap, i, Cell(*nxt))
                if j is None or j >= N_ACTIONS:
                    raise ValidationError(
                        f"successor {nxt} of {cell} under {u.name} is not the cell "
                        "itself or a free orthogonal neighbor"
                    )
                probs[i, u, j] += float(p)
                total += float(p)
            if abs(total - 1.0) > KERNEL_ROW_TOL:
                raise ValidationError(
                    f"motion row for {cell}, {u.name} sums to {total!r}, not 1"
                )
        # Any admissible (cell, action) missing from the table keeps the
        # deterministic default.
        admissible = gridmap.neighbor_slots[:, :N_ACTIONS] >= 0
        for i in range(n):
            for u in range(N_ACTIONS):
                if admissible[i, u] and (i, u) not in seen:
                    probs[i, u, u] = 1.0
        return cls(gridmap, "tabular", probs)

    def action_terms(self, u: int):
        """Yield (slot, weight-vector) pairs with any positive mass for action u."""
        for j in range(N_ACTIONS):
            w = self.slot_probs[:, u, j]
            if np.any(w > 0):
                yield j, w


def _slot_of(gridmap: GridMap, i: int, target: Cell) -> int | None:
    k = gridmap.cell_index.get(target)
    if k is None:
        return None
    row = gridmap.neighbor_slots[i]
    hits = np.nonzero(row == k)[0]
    if hits.size == 0:
        return None
    return int(hits[0])
