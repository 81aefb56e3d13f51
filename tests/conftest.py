"""Shared generators for randomized sweeps.

Sweeps are seeded with fixed integers inside each test so failures replay
exactly; nothing here draws from global RNG state.
"""

from collections import deque
from typing import Dict, Tuple

import numpy as np

from hazardplan.grid import Cell, GridMap, MotionKernel
from hazardplan.hazard import (
    HazardModel,
    HazardSource,
    exact_contamination_field,
)
from hazardplan.planner import ObjectiveCache

from oracles import admissible_actions


def connected_free_cells(gm: GridMap) -> bool:
    seen = {gm.cells[0]}
    queue = deque([gm.cells[0]])
    while queue:
        cur = queue.popleft()
        for dc, dr in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            nb = Cell(cur.col + dc, cur.row + dr)
            if gm.is_free(nb) and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == gm.n_free


def random_gridmap(
    rng: np.random.Generator,
    max_cells: int = 9,
    min_side: int = 2,
    max_side: int = 4,
    max_obstacles: int = 2,
) -> GridMap:
    """A small connected grid with a free goal and at most max_cells free cells."""
    while True:
        w = int(rng.integers(min_side, max_side + 1))
        h = int(rng.integers(min_side, max_side + 1))
        cells = [Cell(c, r) for c in range(w) for r in range(h)]
        n_obs = int(rng.integers(0, max_obstacles + 1))
        n_obs = max(n_obs, len(cells) - max_cells)
        if n_obs >= len(cells) - 2 or n_obs < 0:
            continue
        picks = rng.choice(len(cells), size=n_obs, replace=False) if n_obs else []
        obstacles = [cells[i] for i in picks]
        free = [c for c in cells if c not in set(obstacles)]
        goal = free[int(rng.integers(len(free)))]
        try:
            gm = GridMap(w, h, obstacles, goal)
        except Exception:
            continue
        if gm.n_free <= max_cells and connected_free_cells(gm):
            return gm


def random_hazard(rng: np.random.Generator, gm: GridMap, max_sources: int = 2,
                  theta_lo: float = 0.05, theta_hi: float = 0.9) -> HazardModel:
    k = int(rng.integers(1, max_sources + 1))
    k = min(k, gm.n_free - 1)
    idx = rng.choice(gm.n_free, size=k, replace=False)
    sources = tuple(
        HazardSource(
            cells=frozenset([gm.cells[int(i)]]),
            theta=float(rng.uniform(theta_lo, theta_hi)),
        )
        for i in idx
    )
    return HazardModel(sources=sources)


def random_plan_setup(
    rng: np.random.Generator,
    max_cells: int = 9,
    max_horizon: int = 5,
    max_targets: int = 2,
    theta_hi: float = 0.9,
):
    """Grid, hazard, exact field, start and targets for one planning instance."""
    gm = random_gridmap(rng, max_cells=max_cells)
    model = random_hazard(rng, gm, theta_hi=theta_hi)
    horizon = int(rng.integers(1, max_horizon + 1))
    fld = exact_contamination_field(gm, model, horizon)
    n_t = int(rng.integers(0, max_targets + 1))
    picks = rng.choice(gm.n_free, size=n_t, replace=False) if n_t else []
    targets = tuple(gm.cells[int(i)] for i in picks)
    start = gm.cells[int(rng.integers(gm.n_free))]
    return gm, model, horizon, fld, start, targets


def random_cache(
    rng: np.random.Generator,
    n_robots: int = 2,
    n_tasks: int = 2,
    max_cells: int = 10,
    horizon_lo: int = 4,
    horizon_hi: int = 8,
    theta_hi: float = 0.5,
) -> ObjectiveCache:
    gm = random_gridmap(rng, max_cells=max_cells, max_side=4)
    model = random_hazard(rng, gm, theta_hi=theta_hi)
    horizon = int(rng.integers(horizon_lo, horizon_hi + 1))
    fld = exact_contamination_field(gm, model, horizon)
    starts = tuple(gm.cells[int(i)] for i in rng.integers(0, gm.n_free, size=n_robots))
    picks = rng.choice(gm.n_free, size=min(n_tasks, gm.n_free), replace=False)
    targets = tuple(gm.cells[int(i)] for i in picks)
    return ObjectiveCache(gm, MotionKernel.deterministic(gm), fld, starts, targets, horizon)


def random_tabular_kernel(rng: np.random.Generator, gm: GridMap) -> MotionKernel:
    """Kernel with random slip rows on roughly half the admissible pairs."""
    table = {}
    for cell in gm.cells:
        for u in admissible_actions(gm, cell):
            if rng.random() < 0.5:
                continue
            support = [cell]
            for dc, dr in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                nb = Cell(cell.col + dc, cell.row + dr)
                if gm.is_free(nb):
                    support.append(nb)
            w = rng.random(len(support)) + 1e-3
            w /= w.sum()
            table[(cell, u)] = {c: float(p) for c, p in zip(support, w)}
    return MotionKernel.tabular(gm, table)


class TableSource:
    """ObjectiveSource backed by explicit per-robot value tables."""

    def __init__(self, tables):
        self.tables = [dict(t) for t in tables]
        n_masks = len(self.tables[0])
        self._n_tasks = n_masks.bit_length() - 1
        for t in self.tables:
            if len(t) != n_masks:
                raise ValueError("ragged tables")
        self.solve_count = 0
        self.hit_count = 0
        self._seen = set()

    @property
    def n_robots(self) -> int:
        return len(self.tables)

    @property
    def n_tasks(self) -> int:
        return self._n_tasks

    def value(self, robot: int, mask: int) -> float:
        key = (robot, mask)
        if key in self._seen:
            self.hit_count += 1
        else:
            self._seen.add(key)
            self.solve_count += 1
        return self.tables[robot][mask]

    def price_table(self, robot: int) -> np.ndarray:
        return np.array([self.value(robot, m) for m in range(1 << self.n_tasks)])


def random_strict_tables(
    rng: np.random.Generator, n_robots: int, n_tasks: int,
) -> TableSource:
    """Per-robot tables strictly decreasing under mask inclusion, all positive.

    Every single-task addition multiplies the value by a factor well below
    one, so no two nested masks ever tie.  This is the regime in which the
    suboptimality guarantees are stated.
    """
    tables = []
    by_popcount = sorted(range(1 << n_tasks), key=lambda m: bin(m).count("1"))
    for _ in range(n_robots):
        vals = np.zeros(1 << n_tasks)
        for mask in by_popcount:
            if mask == 0:
                vals[0] = rng.uniform(0.5, 1.0)
                continue
            parents = [vals[mask & ~(1 << b)] for b in range(n_tasks) if mask >> b & 1]
            vals[mask] = min(parents) * rng.uniform(0.55, 0.95)
        tables.append({m: float(vals[m]) for m in range(1 << n_tasks)})
    return TableSource(tables)


def random_monotone_tables(
    rng: np.random.Generator, n_robots: int, n_tasks: int,
    zero_prob: float = 0.0,
) -> TableSource:
    """Per-robot tables nonincreasing under mask inclusion with f(0) > 0."""
    tables = []
    for _ in range(n_robots):
        raw = rng.random(1 << n_tasks)
        vals = raw.copy()
        for mask in range(1 << n_tasks):
            for b in range(n_tasks):
                if mask >> b & 1:
                    vals[mask] = min(vals[mask], vals[mask & ~(1 << b)])
        if zero_prob > 0.0:
            for mask in range(1, 1 << n_tasks):
                if rng.random() < zero_prob:
                    for sup in range(1 << n_tasks):
                        if sup & mask == mask:
                            vals[sup] = 0.0
        vals[0] = max(vals[0], 0.05)
        tables.append({m: float(vals[m]) for m in range(1 << n_tasks)})
    return TableSource(tables)
