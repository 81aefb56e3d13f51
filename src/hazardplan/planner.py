"""Single-robot reachability planning against the contamination field.

A mission state is (q, x): the set of the robot's targets visited so far and
its cell, plus two absorbing outcomes (contaminated, or at the exit with every
target visited). Moves succeed per the motion kernel; arrival at x' survives
with probability 1 - p[k](x', x) from the contamination field. dp_solve runs
the standard backward finite-horizon recursion, maximizing the probability of
reaching the exit with all targets visited within the horizon. Its value
layers are blocked into tiles of c visited sets, (tiles, n, c), with c the
largest power of two whose (n, c) tile fits _DP_TILE_BYTES, so that a tile
and its working buffers stay in cache. Each step first remaps the rows of the
target cells, since arriving on one sets its bit; then each tile is swept on
its own: every kernel term is a copy of whole tile rows, scaled per cell (a
term that stays put only scales the tile), and the actions are compared,
bounded and written to the policy tile by tile.

Most of a many-target layer is exactly 0: the targets a visited set still
lacks cannot all be visited, with the exit reached, in the steps left.
_finish_moves bounds the moves any walk from a visited set needs, whatever
its cell (Held-Karp over breadth-first grid distances), and the columns of
a layer are ordered by that bound, so such sets gather into whole tiles at
its end. At step k a tile whose every set needs more than horizon - k
moves is not swept: it holds +0.0 with policy STAY, which is what the
sweep would write, as long as every step from the horizon down to k has
all its contamination probabilities in [0, 1]. From a step with any other
value down, every tile is swept. The policy keeps its [step, visited set,
cell] layout, so the skip changes no value or policy bit.

Since a visited target no longer matters, the mission "visit S" from (q, x)
is the mission "visit T" from (q | (T ^ S), x) for any T containing S. So
one solve over all of a scenario's targets T is every subset's plan: the
subset S only starts the walk in the visited set (T ^ S) | start_q.
ObjectiveCache holds that one plan per robot and prices every subset from it.
A target contaminated at step 0 needs no special case: entering it has
probability 1 of contamination, so every mission that must visit it is worth
exactly 0.

rollout simulates a plan in chunks of trials with one hit test per step: a
uniform against the field's contamination probability of the move (model
mode), or whether the cell entered has ignited in the trial's hazard
trajectory, drawn by the field's own sampler (joint mode). With
deterministic motion no draw moves a trial, so every trial follows the
plan's one walk with no hit (PlanResult._walk, the walk greedy_path lists)
until it is hit, and a chunk is one hit test of all its trials per step of
that walk. Tabular motion moves the trials one by one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapExceededError, NumericViolationError, ValidationError
from .grid import Cell, GridMap, MotionKernel, MoveAction, N_ACTIONS
from .hazard import ContaminationField, HazardModel, _block_size, _dynamics, _sample_block

VALUE_TOL = 1e-9
MAX_TARGETS = 20
WILSON_Z95 = 1.959963984540054
_ROLLOUT_CHUNK = 16384
# Largest dp_solve, in bytes of its policy and working layers: a quarter of
# an 8 GB machine, so a query that fits leaves room for the field, the
# allocators and whatever else runs beside it.
DP_TABLE_CAP = 2 << 30
# Bytes of one (n_free, c) float64 tile of a dp_solve value layer: c is the
# largest power of two that fits, so a tile and its working buffers stay in a
# core's L2 cache. 256 KiB gives c = 128 on the 199 free cells of paper17x13;
# 512 KiB measured the same.
_DP_TILE_BYTES = 256 << 10
# Bytes per (mask, cell) of what dp_solve holds besides the policy, the
# tile buffers and the kernel arrays: two float64 value layers, the target
# remap's offsets and the column order. Traced peaks on paper17x13 at 8-13
# targets, less the policy and the tile buffers below, were 14.2-16.7 with
# deterministic and 16.9-20.5 with tabular motion.
_DP_LAYER_BYTES = 22
# Bytes per (cell, visited set) of one tile's working buffers: an action's
# value and, when an action has several kernel terms, one term's product,
# plus two int8 buffers.
_DP_TILE_BUFFER_BYTES = 18
# Bytes per (kernel term, cell) of the arrays a dp_solve holds whatever its
# targets: the terms' weights, support and destinations, and a step's
# survival rows with their temporaries. A kernel has at most
# N_ACTIONS * N_ACTIONS terms; traced on paper17x13 with all 25 and no
# target, these came to about 43 bytes. They weigh most below 8 targets.
_DP_TERM_BYTES = 48


@dataclass(frozen=True)
class PlanQuery:
    """One robot's planning instance against a fixed contamination field."""

    gridmap: GridMap
    kernel: MotionKernel
    field: ContaminationField
    start: Cell
    targets: Tuple[Cell, ...]
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "start", Cell(*self.start))
        object.__setattr__(self, "targets", tuple(Cell(*t) for t in self.targets))
        gm = self.gridmap
        gm.index(self.start)
        for t in self.targets:
            gm.index(t)
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError("duplicate target cells in query")
        if len(self.targets) > MAX_TARGETS:
            raise ValidationError(f"more than {MAX_TARGETS} targets for one robot")
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        if self.field.n_free != gm.n_free:
            raise ValidationError("contamination field built for a different grid")
        if self.field.horizon < self.horizon:
            raise ValidationError(
                f"field covers {self.field.horizon} steps, query needs {self.horizon}"
            )
        if self.kernel.gridmap != gm:
            raise ValidationError("motion kernel built for a different grid")

    @property
    def full_mask(self) -> int:
        return (1 << len(self.targets)) - 1

    def target_bits(self) -> np.ndarray:
        tb = np.zeros(self.gridmap.n_free, dtype=np.int64)
        for b, cell in enumerate(self.targets):
            tb[self.gridmap.index(cell)] |= 1 << b
        return tb


@dataclass
class PlanResult:
    """DP output: the greedy policy and the start-state value f = V^0(s0)."""

    query: PlanQuery
    policy: np.ndarray  # (horizon, 2^t, n_free) int8 action ids
    start_values: np.ndarray  # (2^t,) V^0(q, start) for every visited-set q
    start_q: int  # the visited set the walk starts in
    diagnostics: Tuple[str, ...] = ()
    tiles_swept: int = 0  # (step, value tile) pairs the DP swept, not skipped

    @property
    def success(self) -> float:
        return float(self.start_values[self.start_q])

    def _walk(self) -> Tuple[List[Tuple[int, int]], bool]:
        """The plan's walk when every move lands as aimed and no hazard
        strikes: the (cell index, action) of each step it takes, ending at
        the step that completes the mission, and whether it completes it
        within the horizon. A walk that starts complete takes no step."""
        gm = self.query.gridmap
        tb = self.query.target_bits()
        full = self.query.full_mask
        x = gm.index(self.query.start)
        q = self.start_q
        steps = []
        for k in range(self.query.horizon):
            if q == full and x == gm.goal_index:
                break
            u = int(self.policy[k, q, x])
            steps.append((x, u))
            x = int(gm.neighbor_slots[x, u])
            q |= int(tb[x])
        return steps, q == full and x == gm.goal_index

    def greedy_path(self) -> List[Cell]:
        """Cells visited when every move lands as aimed and no hazard strikes."""
        gm = self.query.gridmap
        steps, _ = self._walk()
        return [self.query.start] + [
            gm.cells[gm.neighbor_slots[x, u]] for x, u in steps if u != MoveAction.STAY
        ]


def _grid_distances(gm: GridMap, source: int) -> np.ndarray:
    """Fewest orthogonal moves from cell index ``source`` to every free
    cell, breadth first along neighbor_slots; inf where none leads."""
    nbr = gm.neighbor_slots[:, 1:N_ACTIONS].tolist()
    dist = [np.inf] * gm.n_free
    dist[source] = 0.0
    queue = deque([source])
    while queue:
        i = queue.popleft()
        for j in nbr[i]:
            if j >= 0 and dist[j] == np.inf:
                dist[j] = dist[i] + 1.0
                queue.append(j)
    return np.array(dist)


def _reachability_diagnostics(query: PlanQuery) -> List[str]:
    gm = query.gridmap
    unreachable = np.isinf(_grid_distances(gm, gm.index(query.start)))
    diags = []
    for cell in query.targets:
        if unreachable[gm.index(cell)]:
            diags.append(f"target {tuple(cell)} unreachable from start {tuple(query.start)}")
    if unreachable[gm.goal_index]:
        diags.append(f"exit {tuple(gm.goal)} unreachable from start {tuple(query.start)}")
    return diags


def _finish_moves(query: PlanQuery) -> np.ndarray:
    """need[q] for every visited set q: a lower bound on the moves that any
    walk from (q, x), whatever the cell x, takes to visit every target
    outside q and then stand on the exit. need[full] is 0. Otherwise it is
    1 plus the shortest grid path that starts on one of the targets left,
    visits the rest and ends on the exit: Held-Karp over the targets, on
    _grid_distances. A move lands on a neighbour or stays put, and the
    first target left is entered by a move, a STAY onto it included, so no
    walk is shorter. inf ("never") where a target left cannot reach the
    exit."""
    gm = query.gridmap
    t = len(query.targets)
    nq = 1 << t
    cells = [gm.index(c) for c in query.targets]
    # steps[i, j]: moves from target i to target j, and row t: the one move
    # that enters any target from the cell next to it, or from itself
    steps = np.ones((t + 1, t))
    from_targets = np.array([_grid_distances(gm, x) for x in cells]).reshape(t, gm.n_free)
    steps[:t] = from_targets[:, cells]
    masks = np.arange(nq)
    bits = 1 << np.arange(t)
    sizes = (masks[:, np.newaxis] & bits != 0).sum(axis=1)
    # path[r, i]: fewest moves from target i through every target of r to
    # the exit, for i outside r. left[r]: the fewest from the best cell with
    # the targets r left, one move onto the first of them and its path; row
    # t of steps makes it.
    path = np.full((nq, t), np.inf)
    path[0] = from_targets[:, gm.goal_index]
    left = np.zeros(nq)
    # rows of a level per round, so the (rows, t + 1, t) sums stay small
    rows = max(1, (1 << 18) // ((t + 1) * max(t, 1)))
    for size in range(1, t + 1):
        level = masks[sizes == size]
        for lo in range(0, len(level), rows):
            r = level[lo:lo + rows, np.newaxis]
            # the moves on from each target j of r, first of the rest
            onward = np.where(r & bits != 0, path[r ^ bits, np.arange(t)], np.inf)
            moves = (steps + onward[:, np.newaxis]).min(axis=2)
            path[r[:, 0]] = moves[:, :t]
            left[r[:, 0]] = moves[:, t]
    return left[(nq - 1) ^ masks]


def _diagnose(query: PlanQuery) -> List[str]:
    """Reachability notes, then the start's step-0 contamination or else each
    target's."""
    gm = query.gridmap
    flagged = query.field.flagged[0]
    diagnostics = _reachability_diagnostics(query)
    if flagged[gm.index(query.start)]:
        diagnostics.append(
            f"start {tuple(query.start)} is almost surely contaminated at step 0"
        )
        return diagnostics
    for c in query.targets:
        if flagged[gm.index(c)]:
            diagnostics.append(f"target {tuple(c)} is almost surely contaminated at step 0")
    return diagnostics


def _tile_columns(n_visited: int, n_free: int) -> int:
    """Visited sets per tile of dp_solve: the largest power of two up to
    n_visited whose (n_free, c) float64 tile fits _DP_TILE_BYTES, at least 1."""
    c = n_visited
    while c > 1 and n_free * c * 8 > _DP_TILE_BYTES:
        c >>= 1
    return c


def _remap_offsets(
    tb: np.ndarray, order: np.ndarray, position: np.ndarray, c: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Arriving on a target sets its bit: row d of a value layer, read at
    visited set q, is the value at q | tb[d]. The flat offsets, into a layer
    blocked as (tiles, n, c) whose column p holds visited set order[p]
    (and visited set q is in column position[q]), of every (d, q) that this
    moves, in increasing order, and of the (d, q | tb[d]) each reads."""
    tcells = np.flatnonzero(tb)[:, np.newaxis]
    n = len(tb)
    at = np.arange(len(order)).reshape(-1, 1, c)  # (tiles, 1, c) columns
    q = order[at]
    arrive = q | tb[tcells]
    moved = arrive != q

    def offsets(column):
        return (column // c * (n * c) + tcells * c + column % c)[moved]

    return offsets(at), offsets(position[arrive])


def dp_table_bytes(n_targets: int, n_free: int, horizon: int) -> int:
    """Estimated peak bytes of a dp_solve: the int8 policy and the two value
    layers, plus the working buffers of one tile and the kernel arrays of
    the most terms a kernel can have."""
    nq = 1 << n_targets
    return (nq * n_free * (horizon + _DP_LAYER_BYTES)
            + _tile_columns(nq, n_free) * n_free * _DP_TILE_BUFFER_BYTES
            + N_ACTIONS * N_ACTIONS * n_free * _DP_TERM_BYTES)


def require_dp_table_fits(n_targets: int, n_free: int, horizon: int) -> None:
    """Refuse a dp_solve whose tables would pass DP_TABLE_CAP."""
    need = dp_table_bytes(n_targets, n_free, horizon)
    if need > DP_TABLE_CAP:
        raise CapExceededError(
            f"planning {n_targets} targets over {n_free} cells and {horizon} steps "
            f"needs about {need / 2**30:.1f} GiB > cap {DP_TABLE_CAP / 2**30:.1f} GiB"
        )


def dp_solve(query: PlanQuery) -> PlanResult:
    """Backward value recursion; returns the greedy policy and f = V^0(s0).

    Step k reads only step k + 1, so two value layers are kept, each blocked
    as (tiles, n, c): tile j holds c visited sets of every cell, c from
    _tile_columns. The columns are ordered by _finish_moves, fewest moves
    still needed first, so the visited sets that cannot finish in the steps
    left gather into whole tiles at the end. Each step first remaps the
    target-cell rows, the one read across visited sets; every action is
    then worked out tile by tile on contiguous (n, c) buffers, each kernel
    term a copy of whole tile rows. A tile whose fewest moves needed pass
    the steps left is all +0.0 with policy STAY and is not swept (see the
    loop). A query whose tables would pass DP_TABLE_CAP raises
    CapExceededError before any is allocated.
    """
    gm = query.gridmap
    fld = query.field
    n = gm.n_free
    t = len(query.targets)
    nq = 1 << t
    horizon = query.horizon
    require_dp_table_fits(t, n, horizon)
    c = _tile_columns(nq, n)
    tiles = nq // c
    start_idx = gm.index(query.start)
    goal_idx = gm.goal_index
    tb = query.target_bits()
    # A one-tile layer holds the full set, which needs no move, so it is
    # always swept and needs no bound.
    need = _finish_moves(query) if tiles > 1 else np.zeros(nq)
    # The visited set of each column: by the fewest moves still needed, ties
    # in q order. A need above the horizon is skipped alike at every step,
    # so the keys are the integers 0 to horizon + 1, and a counting sort
    # orders them.
    need = np.minimum(need, horizon + 1)
    order = np.concatenate([np.flatnonzero(need == m) for m in range(int(need.max()) + 1)])
    position = np.empty(nq, dtype=np.int64)  # the column of each visited set
    position[order] = np.arange(nq)
    tile_need = need[order[::c]]  # ascending: the fewest moves in each tile
    full_tile, full_col = divmod(int(position[nq - 1]), c)

    # Every kernel term as a row of (slot, weight per cell), grouped by
    # action in order. An action with no term at any cell is skipped: its
    # value layer would never be written.
    slots, weights, actions = [], [], []
    for u in range(N_ACTIONS):
        terms = list(query.kernel.action_terms(u))
        if terms:
            actions.append((u, range(len(slots), len(slots) + len(terms))))
            slots += [j for j, _ in terms]
            weights += [w for _, w in terms]
    weights = np.array(weights)
    sel = weights > 0
    # A cell outside a term's support reads its own row with weight 0, so it
    # adds exactly +0.0. A term that lands every cell on itself (STAY) scales
    # the tile in place of a gather.
    dest = np.where(sel, gm.neighbor_slots[:, slots].T, np.arange(n))
    gathers = [None if (d == np.arange(n)).all() else d for d in dest]
    remap_to, remap_from = _remap_offsets(tb, order, position, c)
    # The tiles swept at step k: those whose fewest moves fit in the steps
    # left, a prefix as tile_need ascends, but every tile from the last step
    # with a probability outside [0, 1] down (see the loop). The remap's
    # entries inside them are a prefix too, as remap_to ascends.
    live_at = np.searchsorted(tile_need, horizon - np.arange(horizon), side="right")
    prob = fld.prob[:horizon]
    # min and max hold NaN where a step does
    bad = np.flatnonzero(~((0.0 <= prob.min(axis=(1, 2))) & (prob.max(axis=(1, 2)) <= 1.0)))
    if bad.size:
        live_at[:bad[-1] + 1] = tiles
    remap_stop = np.searchsorted(remap_to, live_at * (n * c))
    # the visited sets of each tile's columns, a slice when they are in order
    columns = [order[j * c:(j + 1) * c] for j in range(tiles)] if tiles > 1 else [slice(None)]

    values = np.zeros((tiles, n, c))
    values[full_tile, goal_idx, full_col] = 1.0
    nxt = np.zeros((tiles, n, c))
    acc = np.empty((n, c))
    tmp = np.empty((n, c)) if len(slots) > len(actions) else None
    better = np.empty((n, c), dtype=np.int8)
    bestu = np.empty((n, c), dtype=np.int8)
    lows = np.zeros(tiles)
    highs = np.zeros(tiles)
    # 0 is MoveAction.STAY, the policy of a tile not swept
    policy = np.zeros((horizon, nq, n), dtype=np.int8)

    def term_value(tile, i, surv, out):
        """Survival times the tile row that term i lands on. Every index is
        valid; mode="clip" only spares take the copy it makes of ``out``
        under the default mode."""
        if gathers[i] is None:
            np.multiply(tile, surv[i], out=out)
        else:
            np.take(tile, gathers[i], axis=0, out=out, mode="clip")
            out *= surv[i]

    def action_value(tile, terms, surv, out):
        """Sum over an action's terms, in order."""
        first, *rest = terms
        term_value(tile, first, surv, out)
        for i in rest:
            term_value(tile, i, surv, tmp)
            out += tmp

    # Skipping is exact while every step from the horizon down to k has its
    # probabilities in [0, 1], so every survival factor is finite and
    # non-negative. Then a state that needs more moves than the steps left
    # is worth +0.0, a sum of products of +0.0 and such a factor; the
    # strict > keeps STAY there; and its tile's low and high are 0.0. A tile
    # skipped at step k was skipped at every later step, so nothing has
    # written its columns in either value layer, its policy rows, its low or
    # its high since they were zeroed: skipping leaves them as the sweep
    # would write them. The remap fills only the tiles swept, as a skipped
    # tile reads none of its own columns. A step with another probability
    # (NaN, or p outside [0, 1], as a hand-made field may hold) can leave
    # -0.0 or raise, so from there on every tile is swept, as the sweep over
    # whole layers does.
    for k in range(horizon - 1, -1, -1):
        flat = values.reshape(-1)
        stop = remap_stop[k]
        flat[remap_to[:stop]] = flat[remap_from[:stop]]
        surv = np.where(sel, weights * (1.0 - fld.prob[k][:, slots].T), 0.0)
        surv = surv[:, :, np.newaxis]  # a cell's weight, for every column of a tile
        inside = True
        for j in range(live_at[k]):
            tile, best = values[j], nxt[j]
            # STAY is admissible and has mass at every cell, so best >= 0
            # after it. An action inadmissible at a cell has no mass there
            # and is worth 0.0 there, which the strict > never picks.
            action_value(tile, actions[0][1], surv, best)
            bestu.fill(MoveAction.STAY)
            for u, terms in actions[1:]:
                action_value(tile, terms, surv, acc)
                np.greater(acc, best, out=better)
                # Actions come in increasing u, so bestu is below u: setting
                # u where acc > best is the max of bestu and u * better, with
                # no branch per entry as a masked copy has.
                better *= u
                np.maximum(bestu, better, out=bestu)
                np.maximum(best, acc, out=best)
            if j == full_tile:
                # The completed-mission state is absorbing.
                best[goal_idx, full_col] = tile[goal_idx, full_col]
                bestu[goal_idx, full_col] = MoveAction.STAY
            lows[j] = lo = best.min()
            highs[j] = hi = best.max()
            # A tile inside [0, 1] is its own clip. NaN fails both
            # comparisons, so a NaN value raises too.
            if not (0.0 <= lo and hi <= 1.0):
                np.clip(best, 0.0, 1.0, out=best)
                inside = inside and -VALUE_TOL <= lo and hi <= 1.0 + VALUE_TOL
            policy[k, columns[j]] = bestu.T
        if not inside:
            raise NumericViolationError(
                f"value outside [0, 1] at step {k}: [{lows.min()}, {highs.max()}]"
            )
        values, nxt = nxt, values

    return PlanResult(
        query=query,
        policy=policy,
        # Every move off a start contaminated at step 0 is contaminated, but
        # a start on the goal with nothing to visit is already complete.
        start_values=(values[:, start_idx].reshape(nq)[position]
                      * (not fld.flagged[0, start_idx])),
        start_q=int(tb[start_idx]),
        diagnostics=tuple(_diagnose(query)),
        tiles_swept=int(live_at.sum()),
    )


class ObjectiveCache:
    """Memoized per-robot success probabilities over target subsets.

    Keys are (robot index, subset bitmask over the shared target list). The
    first value asked of a robot runs one dp_solve over all the targets, and
    every subset of that robot is then a start state of that plan.
    solve_count counts the distinct (robot, mask) values priced and
    hit_count the repeat lookups, not DP runs: one dp_solve runs per robot.
    """

    def __init__(
        self,
        gridmap: GridMap,
        kernel: MotionKernel,
        contamination: ContaminationField,
        starts: Sequence[Cell],
        targets: Sequence[Cell],
        horizon: int,
    ):
        self.gridmap = gridmap
        self.kernel = kernel
        self.contamination = contamination
        self.starts = tuple(Cell(*s) for s in starts)
        self.targets = tuple(Cell(*t) for t in targets)
        self.horizon = horizon
        if not self.starts:
            raise ValidationError("at least one robot start is required")
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError("duplicate target cells")
        self._plans: Dict[int, PlanResult] = {}
        # Memo of the values asked for: a repeat lookup, the allocators' most
        # frequent call, skips the validation and the plan lookup.
        self._values: Dict[Tuple[int, int], float] = {}
        self.solve_count = 0
        self.hit_count = 0

    @property
    def n_robots(self) -> int:
        return len(self.starts)

    @property
    def n_tasks(self) -> int:
        return len(self.targets)

    def query(self, robot: int, mask: int) -> PlanQuery:
        subset = tuple(
            self.targets[b] for b in range(self.n_tasks) if mask >> b & 1
        )
        return PlanQuery(
            gridmap=self.gridmap,
            kernel=self.kernel,
            field=self.contamination,
            start=self.starts[robot],
            targets=subset,
            horizon=self.horizon,
        )

    def _entry(self, robot: int, mask: int) -> Tuple[PlanResult, int]:
        """The robot's plan over all the targets, solved on first use, and the
        visited set it starts in for the subset ``mask``: every target
        outside the subset counts as visited."""
        if not 0 <= robot < self.n_robots:
            raise ValidationError(f"robot index {robot} out of range")
        if mask < 0 or mask >> self.n_tasks:
            raise ValidationError(f"target mask {mask} out of range")
        if robot not in self._plans:
            self._plans[robot] = dp_solve(self.query(robot, (1 << self.n_tasks) - 1))
        plan = self._plans[robot]
        return plan, (plan.query.full_mask ^ mask) | plan.start_q

    def solve(self, robot: int, mask: int) -> PlanResult:
        """The robot's plan, entered at the subset's start state."""
        plan, start_q = self._entry(robot, mask)
        return replace(plan, start_q=start_q)

    def price_table(self, robot: int) -> np.ndarray:
        """f_r of every target subset, indexed by mask: one gather from the
        robot's plan. It counts as one value lookup of each mask."""
        plan, _ = self._entry(robot, 0)
        masks = np.arange(1 << self.n_tasks)
        table = plan.start_values[(plan.query.full_mask ^ masks) | plan.start_q]
        fresh = [m for m in range(len(table)) if (robot, m) not in self._values]
        self._values.update(((robot, m), float(table[m])) for m in fresh)
        self.solve_count += len(fresh)
        self.hit_count += len(table) - len(fresh)
        return table

    def value(self, robot: int, mask: int) -> float:
        key = (robot, mask)
        if key in self._values:
            self.hit_count += 1
            return self._values[key]
        plan, start_q = self._entry(robot, mask)
        success = self._values[key] = float(plan.start_values[start_q])
        self.solve_count += 1
        return success


@dataclass(frozen=True)
class RolloutResult:
    """Empirical success of a plan's rollouts, beside its planned value."""

    mode: str  # "model" or "joint"
    trials: int
    successes: int
    rate: float
    ci_low: float
    ci_high: float
    planned: float

    def to_dict(self) -> Dict:
        # bool(): json cannot write the numpy bool of a numpy bound's comparison
        inside = bool(self.ci_low <= self.planned <= self.ci_high)
        return {**asdict(self), "planned_in_ci": inside}


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """95% Wilson score interval of a binomial rate."""
    if trials <= 0:
        raise ValidationError("trials must be positive")
    z = WILSON_Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def rollout(
    result: PlanResult,
    trials: int,
    seed: int,
    model: Optional[HazardModel] = None,
) -> RolloutResult:
    """Simulate the policy and report its empirical success rate.

    Without a hazard model ("model" mode) each step draws contamination
    independently from the field (the process the DP optimizes, so the mean
    equals the DP value). With one ("joint" mode) each trial follows a full
    hazard trajectory from the field's own sampler (_joint_trajectories) and
    checks occupancy against it. Chunk sizes are fixed so results never
    depend on threading or platform parallelism. Each chunk draws its motion
    and its model-mode hazard from its own stream, keyed by (seed, chunk
    index).

    With deterministic motion a chunk prices the plan's one walk in either
    mode; tabular motion walks the trials one by one. Both count what the
    trial-by-trial walk counts on the same draws (_rollout_chunk).
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    query = result.query
    dyn = None if model is None else _dynamics(query.gridmap, model)
    successes = 0
    for ci, lo in enumerate(range(0, trials, _ROLLOUT_CHUNK)):
        m = min(_ROLLOUT_CHUNK, trials - lo)
        fired = None if dyn is None else _joint_trajectories(dyn, query.horizon, seed, ci, m)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, ci))))
        successes += _rollout_chunk(result, fired, rng, m)
    lo95, hi95 = wilson_interval(successes, trials)
    return RolloutResult(
        mode="model" if model is None else "joint", trials=trials,
        successes=successes, rate=successes / trials,
        ci_low=lo95, ci_high=hi95, planned=result.success,
    )


def _joint_trajectories(dyn, horizon: int, seed: int, ci: int, m: int) -> np.ndarray:
    """The hazard trajectories of joint chunk ci's m trials, as the field's
    sampler records them (hazard._sample_block): the step at which each
    (trial, cell) ignited. They are drawn in blocks of _block_size samples,
    so the working set stays a block's, and block b reads the stream
    SeedSequence((seed, ci), spawn_key=(b,)): the spawn key is a coordinate
    that neither the chunk's motion stream (seed, ci) nor a field block's
    (seed, b) has."""
    size = _block_size(horizon, dyn.gridmap.n_free)
    # int32 holds every step, in half the bytes of the sampler's int64
    fired = np.empty((m, dyn.gridmap.n_free + 1), dtype=np.int32)
    for b, lo in enumerate(range(0, m, size)):
        stream = np.random.SeedSequence((seed, ci), spawn_key=(b,))
        fired[lo:lo + size] = _sample_block(dyn, horizon, stream, min(size, m - lo))
    return fired


def _slot_tables(kernel: MotionKernel):
    """What _motion_slots draws from: None for deterministic motion, else the
    running sums of each (cell, action) row of slot probabilities and the
    row's last slot with mass."""
    if kernel.kind == "deterministic":
        return None
    probs = kernel.slot_probs
    last = N_ACTIONS - 1 - np.argmax(probs[:, :, ::-1] > 0, axis=2)
    return probs.cumsum(axis=2), last


def _motion_slots(tables, rng, x, act, m, live=slice(None)):
    """Realized landing slot per trial, from _slot_tables; one uniform per
    trial unless motion is deterministic. All m uniforms are drawn, and the
    ``live`` rows of them are used. A row may sum to up to KERNEL_ROW_TOL
    short of 1, and a draw at or above its sum lands on its last slot with
    mass."""
    if tables is None:
        return act
    cum, last = tables
    r = rng.random(m)[live]
    slots = (cum[x, act] <= r[:, None]).sum(axis=1)
    return np.minimum(slots, last[x, act])


def _rollout_chunk(
    result: PlanResult, fired: Optional[np.ndarray], rng: np.random.Generator, m: int
) -> int:
    """Successes of m trials of the policy. Each step draws the motion, then
    tests the hazard at the realized move: with no trajectories (model mode),
    one uniform per trial against the field's contamination probability of
    the move; with ``fired`` (joint mode), trial s is hit on arriving at
    step k on a cell that ignited at a step <= k of its trajectory. Every
    draw is made for all m trials, so the stream never depends on which
    trials are left.

    With deterministic motion no draw moves a trial, so every trial follows
    the plan's walk with no hit, one (cell, action) per step, until it is
    hit. If that walk does not complete the mission within the horizon, no
    trial succeeds. Otherwise each step of the walk runs the hit test for
    all m trials, as the trial-by-trial walk does, and a trial succeeds when
    no step up to the completing one hits it. The trial-by-trial walk stops
    drawing once no trial is left, and the draws it skips are never read, so
    the counts are equal.

    Otherwise only the trials still walking are moved: a trial leaves the
    arrays the step it is hit or completes the mission."""
    query = result.query
    gm = query.gridmap
    fld = query.field
    nbr = gm.neighbor_slots[:, :N_ACTIONS]
    tb = query.target_bits()
    full = query.full_mask
    start = gm.index(query.start)
    goal = gm.goal_index
    if fired is None:
        dead_at_start = fld.flagged[0, start]
        # u < p, not u >= p: a NaN probability hits no trial
        hit = lambda k, x, slot, dest, live: rng.random(m)[live] < fld.prob[k, x, slot]
    else:
        # every trajectory starts from the model's initial cells
        dead_at_start = fired[0, start] < 0
        hit = lambda k, x, slot, dest, live: fired[live, dest] <= k
    if dead_at_start:
        return 0
    if result.start_q == full and start == goal:
        return m
    tables = _slot_tables(query.kernel)
    if tables is None:
        steps, complete = result._walk()
        if not complete:
            return 0
        alive = np.ones(m, dtype=bool)
        for k, (x, slot) in enumerate(steps):
            alive &= ~hit(k, x, slot, nbr[x, slot], slice(None))
        return int(np.count_nonzero(alive))
    live = np.arange(m)  # trial ids still walking
    x = np.full(m, start, dtype=np.int64)
    q = np.full(m, result.start_q, dtype=np.int64)
    successes = 0
    for k in range(query.horizon):
        act = result.policy[k, q, x]
        slot = _motion_slots(tables, rng, x, act, m, live)
        dest = nbr[x, slot]
        struck = hit(k, x, slot, dest, live)
        x = dest
        q = q | tb[x]
        done = (q == full) & (x == goal)
        successes += int(np.count_nonzero(done & ~struck))
        walking = ~(struck | done)
        live, x, q = live[walking], x[walking], q[walking]
        if not live.size:
            break
    return successes
