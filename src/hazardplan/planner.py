"""Single-robot reachability planning against the contamination field.

A mission state is (q, x): the set of the robot's targets visited so far and
its cell, plus two absorbing outcomes (contaminated, or at the exit with every
target visited). Moves succeed per the motion kernel; arrival at x' survives
with probability 1 - p[k](x', x) from the contamination field. The planner
runs the standard backward finite-horizon recursion, maximizing the
probability of reaching the exit with all targets visited within the
horizon. Step k reads only step k + 1, so two value layers are kept. The
recursion sweeps blocks of visited-set columns, (n, c) with c the largest
power of two whose block fits _DP_TILE_BYTES, so that a block and its working
buffers stay in cache (_Sweep): every kernel term is a copy of whole block
rows, scaled per cell (a term that stays put only scales the block), and the
actions are compared and bounded block by block. Arriving on a target sets
its bit, so a block's target-cell rows read other visited sets: row d, read
at visited set q, holds the value at q | tb[d].

One driver, _sweep_sets, runs the recursion. Everything it allocates once
its bounds are known is sized by U, the visited sets some step sweeps: each
has a slot, one column of both (n, |U| + 1) value layers, and every set
outside U reads a shared all-zero column. Step k gathers the columns of the
sets it must sweep into (n, <= c) blocks and scatters their values back. It
has two modes.

- dp_values prices every visited set from the start, V^0(q, start) for all
  q, and keeps no policy: the lattice ObjectiveCache prices subsets from.
  Every visited set is a start state there, reached at step 0.
- dp_solve solves one mission from its start state (start_q, start) and keeps
  the policy of the states the start can reach: one int8 row of n actions
  per (step, visited set) swept, a set's rows laid out together from its
  last step swept down to its first, beside row 0, all STAY, which stands
  for every column not swept. PlanResult.action computes the row from the
  set's slot. Given several start states, on any cells, it sweeps once
  with the elementwise min of their reach bounds, so every column each of
  them reaches is swept, and their PlanResults share the policy.

Two Held-Karp bounds over one table of breadth-first grid distances, from
each target and from the start (_distance_table), say which columns a step
needs. need[q] (_finish_moves) bounds the moves any walk from (q, x),
whatever its cell, takes to visit the targets outside q and stand on the
exit; reach[q] (_reach_moves) bounds the moves from the start before the
walk has visited q's targets outside start_q. While every step from the
horizon down to k has all its contamination probabilities in [0, 1], a set
that needs more than horizon - k moves is worth +0.0 with policy STAY at
step k, which is what a sweep would write. Step k sweeps the sets with
need[q] <= horizon - k and reach[q] <= k, where the value mode's reach is 0:
every state the start reaches at step k is in one of them, and its value
reads only states the start reaches at step k + 1, so the values and policy
there are those of the full sweep. The slots are in order of need, so the
value mode sweeps a run of slots at every step. From a step with any other
probability down (NaN, or p outside [0, 1], as a hand-made field may hold) a
+0.0 may turn -0.0 or raise, so from there on every column is swept; and
such a field turns the reach bound off, so the policy mode then sweeps what
the value mode sweeps, value and policy bits and raised messages alike.

Since a visited target no longer matters, the mission "visit S" from (q, x)
is the mission "visit T" from (q | (T ^ S), x) for any T containing S. So
one value lattice over all of a scenario's targets T prices every subset:
the subset S starts in the visited set (T ^ S) | start_q. Each element of
the two modes' sweeps runs the same operations, so the subset's own
dp_solve has the same value bits. The same holds for policies:
ObjectiveCache.plans plans several (robot, subset) pairs in one policy
sweep over the union T of their subsets, each from its robot's start in
(T ^ S) | start_q, and each plan has the bits of the subset's own dp_solve
at every state its start reaches: its success, its walk and its actions.
A target contaminated at step 0 needs no special case: entering it has
probability 1 of contamination, so every mission that must visit it is
worth exactly 0.

rollout simulates a plan in chunks of trials with one hit test per step: a
uniform against the field's contamination probability of the move (model
mode), or whether the cell entered has ignited in the trial's hazard
trajectory, drawn by the field's own sampler (joint mode). With
deterministic motion no draw moves a trial, so every trial follows the
plan's one walk with no hit (PlanResult._walk, the walk greedy_path lists)
until it is hit, and a chunk is one hit test of all its trials per step of
that walk. In model mode a step of the walk with no risk (a probability that
is not > 0, which no uniform falls below) draws nothing: the chunk's stream
is advanced past its m uniforms, which leaves it where drawing them would.
Tabular motion moves the trials one by one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import CapExceededError, NumericViolationError, ValidationError
from .grid import Cell, GridMap, MotionKernel, MoveAction, N_ACTIONS
from .hazard import ContaminationField, HazardModel, _block_size, _dynamics, _sample_block

VALUE_TOL = 1e-9
MAX_TARGETS = 20
WILSON_Z95 = 1.959963984540054
_ROLLOUT_CHUNK = 16384
# Largest DP, in bytes of its policy and working layers: a quarter of an
# 8 GB machine, so a query that fits leaves room for the field, the
# allocators and whatever else runs beside it.
DP_TABLE_CAP = 2 << 30
# Bytes of one (n_free, c) float64 block of visited-set columns: c is the
# largest power of two that fits, so a block and its working buffers stay in
# a core's L2 cache. 256 KiB gives c = 128 on the 199 free cells of
# paper17x13; 512 KiB measured the same.
_DP_TILE_BYTES = 256 << 10
# Bytes per (cell, visited set) of one block's working buffers: an action's
# value and, when an action has several kernel terms, one term's product,
# plus two int8 buffers.
_DP_TILE_BUFFER_BYTES = 18
# What a DP holds beside them per (cell, visited set) of a block: the
# float64 block gathered from step k + 1, the copy that gathering a block
# of slots that are not a run makes first, and the block's values at step k.
_DP_BLOCK_BYTES = 24
# Bytes per (source, cell) of the breadth-first distance table and its search.
_DP_DISTANCE_BYTES = 32
# Bytes per visited set of what a DP holds while it computes its bounds,
# beside Held-Karp's (2^t, t) float32 path: the masks, sizes and fewest moves
# of _tour_moves, the bounds and their temporaries, first and last, and the
# slots in order of need.
_DP_SET_BYTES = 64
# Bytes per slot of U of a DP's per-slot arrays, beside the int32 remap
# index of each target: the sets, first and last steps, policy bases, and
# each step's live slots.
_DP_SLOT_BYTES = 64
# Bytes per (kernel term, cell) of the arrays a DP holds whatever its
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
    """dp_solve output: the greedy policy of the states the start reaches
    and the start-state value f = V^0(s0)."""

    query: PlanQuery
    policy: np.ndarray  # (1 + columns_swept, n_free) int8 action ids; row 0 is all STAY
    slot: np.ndarray  # (2^t,) each visited set's slot; every set never swept shares the last
    last: np.ndarray  # (slots,) the last step at which each slot's set is swept
    # (slots + 1,) slot s's policy rows are base[s] (step last[s]) up to
    # base[s + 1] - 1 (its first step swept); the last slot has none
    base: np.ndarray
    start_q: int  # the visited set the walk starts in
    success: float
    diagnostics: Tuple[str, ...] = ()
    columns_swept: int = 0  # (step, visited set) columns the DP swept

    def _row(self, k, q):
        """The policy row of step k and visited set q, 0 where the DP did
        not sweep them."""
        s = self.slot[q]
        row = self.base[s] + (self.last[s] - k)
        return row * ((self.base[s] <= row) & (row < self.base[s + 1]))

    def action(self, k, q, x):
        """The action at step k, visited set q and cell x, for scalars and
        index arrays alike. It is the full sweep's wherever the start can
        reach (k, q, x); a column the DP did not sweep reads STAY."""
        return self.policy[self._row(k, q), x]

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
            u = int(self.action(k, q, x))
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


def _grid_distances(gm: GridMap, sources: Sequence[int]) -> np.ndarray:
    """Fewest orthogonal moves from each cell index of ``sources`` to every
    free cell, one row per source, breadth first along neighbor_slots for
    all rows at once; inf where none leads. A move's reverse is a move, so
    the cells one move past the frontier are those with a neighbour in it."""
    n = gm.n_free
    nbr = gm.neighbor_slots[:, 1:N_ACTIONS]
    dist = np.full((len(sources), n), np.inf)
    dist[np.arange(len(sources)), sources] = 0.0
    frontier = dist == 0.0
    # column n stands for the missing neighbour, index -1, and is never reached
    padded = np.zeros((len(sources), n + 1), dtype=bool)
    moves = 0
    while frontier.any():
        moves += 1
        padded[:, :n] = frontier
        frontier = padded[:, nbr].any(axis=2) & np.isinf(dist)
        dist[frontier] = moves
    return dist


def _distance_table(
    query: PlanQuery, rows: Optional[Dict[int, np.ndarray]] = None
) -> np.ndarray:
    """(t + 1, n) _grid_distances from each target, in order, and last from
    the start: what the bounds on the moves and the diagnostics read.
    ``rows`` is a memo of rows by source cell index (a fresh one when None):
    only the sources it lacks run the search, and their rows join it; a row
    does not depend on the sources searched beside it."""
    gm = query.gridmap
    sources = [gm.index(c) for c in query.targets] + [gm.index(query.start)]
    rows = {} if rows is None else rows
    missing = [i for i in dict.fromkeys(sources) if i not in rows]
    if missing:
        rows.update(zip(missing, _grid_distances(gm, missing)))
    return np.array([rows[i] for i in sources])


def _tour_moves(between: np.ndarray, enter: np.ndarray, leave: np.ndarray) -> np.ndarray:
    """fewest[r] for every set r of the t targets: the fewest moves of a walk
    that takes enter[i] moves onto its first target i, between[i, j] from
    target i to target j, visits every target of r and takes leave[i] moves
    on from its last target i; fewest[0] is 0. Held-Karp, with inf where no
    walk does."""
    t = len(enter)
    nq = 1 << t
    # steps[i, j]: moves from target i to target j, and row t: onto j first
    steps = np.vstack([between, enter])
    masks = np.arange(nq)
    bits = 1 << np.arange(t)
    sizes = np.bitwise_count(masks)
    # path[r, i]: fewest moves from target i through every target of r and
    # on, for i outside r. fewest[r]: onto the first target of r and its
    # path; row t of steps makes it. Move counts are integers far below
    # 2^24, which float32 holds exactly, as it does inf.
    path = np.full((nq, t), np.inf, dtype=np.float32)
    path[0] = leave
    fewest = np.zeros(nq)
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
            fewest[r[:, 0]] = moves[:, t]
    return fewest


def _finish_moves(query: PlanQuery, dist: np.ndarray) -> np.ndarray:
    """need[q] for every visited set q: a lower bound on the moves that any
    walk from (q, x), whatever the cell x, takes to visit every target
    outside q and then stand on the exit. need[full] is 0. Otherwise it is
    1 plus the shortest grid path that starts on one of the targets left,
    visits the rest and ends on the exit (_tour_moves over ``dist``, the
    _distance_table). A move lands on a neighbour or stays put, and the
    first target left is entered by a move, a STAY onto it included, so no
    walk is shorter. inf ("never") where a target left cannot reach the
    exit."""
    t = len(query.targets)
    cells = [query.gridmap.index(c) for c in query.targets]
    left = _tour_moves(dist[:t, cells], np.ones(t), dist[:t, query.gridmap.goal_index])
    return left[(len(left) - 1) ^ np.arange(len(left))]


def _reach_moves(
    query: PlanQuery, dist: np.ndarray, start_q: Optional[int] = None
) -> np.ndarray:
    """reach[q] for every visited set q: a lower bound on the moves of any
    walk from the start state (start_q, the query's start) before its
    visited set is q; start_q defaults to the start cell's target bit. A
    walk has visited every target of q outside start_q by then, on one grid
    path from the start, so it is the shortest such path (_tour_moves over
    ``dist``, the _distance_table, read from the last target back to the
    start, as grid distances are symmetric); no walk reaches a superset of
    q sooner. inf where q lacks a target of start_q, or holds one the start
    cannot reach."""
    t = len(query.targets)
    if start_q is None:
        start_q = int(query.target_bits()[query.gridmap.index(query.start)])
    cells = [query.gridmap.index(c) for c in query.targets]
    fewest = _tour_moves(dist[:t, cells], np.zeros(t), dist[t, cells])
    masks = np.arange(len(fewest))
    return np.where(masks & start_q == start_q, fewest[masks ^ start_q], np.inf)


def _diagnose(query: PlanQuery, dist: np.ndarray, start_q: int) -> List[str]:
    """Reachability notes from the start row of ``dist``, the
    _distance_table, then the start's step-0 contamination or else each
    target's, for the targets outside start_q. A target on the start cell
    gets no note, so they are the notes of the query over those targets
    alone, started on the same cell."""
    gm = query.gridmap
    unreachable = np.isinf(dist[-1])
    targets = [c for b, c in enumerate(query.targets) if not start_q >> b & 1]
    diagnostics = []
    for cell in targets:
        if unreachable[gm.index(cell)]:
            diagnostics.append(f"target {tuple(cell)} unreachable from start {tuple(query.start)}")
    if unreachable[gm.goal_index]:
        diagnostics.append(f"exit {tuple(gm.goal)} unreachable from start {tuple(query.start)}")
    flagged = query.field.flagged[0]
    if flagged[gm.index(query.start)]:
        diagnostics.append(
            f"start {tuple(query.start)} is almost surely contaminated at step 0"
        )
        return diagnostics
    for c in targets:
        if flagged[gm.index(c)]:
            diagnostics.append(f"target {tuple(c)} is almost surely contaminated at step 0")
    return diagnostics


def _tile_columns(n_visited: int, n_free: int) -> int:
    """Visited sets per block of a DP: the largest power of two up to
    n_visited whose (n_free, c) float64 block fits _DP_TILE_BYTES, at least 1."""
    c = n_visited
    while c > 1 and n_free * c * 8 > _DP_TILE_BYTES:
        c >>= 1
    return c


def _bad_steps(fld: ContaminationField, horizon: int) -> np.ndarray:
    """The steps below ``horizon`` with a contamination probability outside
    [0, 1] or NaN, in increasing order."""
    prob = fld.prob[:horizon]
    # min and max hold NaN where a step does
    return np.flatnonzero(~((0.0 <= prob.min(axis=(1, 2))) & (prob.max(axis=(1, 2)) <= 1.0)))


def dp_table_bytes(n_targets: int, n_free: int) -> int:
    """Estimated peak bytes of a dp_values over n_targets targets: its
    bounds, and a sweep with every visited set in U and no policy."""
    return (dp_bounds_bytes(n_targets, n_free)
            + dp_policy_bytes(n_targets, n_free, 1 << n_targets, 0))


def dp_bounds_bytes(n_targets: int, n_free: int) -> int:
    """Estimated peak bytes of what a DP over n_targets targets holds
    before it knows the columns it sweeps: the distance table, Held-Karp's
    (2^t, t) path and one round of its sums, and the arrays of 2^t the
    bounds and the slots take."""
    nq = 1 << n_targets
    sums = min(nq * (n_targets + 1) * n_targets, 1 << 18) * 8
    return ((n_targets + 1) * n_free * _DP_DISTANCE_BYTES
            + nq * (4 * n_targets + _DP_SET_BYTES) + 2 * sums)


def dp_policy_bytes(n_targets: int, n_free: int, sets: int, swept: int) -> int:
    """Estimated bytes a DP over n_targets targets adds once its bounds are
    known, with ``sets`` visited sets in U and ``swept`` (step, visited
    set) policy rows: the two (n_free, sets + 1) float64 value layers, the
    policy of one int8 row of n_free per row and row 0, the per-slot arrays,
    the working buffers of one block and the kernel arrays of the most
    terms a kernel can have."""
    c = _tile_columns(1 << n_targets, n_free)
    return (2 * (sets + 1) * n_free * 8 + (1 + swept) * n_free
            + (sets + 2) * (_DP_SLOT_BYTES + 4 * n_targets)
            + c * n_free * (_DP_TILE_BUFFER_BYTES + _DP_BLOCK_BYTES)
            + N_ACTIONS * N_ACTIONS * n_free * _DP_TERM_BYTES)


def _refuse_past_cap(need: int, n_targets: int, n_free: int, horizon: Optional[int]) -> None:
    if need > DP_TABLE_CAP:
        steps = "" if horizon is None else f" and {horizon} steps"
        raise CapExceededError(
            f"planning {n_targets} targets over {n_free} cells{steps} "
            f"needs about {need / 2**30:.1f} GiB > cap {DP_TABLE_CAP / 2**30:.1f} GiB"
        )


def require_dp_table_fits(n_targets: int, n_free: int, horizon: Optional[int] = None) -> None:
    """Refuse a DP whose tables would pass DP_TABLE_CAP: a dp_values
    (dp_table_bytes), or with a horizon what a dp_solve holds before its
    bounds (dp_bounds_bytes). dp_solve prices the rest once its bounds say
    which columns it sweeps."""
    if horizon is None:
        need = dp_table_bytes(n_targets, n_free)
    else:
        need = dp_bounds_bytes(n_targets, n_free)
    _refuse_past_cap(need, n_targets, n_free, horizon)


class _Sweep:
    """One step of the backward recursion over a block of visited-set
    columns. Every kernel term is a row of (slot, weight per cell), grouped
    by action in order; an action with no term at any cell is skipped, as
    its value would never be written. A cell outside a term's support reads
    its own row with weight 0, so it adds exactly +0.0, and a term that
    lands every cell on itself (STAY) scales the block in place of a
    gather. The buffers hold blocks of up to c columns."""

    def __init__(self, query: PlanQuery, c: int):
        gm = query.gridmap
        n = gm.n_free
        slots, weights, actions = [], [], []
        for u in range(N_ACTIONS):
            terms = list(query.kernel.action_terms(u))
            if terms:
                actions.append((u, range(len(slots), len(slots) + len(terms))))
                slots += [j for j, _ in terms]
                weights += [w for _, w in terms]
        self.slots = slots
        self.weights = np.array(weights)
        self.sel = self.weights > 0
        dest = np.where(self.sel, gm.neighbor_slots[:, slots].T, np.arange(n))
        gathers = [None if (d == np.arange(n)).all() else d for d in dest]
        # each action's terms as (term index, gather)
        self.actions = [(u, [(i, gathers[i]) for i in terms]) for u, terms in actions]
        self.prob = query.field.prob
        self.goal = gm.goal_index
        self.acc = np.empty(n * c)
        self.tmp = np.empty(n * c) if len(slots) > len(actions) else None
        self.better = np.empty(n * c, dtype=np.int8)
        self.surv = None

    def at_step(self, k: int) -> None:
        """Read step k's survival of each term: a cell's weight times 1 - p,
        as an (n, 1) column for every column of a block."""
        surv = np.where(self.sel, self.weights * (1.0 - self.prob[k][:, self.slots].T), 0.0)
        self.surv = list(surv[:, :, np.newaxis])

    def _action(self, tile, terms, out, tmp):
        """Sum over an action's terms, in order, of survival times the block
        row the term lands on. Every index is valid; mode="clip" only spares
        the copy take makes of ``out`` under the default mode."""
        for j, (i, gather) in enumerate(terms):
            dst = tmp if j else out
            if gather is None:
                np.multiply(tile, self.surv[i], out=dst)
            else:
                tile.take(gather, axis=0, out=dst, mode="clip")
                dst *= self.surv[i]
            if j:
                out += tmp

    def block(self, tile, best, bestu=None, full_col=None):
        """Write the values at step k of the block ``tile`` of step k + 1,
        its target-cell rows remapped, into ``best``, both (n, m), and with
        ``bestu`` each value's action. full_col is the block's column of the
        full set, if it has one. Returns the values' min and max, and
        whether they lie within VALUE_TOL of [0, 1]; outside [0, 1] they are
        clipped."""
        size = tile.size
        shape = tile.shape
        acc = self.acc[:size].reshape(shape)
        tmp = None if self.tmp is None else self.tmp[:size].reshape(shape)
        better = self.better[:size].reshape(shape)
        # STAY is admissible and has mass at every cell, so best >= 0 after
        # it. An action inadmissible at a cell has no mass there and is
        # worth 0.0 there, which the strict > never picks.
        self._action(tile, self.actions[0][1], best, tmp)
        if bestu is not None:
            bestu.fill(MoveAction.STAY)
        for u, terms in self.actions[1:]:
            self._action(tile, terms, acc, tmp)
            if bestu is not None:
                np.greater(acc, best, out=better)
                # Actions come in increasing u, so bestu is below u: setting
                # u where acc > best is the max of bestu and u * better, with
                # no branch per entry as a masked copy has.
                better *= u
                np.maximum(bestu, better, out=bestu)
            np.maximum(best, acc, out=best)
        if full_col is not None:
            # The completed-mission state is absorbing.
            best[self.goal, full_col] = tile[self.goal, full_col]
            if bestu is not None:
                bestu[self.goal, full_col] = MoveAction.STAY
        lo = best.min()
        hi = best.max()
        # A block inside [0, 1] is its own clip. NaN fails both
        # comparisons, so a NaN value raises too.
        if 0.0 <= lo and hi <= 1.0:
            return lo, hi, True
        np.clip(best, 0.0, 1.0, out=best)
        return lo, hi, -VALUE_TOL <= lo and hi <= 1.0 + VALUE_TOL


def _raise_outside(k: int, lows, highs) -> None:
    raise NumericViolationError(
        f"value outside [0, 1] at step {k}: [{np.min(lows)}, {np.max(highs)}]"
    )


def _sweep_sets(query: PlanQuery, dist: np.ndarray, reach: np.ndarray, keep_policy: bool):
    """The backward recursion both DP modes run, over the visited sets some
    step sweeps. Step k sweeps the sets q with need[q] <= horizon - k
    (_finish_moves over ``dist``, the _distance_table) and reach[q] <= k. A
    field with a probability outside [0, 1] or NaN turns reach off and,
    from its last such step down, sweeps every visited set (see the module
    docstring). U is the sets some step sweeps, and the full set, whose 1.0
    at the goal at step horizon a swept set reads through q | tb[d]. Each
    set of U has a slot, in order of need, and a column of the two
    (n, |U| + 1) value layers; the last column, all zero, stands for every
    other set. A block of up to c slots swept at step k, in increasing
    slot, gathers its columns of step k + 1, with its target-cell rows read
    at q | tb[d], into the (n, <= c) block _Sweep takes, and its values at
    step k are scattered back. With keep_policy each swept (step, visited
    set) keeps one row of the int8 policy. The bounds and sweep are priced
    (dp_policy_bytes, with no policy rows unless one is kept) and refused
    past DP_TABLE_CAP before the sweep's arrays are allocated.

    Returns the value layer of step 0, the slot of each visited set, each
    slot's last step swept, the policy bases, the policy (None unless kept)
    and the number of columns swept."""
    gm = query.gridmap
    fld = query.field
    n = gm.n_free
    t = len(query.targets)
    nq = 1 << t
    horizon = query.horizon
    c = _tile_columns(nq, n)
    tb = query.target_bits()
    bad = _bad_steps(fld, horizon)
    last_bad = int(bad[-1]) if bad.size else -1
    # Visited set q is swept at the steps first[q] <= k <= last[q]. A set
    # the start cannot reach has first inf, and one that cannot finish last
    # -inf, so both are clipped to the steps before they are cast.
    first = (np.zeros(nq) if bad.size else reach).clip(0, horizon).astype(np.int64)
    need = _finish_moves(query, dist)
    last = np.maximum(horizon - need, last_bad).clip(-1, horizon - 1).astype(np.int64)
    # Slots in order of need, ties in q order: the full set, the one set
    # that needs no move, takes slot 0, and the sets that can finish in a
    # step's steps left are a prefix of the slots.
    sets = np.flatnonzero(first <= last)
    sets = sets[np.argsort(need[sets], kind="stable")]
    if not sets.size or sets[0] != nq - 1:
        sets = np.insert(sets, 0, nq - 1)
    units = len(sets)
    slot = np.full(nq, units, dtype=np.int32)
    slot[sets] = np.arange(units, dtype=np.int32)
    first, last = first[sets], last[sets]
    counts = np.maximum(last - first + 1, 0)
    columns_swept = int(counts.sum())
    rows_kept = columns_swept if keep_policy else 0
    _refuse_past_cap(dp_bounds_bytes(t, n) + dp_policy_bytes(t, n, units, rows_kept),
                     t, n, horizon)

    sweep = _Sweep(query, c)
    tcells = np.flatnonzero(tb)
    # remap[i, u]: the flat index, into a value layer, of target cell i's
    # row at visited set sets[u] | tb[i], the entry that row reads. The
    # layers fit the cap, so int32 holds it.
    remap = (tcells[:, np.newaxis] * (units + 1)
             + slot[sets | tb[tcells, np.newaxis]]).astype(np.int32)
    values = np.zeros((n, units + 1))
    values[gm.goal_index, 0] = 1.0
    nxt = np.zeros((n, units + 1))
    tile_buf = np.empty(n * c)
    best_buf = np.empty(n * c)
    bestu_buf = np.empty(n * c, dtype=np.int8)
    # 0 is MoveAction.STAY, the action of row 0. A slot's rows run from its
    # last step down to its first; the zero slot has none.
    policy = np.zeros((1 + rows_kept, n), dtype=np.int8) if keep_policy else None
    base = np.concatenate([[1], 1 + np.cumsum(counts), [1 + columns_swept]])
    for k in range(horizon - 1, -1, -1):
        live = np.flatnonzero((first <= k) & (k <= last))
        sweep.at_step(k)
        lows, highs = [], []
        inside = True
        for lo in range(0, len(live), c):
            s = live[lo:lo + c]
            m = len(s)
            # a run of slots, as every block of the value mode is, is a slice
            cols = slice(s[0], s[0] + m) if s[-1] - s[0] == m - 1 else s
            tile = tile_buf[:n * m].reshape(n, m)
            tile[...] = values[:, cols]
            tile[tcells] = values.take(remap[:, cols])
            best = best_buf[:n * m].reshape(n, m)
            bestu = bestu_buf[:n * m].reshape(n, m) if keep_policy else None
            full_col = 0 if s[0] == 0 else None  # the full set's slot is 0
            low, high, ok = sweep.block(tile, best, bestu, full_col)
            lows.append(low)
            highs.append(high)
            inside = inside and ok
            nxt[:, cols] = best
            if keep_policy:
                policy[base[s] + (last[s] - k)] = bestu.T
        if not inside:
            _raise_outside(k, lows, highs)
        values, nxt = nxt, values
    return values, slot, last, base, policy, columns_swept


def dp_values(
    query: PlanQuery,
    distance_rows: Optional[Dict[int, np.ndarray]] = None,
    starts: Optional[Sequence[Cell]] = None,
) -> np.ndarray:
    """The value lattice: V^0(q, start) for every visited set q, as a
    (2^t,) array, with no policy kept. The sweep does not depend on the
    start, so given ``starts`` it reads them all: a (2^t, len(starts))
    array, one column per start cell. ``distance_rows`` is the
    _distance_table memo, which an ObjectiveCache shares among its DPs.

    Every visited set is a start state of the lattice, so it is reached at
    step 0: _sweep_sets runs with reach 0 for every set and sweeps each
    set at every step at which it can still finish. A query whose bounds
    and layers (dp_table_bytes) would pass DP_TABLE_CAP raises
    CapExceededError before any bound is computed.
    """
    gm = query.gridmap
    t = len(query.targets)
    require_dp_table_fits(t, gm.n_free)
    start_idx = np.array([gm.index(s) for s in ([query.start] if starts is None else starts)])
    dist = _distance_table(query, distance_rows)
    values, slot, *_ = _sweep_sets(query, dist, np.zeros(1 << t), keep_policy=False)
    # Every move off a start contaminated at step 0 is contaminated, but a
    # start on the goal with nothing to visit is already complete.
    lattice = values[start_idx][:, slot]
    lattice *= ~query.field.flagged[0, start_idx, np.newaxis]
    return lattice[0] if starts is None else lattice.T


def dp_solve(
    query: PlanQuery,
    distance_rows: Optional[Dict[int, np.ndarray]] = None,
    starts: Optional[Sequence[Tuple[Cell, int]]] = None,
) -> Union[PlanResult, List[PlanResult]]:
    """One mission from its start state: f = V^0(start_q, start) and the
    greedy policy of the states the start can reach. ``distance_rows`` is
    as for dp_values.

    _sweep_sets runs with reach from _reach_moves and keeps the policy:
    each swept (step, visited set) keeps one row, which PlanResult.action
    reads. A query whose bounds would pass DP_TABLE_CAP
    (require_dp_table_fits) raises CapExceededError before computing them,
    and one whose bounds and sweep (dp_policy_bytes) would, before the
    sweep's arrays are allocated.

    Given ``starts``, (cell, visited set) start states, one sweep serves
    them all, and a list of PlanResults returns, one per start in order.
    Its reach is the elementwise min of theirs, so every column a start
    reaches is swept, and the results share the policy, slot, last and
    base. Each one's query is ``query`` on its start cell, and its
    diagnostics skip the targets its start state has visited.
    """
    gm = query.gridmap
    require_dp_table_fits(len(query.targets), gm.n_free, query.horizon)
    if starts is None:
        states = [(query, int(query.target_bits()[gm.index(query.start)]))]
    else:
        states = [(query if Cell(*cell) == query.start else replace(query, start=cell), int(q))
                  for cell, q in starts]
    rows = {} if distance_rows is None else distance_rows
    dists = [_distance_table(q, rows) for q, _ in states]
    reach = np.min([_reach_moves(q, d, start_q) for (q, start_q), d in zip(states, dists)], axis=0)
    values, slot, last, base, policy, columns_swept = _sweep_sets(
        query, dists[0], reach, keep_policy=True)
    last = np.append(last, -1)
    results = []
    for (q, start_q), dist in zip(states, dists):
        start_idx = gm.index(q.start)
        results.append(PlanResult(
            query=q,
            policy=policy,
            slot=slot,
            last=last,
            base=base,
            start_q=start_q,
            # as dp_values: a start contaminated at step 0 is worth 0
            success=float(values[start_idx, slot[start_q]]
                          * (not query.field.flagged[0, start_idx])),
            diagnostics=tuple(_diagnose(q, dist, start_q)),
            columns_swept=columns_swept,
        ))
    return results[0] if starts is None else results


class ObjectiveCache:
    """Memoized per-robot success probabilities over target subsets.

    Keys are (robot index, subset bitmask over the shared target list). The
    first value asked runs one dp_values over all the targets, the value
    lattice, read from every robot's start, and every (robot, subset) is a
    start state of it.
    plans(pairs) plans the (robot, mask) pairs not planned yet in one
    policy sweep, a dp_solve over the union of their masks with one start
    state per pair, and keeps each pair's plan; solve(robot, mask) is
    plans([(robot, mask)])[0], the subset's own dp_solve. solve_count
    counts the distinct (robot, mask) values priced and hit_count the
    repeat lookups; value_runs counts the dp_values runs and policy_runs
    the policy sweeps.
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
        # each robot's value of every subset, indexed by mask, all filled at once
        self._tables: Dict[int, np.ndarray] = {}
        self._plans: Dict[Tuple[int, int], PlanResult] = {}
        # Memo of the values asked for: a repeat lookup, the allocators' most
        # frequent call, skips the validation and the table lookup.
        self._values: Dict[Tuple[int, int], float] = {}
        # grid-distance rows by source cell, shared by every DP of the cache
        self._distance_rows: Dict[int, np.ndarray] = {}
        self.solve_count = 0
        self.hit_count = 0
        self.value_runs = 0
        self.policy_runs = 0

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

    def _check(self, robot: int, mask: int) -> None:
        if not 0 <= robot < self.n_robots:
            raise ValidationError(f"robot index {robot} out of range")
        if mask < 0 or mask >> self.n_tasks:
            raise ValidationError(f"target mask {mask} out of range")

    def _table(self, robot: int) -> np.ndarray:
        """The robot's value of every subset, from the one value lattice of
        all the targets, which reads every robot's start and fills every
        robot's table on first use: the robot's subset m starts in
        (full ^ m) | start_q, every target outside it counted as visited."""
        if not self._tables:
            query = self.query(robot, (1 << self.n_tasks) - 1)
            lattice = dp_values(query, self._distance_rows, self.starts)
            self.value_runs += 1
            tb = query.target_bits()
            masks = np.arange(len(lattice))
            for r, start in enumerate(self.starts):
                start_q = int(tb[self.gridmap.index(start)])
                table = lattice[(query.full_mask ^ masks) | start_q, r]
                table.flags.writeable = False
                self._tables[r] = table
        return self._tables[robot]

    def plans(self, pairs: Sequence[Tuple[int, int]]) -> List[PlanResult]:
        """Each (robot, mask)'s plan over the subset's own targets, in the
        order asked. The pairs not planned yet share one policy sweep over
        the union U of their masks: a subset m of robot r starts on r's
        cell in the visited set (U ^ m) | tb[start], every target of U
        outside m counted as visited, as the value lattice prices it. The
        sweep's reach covers every column each start reaches, so a plan's
        success, walk and actions there have the bits of the subset's own
        dp_solve; its query is the union's, on the robot's start."""
        for robot, mask in pairs:
            self._check(robot, mask)
        todo = [key for key in dict.fromkeys(pairs) if key not in self._plans]
        if todo:
            union = 0
            for _, mask in todo:
                union |= mask
            query = self.query(todo[0][0], union)
            tb = query.target_bits()
            # the union query's bit i is the shared list's bit shared[i]
            shared = [b for b in range(self.n_tasks) if union >> b & 1]
            starts = []
            for robot, mask in todo:
                start = self.starts[robot]
                visited = sum(1 << i for i, b in enumerate(shared) if not mask >> b & 1)
                starts.append((start, visited | int(tb[self.gridmap.index(start)])))
            self._plans.update(zip(todo, dp_solve(query, self._distance_rows, starts=starts)))
            self.policy_runs += 1
        return [self._plans[key] for key in pairs]

    def solve(self, robot: int, mask: int) -> PlanResult:
        """The robot's plan over the subset's own targets."""
        return self.plans([(robot, mask)])[0]

    def price_table(self, robot: int) -> np.ndarray:
        """f_r of every target subset, indexed by mask, read-only. It counts
        as one value lookup of each mask."""
        self._check(robot, 0)
        table = self._table(robot)
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
        self._check(robot, mask)
        success = self._values[key] = float(self._table(robot)[mask])
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
    trial-by-trial walk counts on the same draws (_rollout_chunk). In model
    mode a step of the one walk with no risk draws nothing: the chunk's
    stream is advanced past the m uniforms it would have drawn.
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
    size = _block_size(dyn.gridmap.n_free)
    # int32 holds every step, and is what _sample_block returns
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
            if fired is None and not fld.prob[k, x, slot] > 0:
                # no uniform falls below 0 or NaN, so this step hits no trial:
                # move the stream past the m uniforms the test would draw
                rng.bit_generator.advance(m)
            else:
                alive &= ~hit(k, x, slot, nbr[x, slot], slice(None))
        return int(np.count_nonzero(alive))
    live = np.arange(m)  # trial ids still walking
    x = np.full(m, start, dtype=np.int64)
    q = np.full(m, result.start_q, dtype=np.int64)
    successes = 0
    for k in range(query.horizon):
        act = result.action(k, q, x)
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
