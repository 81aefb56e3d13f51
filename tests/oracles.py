"""Independent reference implementations used to pin expected test values.

Everything here is written straight from the model definitions with plain
dictionaries and scalar loops, deliberately avoiding the vectorized forms in
the package, so that agreement between the two is a real check and not an
echo. Grid indexing types (Cell, free-cell indices) are shared because they
are conventions, not computations.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from hazardplan.allocation import (
    Bid,
    GreedyTrace,
    IterationRecord,
    ObjectiveSource,
    _product,
    auction_round,
    is_partition,
    pair_bit,
)
from hazardplan.errors import NumericViolationError, ValidationError
from hazardplan.grid import Cell, GridMap, MotionKernel, MoveAction, N_ACTIONS, N_SLOTS, _slot_of
from hazardplan.guarantees import RatioReport
from hazardplan.hazard import (
    EXACT_HAZARD_CELL_CAP,
    FIELD_SUM_TOL,
    HazardModel,
    _SpreadDynamics,
    _cells_to_bits,
    _dynamics,
    _exact_step,
    _live_states,
    _require_exact_size,
)
from hazardplan.planner import VALUE_TOL, _motion_slots, _slot_tables

SQRT2 = math.sqrt(2.0)
ORTH_STEPS = ((0, 1), (1, 0), (0, -1), (-1, 0))
DIAG_STEPS = ((1, 1), (1, -1), (-1, -1), (-1, 1))
ALL_STEPS = ORTH_STEPS + DIAG_STEPS
ACTION_STEPS = {
    MoveAction.STAY: (0, 0),
    MoveAction.NORTH: (0, 1),
    MoveAction.EAST: (1, 0),
    MoveAction.SOUTH: (0, -1),
    MoveAction.WEST: (-1, 0),
}


def shift(cell: Cell, step: Tuple[int, int]) -> Cell:
    return Cell(cell.col + step[0], cell.row + step[1])


def theta_by_nearest_source(gm: GridMap, sources) -> Dict[Cell, float]:
    """Per-cell spread speed: min 8-neighbor BFS distance through free cells,
    earlier source winning distance ties. Computed source by source so the
    tie rule is explicit rather than an artifact of one shared queue."""
    best: Dict[Cell, Tuple[int, int]] = {}
    theta: Dict[Cell, float] = {c: 0.0 for c in gm.cells}
    for si, src in enumerate(sources):
        dist = {c: 0 for c in sorted(src.cells)}
        queue = deque(sorted(src.cells))
        while queue:
            cur = queue.popleft()
            for step in ALL_STEPS:
                nb = shift(cur, step)
                if gm.is_free(nb) and nb not in dist:
                    dist[nb] = dist[cur] + 1
                    queue.append(nb)
        for cell, d in dist.items():
            if cell not in best or (d, si) < best[cell]:
                best[cell] = (d, si)
                theta[cell] = src.theta
    return theta


def stay_clear_prob(gm: GridMap, theta: Dict[Cell, float], burning: FrozenSet[Cell], x: Cell) -> float:
    """P(clear cell x survives one spread step), straight from the product
    form: each burning orthogonal neighbor m contributes 1 - theta(m), each
    burning diagonal neighbor 1 - theta(m)/sqrt(2)."""
    if x in burning:
        return 0.0
    p = 1.0
    for step in ORTH_STEPS:
        nb = shift(x, step)
        if nb in burning and gm.is_free(nb):
            p *= 1.0 - theta[nb]
    for step in DIAG_STEPS:
        nb = shift(x, step)
        if nb in burning and gm.is_free(nb):
            p *= 1.0 - theta[nb] / SQRT2
    return p


def spread_step_distribution(
    gm: GridMap, theta: Dict[Cell, float], burning: FrozenSet[Cell]
) -> Dict[FrozenSet[Cell], float]:
    """Exact one-step law of the contamination set: clear cells ignite
    independently, burning cells stay burning."""
    risky: List[Tuple[Cell, float]] = []
    for cell in gm.cells:
        if cell in burning:
            continue
        q = 1.0 - stay_clear_prob(gm, theta, burning, cell)
        if q > 0.0:
            risky.append((cell, q))
    out: Dict[FrozenSet[Cell], float] = {}
    for combo in range(1 << len(risky)):
        extra = set()
        p = 1.0
        for i, (cell, q) in enumerate(risky):
            if combo >> i & 1:
                extra.add(cell)
                p *= q
            else:
                p *= 1.0 - q
        key = burning | frozenset(extra)
        out[key] = out.get(key, 0.0) + p
    return out


def exact_field_oracle(gm: GridMap, sources, horizon: int):
    """Reference contamination transition field.

    prob[k, i, j] = P(slot-j cell of i contaminated at k+1 | i clear at k),
    with undefined conditionings flagged and set to 1, invalid slots 0.
    """
    theta = theta_by_nearest_source(gm, sources)
    initial = frozenset(c for src in sources for c in src.cells)
    n = gm.n_free
    slot_cells = []
    for i, cell in enumerate(gm.cells):
        row = [cell] + [shift(cell, s) for s in ORTH_STEPS]
        slot_cells.append(row)
    prob = np.zeros((horizon, n, 5))
    flagged = np.zeros((horizon, n), dtype=bool)
    dist: Dict[FrozenSet[Cell], float] = {initial: 1.0}
    for k in range(horizon):
        den = np.zeros(n)
        num = np.zeros((n, 5))
        for burning, p in dist.items():
            for i, cell in enumerate(gm.cells):
                if cell in burning:
                    continue
                den[i] += p
                for j, dest in enumerate(slot_cells[i]):
                    if not gm.is_free(dest):
                        continue
                    if dest in burning:
                        num[i, j] += p
                    else:
                        num[i, j] += p * (1.0 - stay_clear_prob(gm, theta, burning, dest))
        for i in range(n):
            if den[i] == 0.0:
                flagged[k, i] = True
                prob[k, i, :] = 1.0
            else:
                prob[k, i, :] = num[i] / den[i]
            for j, dest in enumerate(slot_cells[i]):
                if not gm.is_free(dest):
                    prob[k, i, j] = 0.0
        nxt: Dict[FrozenSet[Cell], float] = {}
        for burning, p in dist.items():
            for key, q in spread_step_distribution(gm, theta, burning).items():
                nxt[key] = nxt.get(key, 0.0) + p * q
        dist = nxt
    return prob, flagged


def contamination_marginals_oracle(gm: GridMap, sources, horizon: int) -> np.ndarray:
    """Exact P(cell contaminated at the horizon) by joint-set propagation."""
    theta = theta_by_nearest_source(gm, sources)
    initial = frozenset(c for src in sources for c in src.cells)
    dist: Dict[FrozenSet[Cell], float] = {initial: 1.0}
    for _ in range(horizon):
        nxt: Dict[FrozenSet[Cell], float] = {}
        for burning, p in dist.items():
            for key, q in spread_step_distribution(gm, theta, burning).items():
                nxt[key] = nxt.get(key, 0.0) + p * q
        dist = nxt
    out = np.zeros(gm.n_free)
    for burning, p in dist.items():
        for cell in burning:
            out[gm.index(cell)] += p
    return out


def _mission_inputs(query):
    gm = query.gridmap
    tb = [0] * gm.n_free
    for b, cell in enumerate(query.targets):
        tb[gm.index(cell)] |= 1 << b
    full = (1 << len(query.targets)) - 1
    return gm, tb, full


def _flagged_stub(query) -> bool:
    gm = query.gridmap
    fld = query.field
    if fld.flagged[0, gm.index(query.start)]:
        return True
    return any(fld.flagged[0, gm.index(c)] for c in query.targets)


def best_open_loop_success(query) -> float:
    """Exhaustive trajectory enumeration for deterministic motion.

    Under a deterministic kernel the closed loop gains nothing over the best
    open-loop action sequence, so the optimum is a max over at most 5^N
    root-to-leaf walks, each scored by its product of per-step survivals. No
    value recursion is involved.
    """
    if query.kernel.kind != "deterministic":
        raise ValueError("trajectory enumeration assumes deterministic motion")
    if _flagged_stub(query):
        return 0.0
    gm, tb, full = _mission_inputs(query)
    fld = query.field
    goal = gm.goal_index
    start = gm.index(query.start)
    q0 = tb[start]

    def walk(k: int, q: int, x: int, survival: float) -> float:
        if q == full and x == goal:
            return survival
        if k == query.horizon:
            return 0.0
        best = 0.0
        for u in MoveAction:
            dest_cell = shift(gm.cells[x], ACTION_STEPS[u])
            if not gm.is_free(dest_cell):
                continue
            dest = gm.index(dest_cell)
            live = survival * (1.0 - float(fld.prob[k, x, int(u)]))
            if live <= best:
                continue
            got = walk(k + 1, q | tb[dest], dest, live)
            if got > best:
                best = got
        return best

    return walk(0, q0, start, 1.0)


def value_recursion_oracle(query) -> float:
    """Memoized scalar Bellman recursion over (step, visited, cell).

    Handles stochastic motion kernels; shares nothing with the package DP but
    the state definition and the field entries it conditions on.
    """
    if _flagged_stub(query):
        return 0.0
    gm, tb, full = _mission_inputs(query)
    fld = query.field
    kernel = query.kernel
    goal = gm.goal_index
    memo: Dict[Tuple[int, int, int], float] = {}

    def value(k: int, q: int, x: int) -> float:
        if q == full and x == goal:
            return 1.0
        if k == query.horizon:
            return 0.0
        key = (k, q, x)
        if key in memo:
            return memo[key]
        best = 0.0
        for u in MoveAction:
            if not gm.is_free(shift(gm.cells[x], ACTION_STEPS[u])):
                continue
            acc = 0.0
            for j in range(5):
                pm = float(kernel.slot_probs[x, int(u), j])
                if pm == 0.0:
                    continue
                dest_cell = shift(gm.cells[x], ACTION_STEPS[MoveAction(j)])
                dest = gm.index(dest_cell)
                surv = pm * (1.0 - float(fld.prob[k, x, j]))
                if surv > 0.0:
                    acc += surv * value(k + 1, q | tb[dest], dest)
            if acc > best:
                best = acc
        # dp_solve clips each step's values to [0, 1] as probabilities; a
        # kernel row summing to 1 + 2**-52 would otherwise carry 1 + 2**-52
        best = min(best, 1.0)
        memo[key] = best
        return best

    start = gm.index(query.start)
    return value(0, tb[start], start)


def shortest_visiting_walk(
    gm: GridMap, start: Cell, targets: Sequence[Cell]
) -> Optional[int]:
    """Fewest moves to visit every target and end at the exit; None if cut off."""
    tb = {c: 0 for c in gm.cells}
    for b, cell in enumerate(targets):
        tb[Cell(*cell)] |= 1 << b
    full = (1 << len(targets)) - 1
    q0 = tb[Cell(*start)]
    init = (q0, Cell(*start))
    seen = {init}
    frontier = deque([(init, 0)])
    while frontier:
        (q, x), d = frontier.popleft()
        if q == full and x == gm.goal:
            return d
        for step in ORTH_STEPS:
            nb = shift(x, step)
            if not gm.is_free(nb):
                continue
            state = (q | tb[nb], nb)
            if state not in seen:
                seen.add(state)
                frontier.append((state, d + 1))
    return None


def naive_ratios(values: Sequence[float], n: int):
    """Triple-loop curvature and submodularity ratio over a 2^n value table.

    Scans every element e, superset chain B (e not in B) and A subset of B,
    A = B included. Marginals rho = F(S + e) - F(S). Chains with rho_B = 0 are
    skipped and counted: once per subset A for alpha, once per negative rho_A
    for gamma. Results clamp to [0, 1].
    """
    F = list(map(float, values))
    alpha = 0.0
    gamma = 1.0
    skipped_alpha = 0
    skipped_gamma = 0
    for e in range(n):
        bit = 1 << e
        for b_mask in range(1 << n):
            if b_mask & bit:
                continue
            rho_b = F[b_mask | bit] - F[b_mask]
            sub = b_mask
            while True:
                rho_a = F[sub | bit] - F[sub]
                if rho_b < 0.0:
                    alpha = max(alpha, 1.0 - rho_a / rho_b)
                    if rho_a < 0.0:
                        gamma = min(gamma, rho_b / rho_a)
                elif rho_b == 0.0:
                    skipped_alpha += 1
                    if rho_a < 0.0:
                        skipped_gamma += 1
                if sub == 0:
                    break
                sub = (sub - 1) & b_mask
    return min(1.0, max(0.0, alpha)), min(1.0, max(0.0, gamma)), skipped_alpha, skipped_gamma


def exact_joint_policy_success(result, sources) -> float:
    """Exact success probability of a fixed policy under the joint process.

    Tracks the full distribution over (visited, cell, contamination set).
    Spread and motion advance together each step; the robot is lost the
    moment its arrival cell is contaminated at the new time, and success is
    absorbing. Mirrors the simulation semantics, not its sampling."""
    query = result.query
    gm, tb, full = _mission_inputs(query)
    theta = theta_by_nearest_source(gm, sources)
    initial = frozenset(c for src in sources for c in src.cells)
    start = gm.index(query.start)
    goal = gm.goal_index
    if query.start in initial:
        return 0.0
    q0 = tb[start]
    if q0 == full and start == goal:
        return 1.0
    dist: Dict[Tuple[int, int, FrozenSet[Cell]], float] = {(q0, start, initial): 1.0}
    success = 0.0
    for k in range(query.horizon):
        nxt: Dict[Tuple[int, int, FrozenSet[Cell]], float] = {}
        for (q, x, burning), p in dist.items():
            u = int(result.policy[k, q, x])
            spread = spread_step_distribution(gm, theta, burning)
            for j in range(5):
                pm = float(query.kernel.slot_probs[x, u, j])
                if pm == 0.0:
                    continue
                dest_cell = shift(gm.cells[x], ACTION_STEPS[MoveAction(j)])
                dest = gm.index(dest_cell)
                for burning2, ps in spread.items():
                    mass = p * pm * ps
                    if mass == 0.0:
                        continue
                    if dest_cell in burning2:
                        continue
                    q2 = q | tb[dest]
                    if q2 == full and dest == goal:
                        success += mass
                    else:
                        key = (q2, dest, burning2)
                        nxt[key] = nxt.get(key, 0.0) + mass
        dist = nxt
    return success


def model_mode_policy_success(result) -> float:
    """Exact success probability of a fixed policy when hazard strikes are
    drawn independently per step from the field, the process the planner
    optimizes. Evaluates the policy (not the optimum) by forward propagation
    over (visited, cell)."""
    query = result.query
    gm, tb, full = _mission_inputs(query)
    fld = query.field
    start = gm.index(query.start)
    goal = gm.goal_index
    if fld.flagged[0, start]:
        return 0.0
    q0 = tb[start]
    if q0 == full and start == goal:
        return 1.0
    dist: Dict[Tuple[int, int], float] = {(q0, start): 1.0}
    success = 0.0
    for k in range(query.horizon):
        nxt: Dict[Tuple[int, int], float] = {}
        for (q, x), p in dist.items():
            u = int(result.policy[k, q, x])
            for j in range(5):
                pm = float(query.kernel.slot_probs[x, u, j])
                if pm == 0.0:
                    continue
                dest_cell = shift(gm.cells[x], ACTION_STEPS[MoveAction(j)])
                dest = gm.index(dest_cell)
                live = p * pm * (1.0 - float(fld.prob[k, x, j]))
                if live == 0.0:
                    continue
                q2 = q | tb[dest]
                if q2 == full and dest == goal:
                    success += live
                else:
                    key = (q2, dest)
                    nxt[key] = nxt.get(key, 0.0) + live
        dist = nxt
    return success


def brute_force_partitions(value, n_robots: int, n_tasks: int) -> Tuple[Tuple[int, ...], float]:
    """Reference optimum over labeled task-to-robot assignments."""
    best = None
    best_masks = None
    for code in range(n_robots**n_tasks):
        masks = [0] * n_robots
        c = code
        for t in range(n_tasks):
            masks[c % n_robots] |= 1 << t
            c //= n_robots
        prod = 1.0
        for r in range(n_robots):
            prod *= value(r, masks[r])
        if best is None or prod > best:
            best = prod
            best_masks = tuple(masks)
    return best_masks, float(best)


# --- Stay-clear kernel and Monte-Carlo sampler, kept as the references ------
#
# The package reads stay-clear products from a per-cell table indexed by
# neighbour codes, and its sampler works from each step's ignitions. These
# are the dense forms it replaced: eight np.where passes per call, and a
# sampler that rebuilds every (sample, cell) probability and recounts every
# slot each step. The package must agree with them bit for bit.


def _clear_probs(dyn: _SpreadDynamics, contaminated: np.ndarray) -> np.ndarray:
    """Row-wise stay-clear probabilities for a (samples, n_free) contamination
    matrix; entries at contaminated cells are forced to 0."""
    nbr = dyn.gridmap.neighbor_slots
    pnc = np.ones_like(contaminated, dtype=np.float64)
    for j in range(1, N_SLOTS):
        idx = nbr[:, j]
        valid = idx >= 0
        if not np.any(valid):
            continue
        weights = dyn.w_orth if j < N_ACTIONS else dyn.w_diag
        sel = idx[valid]
        factors = np.where(contaminated[:, sel], weights[sel], 1.0)
        pnc[:, valid] *= factors
    pnc[contaminated] = 0.0
    return pnc


def reference_sample_chunk(
    dyn: _SpreadDynamics,
    horizon: int,
    seed: int,
    start: int,
    stop: int,
):
    """Simulate trajectories for samples [start, stop) on their own RNG
    streams. Chunking and threading never change the draws a sample sees."""
    gm = dyn.gridmap
    n = gm.n_free
    m = stop - start
    nbr = gm.neighbor_slots[:, :N_ACTIONS]
    uniforms = np.empty((m, horizon, n))
    for row, i in enumerate(range(start, stop)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        uniforms[row] = rng.random((horizon, n))
    contam = np.broadcast_to(dyn.initial, (m, n)).copy()
    den = np.zeros((horizon, n), dtype=np.int64)
    num = np.zeros((horizon, n, N_ACTIONS), dtype=np.int64)
    for k in range(horizon):
        clear = ~contam
        pc = 1.0 - _clear_probs(dyn, contam)
        ignite = clear & (uniforms[:, k, :] < pc)
        nxt = contam | ignite
        den[k] += clear.sum(axis=0)
        for j in range(N_ACTIONS):
            idx = nbr[:, j]
            valid = idx >= 0
            if not np.any(valid):
                continue
            hits = clear[:, valid] & nxt[:, idx[valid]]
            num[k, valid, j] += hits.sum(axis=0)
        contam = nxt
    final = contam.sum(axis=0, dtype=np.int64)
    return den, num, final


# --- Scalar exact propagation, kept as the bit-for-bit reference -----------
#
# Unlike the scalar oracles, these loops use the dense stay-clear kernel
# (_clear_probs above), which the package's table reproduces bit for bit, on
# purpose: they pin the propagation's arithmetic order, so the vectorized
# propagation must agree with them exactly, not approximately.


def _reference_step(dyn, masks: Dict[int, float]) -> Dict[int, float]:
    """One exact step over {bitmask: probability}, state by state and combo
    by combo; outcome keys keep their order of first appearance."""
    n = dyn.gridmap.n_free
    out: Dict[int, float] = {}
    for m, p in masks.items():
        if p == 0.0:
            continue
        y = np.array([(m >> i) & 1 for i in range(n)], dtype=bool)
        pc = 1.0 - _clear_probs(dyn, y[np.newaxis])[0]
        forced = m
        uncertain: List[Tuple[int, float]] = []
        for i in np.nonzero(~y)[0]:
            q = float(pc[i])
            if q >= 1.0:
                forced |= 1 << int(i)
            elif q > 0.0:
                uncertain.append((int(i), q))
        for combo in range(1 << len(uncertain)):
            key = forced
            prob = p
            for idx, (cell_bit, q) in enumerate(uncertain):
                if combo >> idx & 1:
                    key |= 1 << cell_bit
                    prob *= q
                else:
                    prob *= 1.0 - q
            out[key] = out.get(key, 0.0) + prob
    return out


def reference_step_distribution(gm: GridMap, model, dist):
    """hazard_step_exact computed with the scalar reference step."""
    masks: Dict[int, float] = {}
    for cells, p in dist.items():
        m = 0
        for c in cells:
            m |= 1 << gm.index(Cell(*c))
        masks[m] = masks.get(m, 0.0) + float(p)
    out = _reference_step(_dynamics(gm, model), masks)
    return {
        frozenset(gm.cells[i] for i in range(gm.n_free) if m >> i & 1): p
        for m, p in out.items()
    }


def reference_exact_propagation(gm: GridMap, model, horizon: int):
    """(prob, flagged, marginals) by the scalar dict propagation: per-state
    accumulation of the field numerators and denominators, then one
    reference step per time step. Row k of marginals sums the distribution
    after k steps, so it is the last row of a run to horizon k."""
    dyn = _dynamics(gm, model)
    n = gm.n_free
    nbr = gm.neighbor_slots[:, :5]
    init_mask = 0
    for i in np.nonzero(dyn.initial)[0]:
        init_mask |= 1 << int(i)
    dist: Dict[int, float] = {init_mask: 1.0}
    prob = np.zeros((horizon, n, 5))
    flagged = np.zeros((horizon, n), dtype=bool)
    marginals = np.zeros((horizon + 1, n))
    for k in range(horizon + 1):
        for m, p in dist.items():
            for i in range(n):
                if m >> i & 1:
                    marginals[k, i] += p
        if k == horizon:
            break
        den = np.zeros(n)
        num = np.zeros((n, 5))
        for m, p in dist.items():
            if p == 0.0:
                continue
            y = np.array([(m >> i) & 1 for i in range(n)], dtype=bool)
            pc_next = 1.0 - _clear_probs(dyn, y[np.newaxis])[0]
            pc_next[y] = 1.0
            clear = ~y
            den += p * clear
            for j in range(5):
                idx = nbr[:, j]
                valid = (idx >= 0) & clear
                if not np.any(valid):
                    continue
                num[valid, j] += p * pc_next[idx[valid]]
        flag_k = den == 0.0
        flagged[k] = flag_k
        safe = np.where(flag_k, 1.0, den)
        prob[k] = num / safe[:, np.newaxis]
        prob[k, flag_k, :] = 1.0
        dist = _reference_step(dyn, dist)
    prob[:, nbr < 0] = 0.0
    prob = np.clip(prob, 0.0, 1.0)
    return prob, flagged, marginals


# --- Allocation references ---------------------------------------------------
#
# One greedy loop per direction, each spelling out its own bid, settle and
# record steps. The package's single auction loop must reproduce their
# (masks, trace) exactly, floats included. Below them, the exact ratio scan
# restricted to feasible chains, which bounds the full scan from inside.


def reference_forward_greedy(source: ObjectiveSource) -> Tuple[Tuple[int, ...], GreedyTrace]:
    """Assign every task by repeated auctions, growing sets from empty.

    Each round, only robots whose previous bid died (their task was just
    assigned) recompute; the winner applies its bid and the task closes.
    Robots that cannot succeed even unburdened (f_r(empty) = 0) are excluded
    from bidding and from the winner products, with a note.
    """
    n_r, n_t = source.n_robots, source.n_tasks
    solves0 = source.solve_count
    masks = [0] * n_r
    if n_t == 0:
        trace = GreedyTrace(
            kind="forward", n_robots=n_r, n_tasks=0,
            start_masks=tuple(masks), baseline_f=tuple(source.value(r, 0) for r in range(n_r)),
            allocation=tuple(masks), notes=("degenerate: no tasks to assign",),
            plan_solves=source.solve_count - solves0,
        )
        return tuple(masks), trace
    f_empty = [source.value(r, 0) for r in range(n_r)]
    excluded = tuple(r for r in range(n_r) if f_empty[r] <= 0.0)
    active = [r for r in range(n_r) if r not in excluded]
    notes: List[str] = []
    if excluded:
        notes.append(
            "robots excluded (zero success probability with no tasks): "
            + ", ".join(str(r) for r in excluded)
        )
    if not active:
        masks[0] = (1 << n_t) - 1
        notes.append("degenerate: every robot has zero base success; all tasks parked on robot 0")
        trace = GreedyTrace(
            kind="forward", n_robots=n_r, n_tasks=n_t,
            start_masks=(0,) * n_r, baseline_f=tuple(f_empty),
            allocation=tuple(masks), excluded=excluded, notes=tuple(notes),
            plan_solves=source.solve_count - solves0,
        )
        return tuple(masks), trace
    f_cur: Dict[int, float] = {r: f_empty[r] for r in range(n_r)}
    open_tasks = set(range(n_t))
    to_bid = set(active)
    bids: Dict[int, Bid] = {}
    trace = GreedyTrace(
        kind="forward", n_robots=n_r, n_tasks=n_t,
        start_masks=(0,) * n_r, baseline_f=tuple(f_empty),
        excluded=excluded, notes=tuple(notes),
    )
    for k in range(1, n_t + 1):
        evaluations: Dict[int, Tuple[Tuple[int, float], ...]] = {}
        for r in sorted(to_bid):
            evals: List[Tuple[int, float]] = []
            best: Tuple[int, float] | None = None
            for t in sorted(open_tasks):
                v = source.value(r, masks[r] | (1 << t))
                d = v - f_cur[r]
                evals.append((t, d))
                if best is None or d > best[1]:
                    best = (t, d)
            evaluations[r] = tuple(evals)
            bids[r] = Bid(r, best[0], best[1])
        for r in active:
            if bids[r].task not in open_tasks:
                raise NumericViolationError("stale bid survived a task closure")
        live = {r: f_cur[r] for r in active}
        winner = auction_round([bids[r] for r in sorted(bids)], live)
        wb = bids[winner]
        masks_before = tuple(masks)
        f_before = tuple(f_cur[r] for r in range(n_r))
        obj_before = _product(f_cur[r] for r in active)
        round_bids = tuple(sorted(bids.values(), key=lambda b: b.robot))
        masks[winner] |= 1 << wb.task
        f_cur[winner] = f_cur[winner] + wb.delta
        open_tasks.discard(wb.task)
        to_bid = {r for r in active if bids[r].task == wb.task}
        bids = {r: b for r, b in bids.items() if b.task != wb.task}
        trace.iterations.append(
            IterationRecord(
                index=k,
                open_tasks=tuple(sorted(open_tasks | {wb.task})),
                recomputed=tuple(sorted(evaluations)),
                masks_before=masks_before,
                f_before=f_before,
                bids=round_bids,
                evaluations=evaluations,
                winner=winner,
                winning_task=wb.task,
                masks_after=tuple(masks),
                f_after=tuple(f_cur[r] for r in range(n_r)),
                objective_before=obj_before,
                objective_after=_product(f_cur[r] for r in active),
                task_closed=True,
            )
        )
    trace.allocation = tuple(masks)
    trace.plan_solves = source.solve_count - solves0
    return tuple(masks), trace


def reference_reverse_greedy(source: ObjectiveSource) -> Tuple[Tuple[int, ...], GreedyTrace]:
    """Start with every robot holding every task; auction removals until each
    task keeps exactly one owner. A bid offers to drop one still-shared task,
    its value being the f_r gain; a task leaves the open set the moment a
    single holder remains."""
    n_r, n_t = source.n_robots, source.n_tasks
    solves0 = source.solve_count
    full = (1 << n_t) - 1
    masks = [full] * n_r
    baseline = tuple(source.value(r, full) for r in range(n_r))
    trace = GreedyTrace(
        kind="reverse", n_robots=n_r, n_tasks=n_t,
        start_masks=tuple(masks), baseline_f=baseline,
    )
    if n_t == 0 or n_r == 1:
        trace.allocation = tuple(masks)
        trace.notes = ("degenerate: nothing to remove",)
        trace.plan_solves = source.solve_count - solves0
        return tuple(masks), trace
    f_cur: Dict[int, float] = {r: baseline[r] for r in range(n_r)}
    open_tasks = set(range(n_t))
    to_bid = set(range(n_r))
    bids: Dict[int, Bid] = {}
    for k in range(1, n_t * (n_r - 1) + 1):
        evaluations: Dict[int, Tuple[Tuple[int, float], ...]] = {}
        for r in sorted(to_bid):
            domain = [t for t in sorted(open_tasks) if masks[r] >> t & 1]
            if not domain:
                bids.pop(r, None)
                evaluations[r] = ()
                continue
            evals: List[Tuple[int, float]] = []
            best: Tuple[int, float] | None = None
            for t in domain:
                v = source.value(r, masks[r] & ~(1 << t))
                d = v - f_cur[r]
                evals.append((t, d))
                if best is None or d > best[1]:
                    best = (t, d)
            evaluations[r] = tuple(evals)
            bids[r] = Bid(r, best[0], best[1])
        if not bids:
            raise NumericViolationError("no legal removal bid although copies remain")
        winner = auction_round([bids[r] for r in sorted(bids)], dict(f_cur))
        wb = bids[winner]
        masks_before = tuple(masks)
        f_before = tuple(f_cur[r] for r in range(n_r))
        obj_before = _product(f_cur.values())
        masks[winner] &= ~(1 << wb.task)
        f_cur[winner] = f_cur[winner] + wb.delta
        holders = sum(1 for r in range(n_r) if masks[r] >> wb.task & 1)
        all_bids = tuple(sorted(bids.values(), key=lambda b: b.robot))
        if holders == 1:
            open_tasks.discard(wb.task)
            to_bid = {r for r, b in bids.items() if b.task == wb.task}
            bids = {r: b for r, b in bids.items() if b.task != wb.task}
            closed = True
        else:
            to_bid = {winner}
            closed = False
        trace.iterations.append(
            IterationRecord(
                index=k,
                open_tasks=tuple(sorted(open_tasks | ({wb.task} if closed else set()))),
                recomputed=tuple(sorted(evaluations)),
                masks_before=masks_before,
                f_before=f_before,
                bids=all_bids,
                evaluations=evaluations,
                winner=winner,
                winning_task=wb.task,
                masks_after=tuple(masks),
                f_after=tuple(f_cur[r] for r in range(n_r)),
                objective_before=obj_before,
                objective_after=_product(f_cur.values()),
                task_closed=closed,
            )
        )
    if not is_partition(masks, n_t):
        raise NumericViolationError("reverse greedy did not end at a partition")
    trace.allocation = tuple(masks)
    trace.plan_solves = source.solve_count - solves0
    return tuple(masks), trace


def ground_masks(wmask: int, n_robots: int, n_tasks: int) -> Tuple[int, ...]:
    """Split a ground-set bitmask into per-robot target masks."""
    masks = [0] * n_robots
    for t in range(n_tasks):
        for r in range(n_robots):
            if wmask >> pair_bit(t, r, n_robots) & 1:
                masks[r] |= 1 << t
    return tuple(masks)


def ground_value(source: ObjectiveSource, wmask: int) -> float:
    """F of one ground set, priced robot by robot through source.value."""
    return _product(
        source.value(r, m)
        for r, m in enumerate(ground_masks(wmask, source.n_robots, source.n_tasks))
    )


def exact_ratios_feasible(source):
    """Exact ratios with chains restricted to sets assigning each task at most
    once. The package scans the full power set, which can only loosen the
    bounds the theorems certify (larger alpha, smaller gamma)."""
    n = source.n_tasks * source.n_robots
    values = np.array([ground_value(source, wm) for wm in range(1 << n)])
    return _exact_ratios_feasible(values, n, source.n_robots)


def _exact_ratios_feasible(values: np.ndarray, n: int, n_robots: int):
    size = 1 << n
    n_tasks = n // n_robots
    feasible = np.ones(size, dtype=bool)
    for t in range(n_tasks):
        task_bits = 0
        for r in range(n_robots):
            task_bits |= 1 << pair_bit(t, r, n_robots)
        counts = np.array([int(m & task_bits).bit_count() for m in range(size)])
        feasible &= counts <= 1
    alpha, gamma = 0.0, 1.0
    aw = gw = None
    skipped_alpha = skipped_gamma = 0
    for b_mask in range(size):
        if not feasible[b_mask]:
            continue
        for e in range(n):
            bit = 1 << e
            if b_mask & bit or not feasible[b_mask | bit]:
                continue
            rho_b = float(values[b_mask | bit] - values[b_mask])
            sub = b_mask
            while True:
                rho_a = float(values[sub | bit] - values[sub])
                if rho_b < 0.0:
                    cand = 1.0 - rho_a / rho_b
                    if cand > alpha:
                        alpha, aw = cand, (sub, b_mask, e)
                elif rho_b == 0.0:
                    skipped_alpha += 1
                if rho_a < 0.0:
                    if rho_b < 0.0:
                        cand = rho_b / rho_a
                        if cand < gamma:
                            gamma, gw = cand, (sub, b_mask, e)
                    elif rho_b == 0.0:
                        skipped_gamma += 1
                if sub == 0:
                    break
                sub = (sub - 1) & b_mask
    return RatioReport(
        alpha=min(1.0, max(0.0, alpha)), gamma=min(1.0, max(0.0, gamma)),
        kind="exact-feasible", n_elements=n, alpha_witness=aw, gamma_witness=gw,
        skipped_alpha=skipped_alpha, skipped_gamma=skipped_gamma,
    )


# --- DP and rollout references ----------------------------------------------
#
# The planner's DP keeps two value layers and updates every mask row at once,
# and one rollout walk serves both modes. These are the forms it replaced: a
# DP that stores all horizon + 1 layers and loops over masks in Python, and
# one chunk function per rollout mode. The package must agree with them bit
# for bit: the same success and policy, and the same successes per chunk.


def reference_dp_solve(query):
    """(values, policy, success) with the full (horizon + 1, 2^t, n) value
    table; a start or target flagged at step 0 gives all-zero tables."""
    gm = query.gridmap
    fld = query.field
    n = gm.n_free
    nq = 1 << len(query.targets)
    full = nq - 1
    horizon = query.horizon
    start_idx = gm.index(query.start)
    goal_idx = gm.goal_index
    tb = query.target_bits()
    values = np.zeros((horizon + 1, nq, n))
    policy = np.zeros((horizon, nq, n), dtype=np.int8)
    if fld.flagged[0, start_idx] or any(fld.flagged[0, gm.index(c)] for c in query.targets):
        return values, policy, 0.0

    nbr = gm.neighbor_slots[:, :N_ACTIONS]
    admissible = nbr >= 0
    kernel_terms = [list(query.kernel.action_terms(u)) for u in range(N_ACTIONS)]
    values[horizon, full, goal_idx] = 1.0
    for k in range(horizon - 1, -1, -1):
        vflat = values[k + 1].reshape(-1)
        best = np.full((nq, n), -1.0)
        bestu = np.zeros((nq, n), dtype=np.int8)
        for u in range(N_ACTIONS):
            acc = np.zeros((nq, n))
            for j, w in kernel_terms[u]:
                sel = w > 0
                if not np.any(sel):
                    continue
                dsel = nbr[sel, j]
                surv = w[sel] * (1.0 - fld.prob[k, sel, j])
                tbd = tb[dsel]
                for q in range(nq):
                    rows = q | tbd
                    acc[q, sel] += surv * vflat[rows * n + dsel]
            acc[:, ~admissible[:, u]] = -1.0
            better = acc > best
            best = np.where(better, acc, best)
            bestu[better] = u
        best[full, goal_idx] = values[k + 1, full, goal_idx]
        bestu[full, goal_idx] = MoveAction.STAY
        if best.max() > 1.0 + VALUE_TOL or best.min() < -VALUE_TOL:
            raise NumericViolationError(
                f"value outside [0, 1] at step {k}: [{best.min()}, {best.max()}]"
            )
        np.clip(best, 0.0, 1.0, out=best)
        values[k] = best
        policy[k] = bestu
    return values, policy, float(values[0, int(tb[start_idx]), start_idx])


def lattice_rows(n_tasks: int, mask: int) -> np.ndarray:
    """The row of a robot's plan over all n_tasks targets that stands for
    each visited set q of the subset ``mask``: bit j of q is the subset's
    j-th target, and every target outside the subset counts as visited."""
    bits = [b for b in range(n_tasks) if mask >> b & 1]
    q = np.arange(1 << len(bits))
    rows = np.full_like(q, ((1 << n_tasks) - 1) ^ mask)
    for j, b in enumerate(bits):
        rows |= (q >> j & 1) << b
    return rows


def reference_rollout_model_chunk(result, rng: np.random.Generator, m: int) -> int:
    query = result.query
    gm = query.gridmap
    fld = query.field
    nbr = gm.neighbor_slots[:, :N_ACTIONS]
    tb = query.target_bits()
    full = query.full_mask
    start = gm.index(query.start)
    goal = gm.goal_index
    tables = _slot_tables(query.kernel)
    x = np.full(m, start, dtype=np.int64)
    q = np.full(m, int(tb[start]), dtype=np.int64)
    alive = np.ones(m, dtype=bool)
    success = np.zeros(m, dtype=bool)
    if fld.flagged[0, start]:
        return 0
    if int(tb[start]) == full and start == goal:
        return m
    for k in range(query.horizon):
        act = result.policy[k, q, x]
        slot = _motion_slots(tables, rng, x, act, m)
        draws = rng.random(m)
        ph = fld.prob[k, x, slot]
        dest = nbr[x, slot]
        active = alive & ~success
        die = active & (draws < ph)
        alive[die] = False
        move = active & ~die
        x[move] = dest[move]
        q[move] = q[move] | tb[x[move]]
        reached = move & (q == full) & (x == goal)
        success[reached] = True
    return int(success.sum())


def reference_rollout_joint_chunk(result, model, rng: np.random.Generator, m: int) -> int:
    query = result.query
    gm = query.gridmap
    dyn = _dynamics(gm, model)
    n = gm.n_free
    nbr = gm.neighbor_slots[:, :N_ACTIONS]
    tb = query.target_bits()
    full = query.full_mask
    start = gm.index(query.start)
    goal = gm.goal_index
    tables = _slot_tables(query.kernel)
    contam = np.broadcast_to(dyn.initial, (m, n)).copy()
    x = np.full(m, start, dtype=np.int64)
    q = np.full(m, int(tb[start]), dtype=np.int64)
    alive = ~contam[:, start]
    success = alive & (int(tb[start]) == full) & (start == goal)
    rows = np.arange(m)
    for k in range(query.horizon):
        act = result.policy[k, q, x]
        slot = _motion_slots(tables, rng, x, act, m)
        dest = nbr[x, slot]
        hazard_draws = rng.random((m, n))
        pc = 1.0 - dyn.stay_clear(contam)
        ignite = (~contam) & (hazard_draws < pc)
        contam = contam | ignite
        active = alive & ~success
        die = active & contam[rows, dest]
        alive[die] = False
        move = active & ~die
        x[move] = dest[move]
        q[move] = q[move] | tb[x[move]]
        reached = move & (q == full) & (x == goal)
        success[reached] = True
    return int(success.sum())


# --- Mission-state helpers ---------------------------------------------------
#
# The planner's state space spelled out one state at a time: the DP works on
# whole (mask, cell) tables instead, so these only pin its conventions.


@dataclass(frozen=True)
class MissionState:
    """Planner state: visited-target bitmask and cell; x None once contaminated."""

    q: int
    x: Optional[Cell]

    @property
    def absorbed_by_hazard(self) -> bool:
        return self.x is None


HAZARD_STATE = MissionState(0, None)


def initial_state(query) -> MissionState:
    q0 = 0
    for b, cell in enumerate(query.targets):
        if cell == query.start:
            q0 |= 1 << b
    return MissionState(q0, query.start)


def goal_state(query) -> MissionState:
    return MissionState(query.full_mask, query.gridmap.goal)


def task_update(q: int, x: Cell, targets: Sequence[Cell]) -> int:
    """Visited-set update on arrival at x: targets at x are marked visited."""
    for b, cell in enumerate(targets):
        if Cell(*cell) == Cell(*x):
            q |= 1 << b
    return q


def transition_distribution(
    query, state: MissionState, u: MoveAction, k: int
) -> List[Tuple[MissionState, float]]:
    """One-step outcome distribution at step k; absorbing states self-loop."""
    if not 0 <= k < query.horizon:
        raise ValidationError(f"step {k} outside horizon {query.horizon}")
    if state.absorbed_by_hazard or state == goal_state(query):
        return [(state, 1.0)]
    gm = query.gridmap
    i = gm.index(state.x)
    u = MoveAction(u)
    if gm.neighbor_slots[i, u] < 0:
        raise ValidationError(f"action {u.name} is not admissible at {state.x}")
    tb = query.target_bits()
    out: List[Tuple[MissionState, float]] = []
    hazard_mass = 0.0
    for j in range(N_ACTIONS):
        p_move = float(query.kernel.slot_probs[i, u, j])
        if p_move == 0.0:
            continue
        dest = int(gm.neighbor_slots[i, j])
        ph = float(query.field.prob[k, i, j])
        hazard_mass += p_move * ph
        live = p_move * (1.0 - ph)
        if live > 0.0:
            q2 = state.q | int(tb[dest])
            out.append((MissionState(q2, gm.cells[dest]), live))
    if hazard_mass > 0.0:
        out.append((HAZARD_STATE, hazard_mass))
    total = sum(p for _, p in out)
    if abs(total - 1.0) > 1e-12:
        raise NumericViolationError(f"transition mass {total!r} at {state}, {u.name}")
    return out


def motion_prob(kernel: MotionKernel, x_next: Cell, x: Cell, u: MoveAction) -> float:
    """P(x_next | x, u); raises when u is not admissible at x."""
    gm = kernel.gridmap
    i = gm.index(x)
    u = MoveAction(u)
    if gm.neighbor_slots[i, u] < 0:
        raise ValidationError(f"action {u.name} is not admissible at {x}")
    j = _slot_of(gm, i, Cell(*x_next))
    if j is None or j >= N_ACTIONS:
        return 0.0
    return float(kernel.slot_probs[i, u, j])


# --- Helpers only tests call ------------------------------------------------
#
# Cell-set forms of a cell's neighbours and admissible moves and of one
# hazard step, the success value of a target list, F on arbitrary sets of
# (task, robot) pairs and the tie check of a greedy trace. The package works on whole arrays and bitmasks and never needs
# them; the one-step hazard helpers run on the dense stay-clear kernel above
# and the package's exact step, so their tests check those kernels.


def orthogonal_neighbors(gm: GridMap, cell: Cell) -> FrozenSet[Cell]:
    i = gm.index(cell)
    return frozenset(gm.cells[k] for k in gm.neighbor_slots[i, 1:5] if k >= 0)


def diagonal_neighbors(gm: GridMap, cell: Cell) -> FrozenSet[Cell]:
    i = gm.index(cell)
    return frozenset(gm.cells[k] for k in gm.neighbor_slots[i, 5:9] if k >= 0)


def admissible_actions(gm: GridMap, cell: Cell) -> Tuple[MoveAction, ...]:
    """Actions whose target cell is free; STAY is always admissible."""
    i = gm.index(cell)
    return tuple(MoveAction(u) for u in range(N_ACTIONS) if gm.neighbor_slots[i, u] >= 0)


def remain_clear_prob(
    gridmap: GridMap, model: HazardModel, x: Cell, contaminated: Iterable[Cell]
) -> float:
    """Probability that clear cell x survives one step of spread."""
    dyn = _dynamics(gridmap, model)
    x = Cell(*x)
    i = gridmap.index(x)
    y = _as_mask(gridmap, contaminated)
    if y[i]:
        raise ValidationError(f"{x} is already contaminated")
    return float(_clear_probs(dyn, y[np.newaxis])[0][i])


def contaminate_prob(
    gridmap: GridMap, model: HazardModel, x: Cell, contaminated: Iterable[Cell]
) -> float:
    """Probability that x is contaminated after one step (1 if it already is)."""
    dyn = _dynamics(gridmap, model)
    i = gridmap.index(Cell(*x))
    y = _as_mask(gridmap, contaminated)
    if y[i]:
        return 1.0
    return 1.0 - float(_clear_probs(dyn, y[np.newaxis])[0][i])


def _as_mask(gridmap: GridMap, cells: Iterable[Cell]) -> np.ndarray:
    mask = np.zeros(gridmap.n_free, dtype=bool)
    for c in cells:
        mask[gridmap.index(Cell(*c))] = True
    return mask


def hazard_step_sample(
    gridmap: GridMap,
    model: HazardModel,
    contaminated: Iterable[Cell],
    rng: np.random.Generator,
) -> FrozenSet[Cell]:
    """Draw one spread step. Consumes exactly n_free uniforms from rng."""
    dyn = _dynamics(gridmap, model)
    y = _as_mask(gridmap, contaminated)
    clear_p = _clear_probs(dyn, y[np.newaxis])[0]
    draws = rng.random(gridmap.n_free)
    ignite = (~y) & (draws < 1.0 - clear_p)
    out = y | ignite
    return frozenset(gridmap.cells[i] for i in np.nonzero(out)[0])


def hazard_step_exact(
    gridmap: GridMap,
    model: HazardModel,
    dist: Mapping[FrozenSet[Cell], float],
    cell_cap: int = EXACT_HAZARD_CELL_CAP,
) -> Dict[FrozenSet[Cell], float]:
    """Push a distribution over contamination sets through one exact step."""
    _require_exact_size(gridmap.n_free, cell_cap, "exact hazard propagation needs")
    dyn = _dynamics(gridmap, model)
    masks: Dict[int, float] = {}
    for cells, p in dist.items():
        if p < -FIELD_SUM_TOL:
            raise ValidationError("negative probability in hazard distribution")
        m = _cells_to_bits(gridmap, cells)
        masks[m] = masks.get(m, 0.0) + float(p)
    total = sum(masks.values())
    if abs(total - 1.0) > FIELD_SUM_TOL:
        raise ValidationError(f"hazard distribution sums to {total!r}, not 1")
    states = np.fromiter(masks.keys(), dtype=np.int64, count=len(masks))
    probs = np.fromiter(masks.values(), dtype=np.float64, count=len(masks))
    states, probs, contaminated = _live_states(gridmap.n_free, states, probs)
    states, probs = _exact_step(states, probs, contaminated, _clear_probs(dyn, contaminated))
    check = sum(probs.tolist())
    if abs(check - 1.0) > FIELD_SUM_TOL:
        raise NumericViolationError(f"exact step output sums to {check!r}")
    return {_bits_to_cells(gridmap, m): p for m, p in zip(states.tolist(), probs.tolist())}


def _bits_to_cells(gridmap: GridMap, mask: int) -> FrozenSet[Cell]:
    return frozenset(gridmap.cells[i] for i in range(gridmap.n_free) if mask >> i & 1)


def success_probability(cache, robot: int, targets) -> float:
    """f_r for a target subset given as a bitmask or iterable of cells."""
    if isinstance(targets, (int, np.integer)):
        mask = int(targets)
    else:
        mask = 0
        wanted = [Cell(*t) for t in targets]
        for cell in wanted:
            try:
                mask |= 1 << cache.targets.index(cell)
            except ValueError:
                raise ValidationError(f"{cell} is not a shared target") from None
    return cache.value(robot, mask)


def ground_extension(source: ObjectiveSource, pairs: Iterable[Tuple[int, int]]) -> float:
    """F extended to arbitrary sets of (task, robot) pairs: each robot prices
    the union of tasks the set hands it, independent of other robots."""
    masks = [0] * source.n_robots
    for task, robot in pairs:
        if not 0 <= task < source.n_tasks:
            raise ValidationError(f"task index {task} out of range")
        if not 0 <= robot < source.n_robots:
            raise ValidationError(f"robot index {robot} out of range")
        masks[robot] |= 1 << task
    return _product(source.value(r, m) for r, m in enumerate(masks))


def strict_decrease_violations(trace: GreedyTrace) -> List[int]:
    """Iterations whose objective step was not strict (ties weaken the ratios)."""
    bad = []
    for rec in trace.iterations:
        if trace.kind == "forward":
            ok = rec.objective_after < rec.objective_before
        else:
            ok = rec.objective_after > rec.objective_before
        if not ok:
            bad.append(rec.index)
    return bad
