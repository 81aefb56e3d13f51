"""Reference computations the tests compare the package against.

Each law of the model keeps at most two references here:

- a **scalar oracle**, written from the model definition with dictionaries
  and scalar loops. It shares only conventions with the package (Cell,
  free-cell indices, neighbour slots, the field and query containers), so
  agreement is a real check and not an echo. Tests compare it within a
  tolerance, or exactly;
- a **bit reference**, a plain and slower form of the package's own
  arithmetic in the same order. The package must agree with it bit for bit,
  which pins the determinism contract. A bit reference may read a package
  kernel that this index pins elsewhere.

Index of the laws. "Pins" names the package code the references check.

- Spread speed. Scalar: theta_by_nearest_source. Pins the theta field of
  hazard._SpreadDynamics.
- Stay-clear product. Scalar: stay_clear_prob. Bit: _clear_probs. Pins
  _SpreadDynamics.stay_clear and its neighbour-code table.
- One exact step. Scalar: spread_step_distribution. Bit: _reference_step,
  through reference_step_distribution, and reference_outcomes for the
  outcome expansion. Pins hazard._exact_step and hazard._outcomes.
- Exact field. Scalar: exact_field_oracle and
  contamination_marginals_oracle, thin calls on one pass (_exact_pass).
  Bit: reference_exact_propagation. Pins exact_contamination_field and
  hazard._propagate_exact.
- Monte-Carlo field. Its law is the exact field. Bit: reference_fired and
  reference_sample_block. Pins hazard._sample_block, hazard._run_chunks and
  estimate_contamination_field. reference_fired draws by scalar
  rng.geometric calls, so it also pins the walk's delays drawn by numpy's
  own inversion, the branch every shipped map takes.
- Single-robot DP. Scalar: value_recursion_oracle. Bit:
  whole_layer_dp_solve. Pins dp_solve, dp_values and ObjectiveCache. This
  is the one law with a second scalar oracle: best_open_loop_success
  enumerates every walk under deterministic motion, the check acceptance
  criterion 1 names.
- Fewest moves. Scalar: shortest_visiting_walk, and reachable_states for
  the states a start reaches. Pins planner._finish_moves and
  planner._reach_moves.
- Model-mode rollouts. Scalar: model_mode_policy_success. Bit:
  reference_rollout_model_chunk. Pins rollout and planner._rollout_chunk
  without a hazard model. It draws at every step, so it also pins the
  chunk's skip of the steps with no risk, which draw nothing.
- Joint rollouts. Scalar: exact_joint_policy_success. Bit:
  replay_joint_chunk. Pins rollout and planner._rollout_chunk with a hazard
  model.
- Greedy allocation. Scalar: brute_force_partitions, for the optimum. Bit:
  reference_forward_greedy and reference_reverse_greedy. Pins
  forward_greedy, reverse_greedy and brute_force_optimal.
- Ratios. Scalar: naive_ratios, and exact_ratios_feasible, which bounds
  them from inside. Pins guarantees.exact_ratios and
  exact_ratios_from_values.

Two helpers are harnesses or echoes of package code, not independent
oracles: hazard_step_exact drives hazard._exact_step over a distribution of
cell sets, and reference_rollout_model_chunk draws its motion through
planner._slot_tables and planner._motion_slots, so it pins the order of the
rollout's draws, not the motion law.
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
    HazardModel,
    _SpreadDynamics,
    _cells_to_bits,
    _dynamics,
    _exact_step,
    _live_states,
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


def _exact_pass(gm: GridMap, sources, horizon: int):
    """(prob, flagged, marginals) by propagating the law of the contamination
    set, set by set.

    prob[k, i, j] = P(slot-j cell of i contaminated at k+1 | i clear at k),
    with undefined conditionings flagged and set to 1, invalid slots 0.
    marginals[k, i] = P(cell i contaminated after k steps), for k up to the
    horizon.
    """
    theta = theta_by_nearest_source(gm, sources)
    n = gm.n_free
    slot_cells = [[cell] + [shift(cell, s) for s in ORTH_STEPS] for cell in gm.cells]
    prob = np.zeros((horizon, n, 5))
    flagged = np.zeros((horizon, n), dtype=bool)
    marginals = np.zeros((horizon + 1, n))
    dist: Dict[FrozenSet[Cell], float] = {frozenset(c for src in sources for c in src.cells): 1.0}
    for k in range(horizon + 1):
        for burning, p in dist.items():
            for cell in burning:
                marginals[k, gm.index(cell)] += p
        if k == horizon:
            break
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
    return prob, flagged, marginals


def exact_field_oracle(gm: GridMap, sources, horizon: int):
    """(prob, flagged) of the exact contamination transition field."""
    prob, flagged, _ = _exact_pass(gm, sources, horizon)
    return prob, flagged


def contamination_marginals_oracle(gm: GridMap, sources, horizon: int) -> np.ndarray:
    """Exact P(cell contaminated at the horizon)."""
    return _exact_pass(gm, sources, horizon)[2][horizon]


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
    gm: GridMap, start: Cell, targets: Sequence[Cell], visited: Optional[int] = None
) -> Optional[int]:
    """Fewest moves to visit every target and end at the exit; None if cut off.

    The walk starts at ``start`` having visited the targets of bitmask
    ``visited``, by default the one it stands on. A move steps to an
    orthogonal neighbour or stays put, and either way visits the target it
    lands on, as in the DP: from a start on a target it has not visited,
    staying put visits it."""
    tb = {c: 0 for c in gm.cells}
    for b, cell in enumerate(targets):
        tb[Cell(*cell)] |= 1 << b
    full = (1 << len(targets)) - 1
    q0 = tb[Cell(*start)] if visited is None else visited
    init = (q0, Cell(*start))
    seen = {init}
    frontier = deque([(init, 0)])
    while frontier:
        (q, x), d = frontier.popleft()
        if q == full and x == gm.goal:
            return d
        for step in ((0, 0),) + ORTH_STEPS:
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
            u = int(result.action(k, q, x))
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
            u = int(result.action(k, q, x))
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
# neighbour codes, and its sampler walks each burning cell's out-edges in a
# bucket queue of first-passage times. These are the dense forms: eight
# np.where passes per call, and the block's ignition steps replayed with
# scalar draws, then a step loop that recounts every slot of every
# (sample, cell) each step. The package must agree with them bit for bit.


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


def _trajectory_counts(dyn: _SpreadDynamics, contam: np.ndarray):
    """(den, num, final) of a (samples, horizon + 1, n_free) matrix of
    contamination states, every slot recounted at each step."""
    horizon = contam.shape[1] - 1
    n = contam.shape[2]
    nbr = dyn.gridmap.neighbor_slots[:, :N_ACTIONS]
    den = np.zeros((horizon, n), dtype=np.int64)
    num = np.zeros((horizon, n, N_ACTIONS), dtype=np.int64)
    for k in range(horizon):
        clear = ~contam[:, k]
        nxt = contam[:, k + 1]
        den[k] += clear.sum(axis=0)
        for j in range(N_ACTIONS):
            idx = nbr[:, j]
            valid = idx >= 0
            if not np.any(valid):
                continue
            hits = clear[:, valid] & nxt[:, idx[valid]]
            num[k, valid, j] += hits.sum(axis=0)
    final = contam[:, horizon].sum(axis=0, dtype=np.int64)
    return den, num, final


def reference_fired(dyn: _SpreadDynamics, horizon: int, seed: int, block: int, m: int):
    """The step at which each (sample, cell) of the block ignites, as an
    (m, n_free + 1) array (-1 from the start, horizon for never), from
    scalar rng.geometric calls in the order the package's walk
    (hazard._sample_block) makes them.

    A burning cell y tries to ignite its slot-j neighbour x, the cell whose
    slot j is y, with the weight of the lut product: 1 - (1 - theta(y)) on
    an orthogonal slot and 1 - (1 - theta(y) / sqrt(2)) on a diagonal one.
    At each step k from -1 (the initial cells) to horizon - 2, the cells
    ignited then, by sample and cell, each draw one delay D per slot in
    order 1..8 whose neighbour is clear and can ignite; x then joins the
    arrivals of step k + D when that is below the horizon. Step k + 1
    ignites the clear cells among its arrivals."""
    n = dyn.gridmap.n_free
    nbr = dyn.gridmap.neighbor_slots
    theta = dyn.theta
    # into[y, j]: the cell whose slot-j neighbour is y
    into = {(int(nbr[x, j]), j): x for x in range(n) for j in range(1, N_SLOTS) if nbr[x, j] >= 0}
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block))))
    fired = [[horizon] * (n + 1) for _ in range(m)]
    arrivals: Dict[int, set] = {k: set() for k in range(horizon)}
    initial = [x for x in range(n) if dyn.initial[x]]
    for s in range(m):
        for x in initial:
            fired[s][x] = -1
    burning = [(s, x) for s in range(m) for x in initial]
    for k in range(-1, horizon - 1):
        if k >= 0:
            burning = sorted((s, x) for s, x in arrivals[k] if fired[s][x] == horizon)
            for s, x in burning:
                fired[s][x] = k
        for s, y in burning:
            for j in range(1, N_SLOTS):
                x = into.get((y, j))
                if x is None or fired[s][x] != horizon:
                    continue
                w = 1.0 - theta[y] if j < N_ACTIONS else 1.0 - theta[y] / SQRT2
                p = 1.0 - w
                if p > 0.0:
                    at = k + int(rng.geometric(p))
                    if at < horizon:
                        arrivals[at].add((s, x))
    for s, x in arrivals[horizon - 1]:
        if fired[s][x] == horizon:
            fired[s][x] = horizon - 1
    return np.array(fired)


def reference_sample_block(dyn: _SpreadDynamics, horizon: int, seed: int, block: int, m: int):
    """Counts of the block's m trajectories: each (sample, step, cell)
    contaminated from reference_fired, then the dense count loop."""
    fired = reference_fired(dyn, horizon, seed, block, m)[:, :-1]
    steps = np.arange(horizon + 1)[np.newaxis, :, np.newaxis]
    return _trajectory_counts(dyn, fired[:, np.newaxis, :] < steps)


# --- Scalar exact propagation, kept as the bit-for-bit reference -----------
#
# Unlike the scalar oracles, these loops use the dense stay-clear kernel
# (_clear_probs above), which the package's table reproduces bit for bit, on
# purpose: they pin the propagation's arithmetic order, so the vectorized
# propagation must agree with them exactly, not approximately.
# hazard_step_exact, the harness the one-step tests drive the package's step
# through, sits beside its reference.


def _state_cells(n: int, m: int) -> np.ndarray:
    return np.array([(m >> i) & 1 for i in range(n)], dtype=bool)


def _reference_step(
    dyn, masks: Dict[int, float], ignite: Optional[Dict[int, np.ndarray]] = None
) -> Dict[int, float]:
    """One exact step over {bitmask: probability}, state by state and combo
    by combo; outcome keys keep their order of first appearance. ``ignite``
    holds each state's row 1 - _clear_probs, where the caller has them."""
    n = dyn.gridmap.n_free
    out: Dict[int, float] = {}
    for m, p in masks.items():
        if p == 0.0:
            continue
        y = _state_cells(n, m)
        pc = 1.0 - _clear_probs(dyn, y[np.newaxis])[0] if ignite is None else ignite[m]
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


def _as_bits(gm: GridMap, dist) -> Dict[int, float]:
    """{bitmask: probability} of a distribution over cell sets."""
    masks: Dict[int, float] = {}
    for cells, p in dist.items():
        m = _cells_to_bits(gm, cells)
        masks[m] = masks.get(m, 0.0) + float(p)
    return masks


def _as_cell_sets(gm: GridMap, masks: Dict[int, float]) -> Dict[FrozenSet[Cell], float]:
    return {
        frozenset(gm.cells[i] for i in range(gm.n_free) if m >> i & 1): p
        for m, p in masks.items()
    }


def reference_step_distribution(gm: GridMap, model, dist):
    """hazard_step_exact computed with the scalar reference step."""
    return _as_cell_sets(gm, _reference_step(_dynamics(gm, model), _as_bits(gm, dist)))


def hazard_step_exact(
    gridmap: GridMap, model: HazardModel, dist: Mapping[FrozenSet[Cell], float]
) -> Dict[FrozenSet[Cell], float]:
    """A harness, not an oracle: pushes a distribution over contamination
    sets through the package's exact step, hazard._exact_step, with the
    dense stay-clear kernel."""
    masks = _as_bits(gridmap, dist)
    states = np.fromiter(masks.keys(), dtype=np.int64, count=len(masks))
    probs = np.fromiter(masks.values(), dtype=np.float64, count=len(masks))
    states, probs, contaminated = _live_states(gridmap.n_free, states, probs)
    states, probs = _exact_step(states, probs, contaminated,
                                _clear_probs(_dynamics(gridmap, model), contaminated))
    return _as_cell_sets(gridmap, dict(zip(states.tolist(), probs.tolist())))


def reference_outcomes(
    base: np.ndarray,
    probs: np.ndarray,
    uncertain: np.ndarray,
    ignite: np.ndarray,
    bits: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """hazard._outcomes as one pass per cell uncertain in any of the states:
    each pass touches every outcome row and multiplies the rows where the
    cell is not uncertain by exactly 1.0. Rows in (state, combo) order,
    combo bit b standing for the state's b-th lowest uncertain cell."""
    sizes = np.left_shift(1, uncertain.sum(axis=1))
    src = np.repeat(np.arange(len(base)), sizes)
    combo = np.arange(len(src)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    mask = base[src]
    prob = probs[src]
    for i in np.nonzero(uncertain.any(axis=0))[0]:
        u = uncertain[src, i]
        hit = u & (combo & 1 == 1)
        q = ignite[src, i]
        prob *= np.where(u, np.where(hit, q, 1.0 - q), 1.0)
        mask[hit] |= bits[i]
        combo >>= u
    return mask, prob


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
        # each live state's row 1 - _clear_probs, read by the sums here and
        # by the step: one _clear_probs call over all of them, which forms
        # every row as a call on that row alone would
        live = [m for m, p in dist.items() if p != 0.0]
        cells = np.array([_state_cells(n, m) for m in live], dtype=bool).reshape(len(live), n)
        ignite = dict(zip(live, 1.0 - _clear_probs(dyn, cells)))
        for y, (m, pc_next) in zip(cells, ignite.items()):
            p = dist[m]
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
        dist = _reference_step(dyn, dist, ignite)
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
# The planner's DP sweeps two value layers block by block, and one rollout
# walk serves both modes. These are plainer forms of the same arithmetic: a
# DP that sweeps whole (n, 2^t) layers, a model-mode chunk that moves every
# trial each step, and a joint chunk replayed one trial at a time. The
# package must agree with them bit for bit: the same start values, the same
# policy at every state the start reaches (reachable_states), and the same
# successes per chunk.


def whole_layer_dp_solve(query):
    """(policy, start_values) of the sweep dp_solve ran before its value
    layers were tiled: two cell-major (n, 2^t) value layers, every kernel
    term a copy of whole rows of 2^t values, and every working layer as wide
    as a value layer. It is fast enough for 10 targets on paper17x13, and
    a start or target flagged at step 0 gets no stub: the sweep runs, and
    only the start values are zeroed when the start is flagged."""
    gm = query.gridmap
    fld = query.field
    n = gm.n_free
    nq = 1 << len(query.targets)
    full = nq - 1
    horizon = query.horizon
    start_idx = gm.index(query.start)
    goal_idx = gm.goal_index
    tb = query.target_bits()

    slots, weights, actions = [], [], []
    for u in range(N_ACTIONS):
        terms = list(query.kernel.action_terms(u))
        if terms:
            actions.append((u, range(len(slots), len(slots) + len(terms))))
            slots += [j for j, _ in terms]
            weights += [w for _, w in terms]
    weights = np.array(weights)
    sel = weights > 0
    dest = np.where(sel, gm.neighbor_slots[:, slots].T, np.arange(n))
    tcells = np.flatnonzero(tb)
    arrive = np.arange(nq) | tb[tcells, np.newaxis]

    values = np.zeros((n, nq))
    values[goal_idx, full] = 1.0
    best = np.empty((n, nq))
    acc = np.empty((n, nq))
    tmp = np.empty((n, nq))
    better = np.empty((n, nq), dtype=bool)
    bestu = np.empty((n, nq), dtype=np.int8)
    policy = np.empty((horizon, nq, n), dtype=np.int8)

    def action_value(terms, surv, out):
        first, *rest = terms
        np.take(values, dest[first], axis=0, out=out, mode="clip")
        out *= surv[first, :, np.newaxis]
        for i in rest:
            np.take(values, dest[i], axis=0, out=tmp, mode="clip")
            np.multiply(tmp, surv[i, :, np.newaxis], out=tmp)
            out += tmp

    for k in range(horizon - 1, -1, -1):
        values[tcells] = values[tcells[:, np.newaxis], arrive]
        surv = np.where(sel, weights * (1.0 - fld.prob[k][:, slots].T), 0.0)
        action_value(actions[0][1], surv, best)
        bestu.fill(MoveAction.STAY)
        for u, terms in actions[1:]:
            action_value(terms, surv, acc)
            np.greater(acc, best, out=better)
            np.copyto(bestu, u, where=better)
            np.maximum(best, acc, out=best)
        best[goal_idx, full] = values[goal_idx, full]
        bestu[goal_idx, full] = MoveAction.STAY
        if not (-VALUE_TOL <= best.min() and best.max() <= 1.0 + VALUE_TOL):
            raise NumericViolationError(
                f"value outside [0, 1] at step {k}: [{best.min()}, {best.max()}]"
            )
        np.clip(best, 0.0, 1.0, out=best)
        policy[k] = bestu.T
        values, best = best, values
    return policy, values[start_idx] * (not fld.flagged[0, start_idx])


def reachable_states(query) -> np.ndarray:
    """Boolean (horizon, 2^t, n_free): whether a walk from the start state
    reaches (k, q, x) by moves with positive kernel probability under any
    action, hazard aside. These are the states whose action a walk or a
    rollout can read; the walk goes on from the completed mission too."""
    gm = query.gridmap
    tb = query.target_bits()
    n = gm.n_free
    nq = 1 << len(query.targets)
    support = (query.kernel.slot_probs > 0).any(axis=1)  # (cell, landing slot)
    masks = np.arange(nq)
    reach = np.zeros((query.horizon, nq, n), dtype=bool)
    start = gm.index(query.start)
    reach[0, tb[start], start] = True
    for k in range(query.horizon - 1):
        for x in range(n):
            for j in np.flatnonzero(support[x]):
                d = gm.neighbor_slots[x, j]
                reach[k + 1, masks[reach[k, :, x]] | tb[d], d] = True
    return reach


def dense_policy(result) -> np.ndarray:
    """The (horizon, 2^t, n_free) action of ``result`` at every state, read
    through PlanResult.action."""
    horizon = result.query.horizon
    nq = 1 << len(result.query.targets)
    n = result.query.gridmap.n_free
    return result.action(np.arange(horizon)[:, np.newaxis, np.newaxis],
                         np.arange(nq)[:, np.newaxis], np.arange(n))


def reference_rollout_model_chunk(result, rng: np.random.Generator, m: int) -> int:
    """Successes of a model-mode chunk that moves every trial each step and
    strikes it with its step's field entry. An echo of package code for the
    motion: it draws the landing slots through planner._motion_slots, so it
    pins the order of the chunk's draws, and model_mode_policy_success pins
    the law."""
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
        act = result.action(k, q, x)
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


def replay_joint_chunk(result, fired: np.ndarray, rng: np.random.Generator, m: int) -> int:
    """Successes of a joint chunk replayed one trial at a time: trial s
    walks against row s of the ignition steps ``fired`` and is hit on
    arriving at step k on a cell that ignited at a step <= k. Under tabular
    motion step k draws m uniforms, one per trial whether or not it still
    walks, and trial s lands on the first slot whose running mass exceeds
    its draw, else on the row's last slot with mass."""
    query = result.query
    gm, tb, full = _mission_inputs(query)
    probs = query.kernel.slot_probs
    start = gm.index(query.start)
    goal = gm.goal_index
    slippery = query.kernel.kind != "deterministic"
    draws = rng.random((query.horizon, m)) if slippery else None
    successes = 0
    for s in range(m):
        if fired[s, start] < 0:
            continue
        x, q = start, tb[start]
        if q == full and x == goal:
            successes += 1
            continue
        for k in range(query.horizon):
            u = int(result.action(k, q, x))
            slot = u
            if slippery:
                mass = [j for j in range(N_ACTIONS) if probs[x, u, j] > 0]
                slot, acc = mass[-1], 0.0
                for j in range(N_ACTIONS):
                    acc += probs[x, u, j]
                    if draws[k, s] < acc:
                        slot = j
                        break
            x = int(gm.neighbor_slots[x, slot])
            if fired[s, x] <= k:
                break
            q |= tb[x]
            if q == full and x == goal:
                successes += 1
                break
    return successes


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
# Cell-set forms of a cell's neighbours and admissible moves, the success
# value of a target list, F on arbitrary sets of (task, robot) pairs and the
# tie check of a greedy trace. The package works on whole arrays and
# bitmasks and never needs them.


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
