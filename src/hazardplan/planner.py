"""Single-robot reachability planning against the contamination field.

A mission state is (q, x): the set of the robot's targets visited so far and
its cell, plus two absorbing outcomes (contaminated, or at the exit with every
target visited). Moves succeed per the motion kernel; arrival at x' survives
with probability 1 - p[k](x', x) from the contamination field. dp_solve runs
the standard backward finite-horizon recursion, maximizing the probability of
reaching the exit with all targets visited within the horizon. Its value
layers are cell-major, one row of 2^t visited sets per cell. Each step first
remaps the rows of the target cells, since arriving on one sets its bit; then
every kernel term is a copy of whole rows, scaled per cell.

Since a visited target no longer matters, the mission "visit S" from (q, x)
is the mission "visit T" from (q | (T ^ S), x) for any T containing S. So
one solve over all of a scenario's targets T is every subset's plan: the
subset S only starts the walk in the visited set (T ^ S) | start_q.
ObjectiveCache holds that one plan per robot and prices every subset from it.
A target contaminated at step 0 needs no special case: entering it has
probability 1 of contamination, so every mission that must visit it is worth
exactly 0.

rollout simulates a plan in chunks of trials. In model mode with
deterministic motion no draw moves a trial, so every trial follows the plan's
one walk with no hit (PlanResult._walk, the walk greedy_path lists) until it
is hit: a chunk is then one row of uniforms per step of that walk against the
step's contamination probability. Tabular motion and joint mode move the
trials one by one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapExceededError, NumericViolationError, ValidationError
from .grid import Cell, GridMap, MotionKernel, MoveAction, N_ACTIONS
from .hazard import ContaminationField, HazardModel, _dynamics

VALUE_TOL = 1e-9
WILSON_Z95 = 1.959963984540054
_ROLLOUT_CHUNK = 16384
# Largest dp_solve, in bytes of its policy and working layers: a quarter of
# an 8 GB machine, so a query that fits leaves room for the field, the
# allocators and whatever else runs beside it.
DP_TABLE_CAP = 2 << 30
# Bytes per (mask, cell) of the layers dp_solve holds besides the policy:
# two float64 value layers, an action's value and, when an action has
# several kernel terms, one term's product, plus a bool and an int8 layer.
# Traced peaks on paper17x13 at 8-12 targets were 27-28 with deterministic
# and 35-39 with tabular motion. Below 8 targets a fixed ~0.2 MB of per-query
# arrays weighs more per (mask, cell), in solves of at most 3 MiB.
_DP_LAYER_BYTES = 40


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
        if len(self.targets) > 20:
            raise ValidationError("more than 20 targets for one robot")
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


def _reachability_diagnostics(query: PlanQuery) -> List[str]:
    gm = query.gridmap
    seen = np.zeros(gm.n_free, dtype=bool)
    start = gm.index(query.start)
    seen[start] = True
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in range(1, N_ACTIONS):
            k = gm.neighbor_slots[i, j]
            if k >= 0 and not seen[k]:
                seen[k] = True
                queue.append(int(k))
    diags = []
    for cell in query.targets:
        if not seen[gm.index(cell)]:
            diags.append(f"target {tuple(cell)} unreachable from start {tuple(query.start)}")
    if not seen[gm.goal_index]:
        diags.append(f"exit {tuple(gm.goal)} unreachable from start {tuple(query.start)}")
    return diags


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


def dp_table_bytes(n_targets: int, n_free: int, horizon: int) -> int:
    """Estimated peak bytes of a dp_solve: the int8 policy plus the working
    layers of one step."""
    return (1 << n_targets) * n_free * (horizon + _DP_LAYER_BYTES)


def dp_solve(query: PlanQuery) -> PlanResult:
    """Backward value recursion; returns the greedy policy and f = V^0(s0).

    Step k reads only step k + 1, so two cell-major (n, 2^t) value layers
    are kept: each kernel term copies one whole row of 2^t values per cell.
    A query whose tables would pass DP_TABLE_CAP raises CapExceededError
    before any is allocated.
    """
    gm = query.gridmap
    fld = query.field
    n = gm.n_free
    t = len(query.targets)
    nq = 1 << t
    full = nq - 1
    horizon = query.horizon
    need = dp_table_bytes(t, n, horizon)
    if need > DP_TABLE_CAP:
        raise CapExceededError(
            f"planning {t} targets over {n} cells and {horizon} steps needs about "
            f"{need / 2**30:.1f} GiB > cap {DP_TABLE_CAP / 2**30:.1f} GiB"
        )
    start_idx = gm.index(query.start)
    goal_idx = gm.goal_index
    tb = query.target_bits()

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
    # adds exactly +0.0.
    dest = np.where(sel, gm.neighbor_slots[:, slots].T, np.arange(n))
    # Arriving on a target sets its bit: row d of a layer, read at visited
    # set q, is the value at q | tb[d].
    tcells = np.flatnonzero(tb)
    arrive = np.arange(nq) | tb[tcells, np.newaxis]

    values = np.zeros((n, nq))
    values[goal_idx, full] = 1.0
    best = np.empty((n, nq))
    acc = np.empty((n, nq))
    tmp = np.empty((n, nq)) if len(slots) > len(actions) else None
    better = np.empty((n, nq), dtype=bool)
    bestu = np.empty((n, nq), dtype=np.int8)
    policy = np.empty((horizon, nq, n), dtype=np.int8)

    def action_value(terms, surv, out):
        """Sum over an action's terms, in order, of survival times the row
        the term lands on. Every index is valid; mode="clip" only spares
        take the copy it makes of ``out`` under the default mode."""
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
        # STAY is admissible and has mass at every cell, so best >= 0 after
        # it. An action inadmissible at a cell has no mass there and is worth
        # 0.0 there, which the strict > never picks.
        action_value(actions[0][1], surv, best)
        bestu.fill(MoveAction.STAY)
        for u, terms in actions[1:]:
            action_value(terms, surv, acc)
            np.greater(acc, best, out=better)
            np.copyto(bestu, u, where=better)
            np.maximum(best, acc, out=best)
        # The completed-mission state is absorbing.
        best[goal_idx, full] = values[goal_idx, full]
        bestu[goal_idx, full] = MoveAction.STAY
        # NaN fails both comparisons, so a NaN value raises too.
        if not (-VALUE_TOL <= best.min() and best.max() <= 1.0 + VALUE_TOL):
            raise NumericViolationError(
                f"value outside [0, 1] at step {k}: [{best.min()}, {best.max()}]"
            )
        np.clip(best, 0.0, 1.0, out=best)
        policy[k] = bestu.T
        values, best = best, values

    return PlanResult(
        query=query,
        policy=policy,
        # Every move off a start contaminated at step 0 is contaminated, but
        # a start on the goal with nothing to visit is already complete.
        start_values=values[start_idx] * (not fld.flagged[0, start_idx]),
        start_q=int(tb[start_idx]),
        diagnostics=tuple(_diagnose(query)),
    )


class ObjectiveCache:
    """Memoized per-robot success probabilities over target subsets.

    Keys are (robot index, subset bitmask over the shared target list). The
    first value asked of a robot runs one dp_solve over all the targets, and
    every subset of that robot is then a start state of that plan. Counters
    track distinct (robot, mask) values versus repeat lookups so allocator
    cost can be reported.
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
    mode: str
    trials: int
    successes: int
    rate: float
    ci_low: float
    ci_high: float


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z95) -> Tuple[float, float]:
    if trials <= 0:
        raise ValidationError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def rollout(
    result: PlanResult,
    mode: str,
    trials: int,
    seed: int,
    model: Optional[HazardModel] = None,
) -> RolloutResult:
    """Simulate the policy and report its empirical success rate.

    mode "model" draws per-step contamination independently from the field
    (the process the DP optimizes, so the mean equals the DP value). Mode
    "joint" samples full hazard trajectories and checks occupancy against
    them, which requires the hazard model. Chunk sizes are fixed so results
    never depend on threading or platform parallelism. Each chunk draws from
    its own stream, keyed by (seed, chunk index).

    A model-mode chunk with deterministic motion prices the plan's one walk;
    tabular motion and joint mode walk the trials one by one. Both count
    what the trial-by-trial walk counts on the same stream (_rollout_chunk).
    """
    if mode not in ("model", "joint"):
        raise ValidationError(f"unknown rollout mode {mode!r}")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if mode == "joint" and model is None:
        raise ValidationError("joint rollout needs the hazard model")
    successes = 0
    for ci, lo in enumerate(range(0, trials, _ROLLOUT_CHUNK)):
        m = min(_ROLLOUT_CHUNK, trials - lo)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, ci))))
        successes += _rollout_chunk(result, model if mode == "joint" else None, rng, m)
    rate = successes / trials
    lo95, hi95 = wilson_interval(successes, trials)
    return RolloutResult(
        mode=mode, trials=trials, successes=successes,
        rate=rate, ci_low=lo95, ci_high=hi95,
    )


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
    result: PlanResult, model: Optional[HazardModel], rng: np.random.Generator, m: int
) -> int:
    """Successes of m trials of the policy. Each step draws the motion, then
    the hazard: with no model, one uniform per trial against the field's
    contamination probability of the realized move; with a model, one spread
    step of each trial's own contamination, checked at the destination.
    Every step draws for all m trials, so the stream never depends on which
    trials are left.

    With no model and deterministic motion, no draw moves a trial, so every
    trial follows the plan's walk with no hit, one (cell, action) per step,
    until it is hit. If that walk does not complete the mission within the
    horizon, no trial succeeds. Otherwise step k draws its m uniforms, as
    the trial-by-trial walk does, and a trial succeeds when none of its
    draws up to the completing step falls below that step's contamination
    probability. The trial-by-trial walk stops drawing once no trial is
    left, and the draws it skips are never read, so the counts are equal.

    Otherwise only the trials still walking are moved: a trial leaves the
    arrays the step it is contaminated or completes the mission."""
    query = result.query
    gm = query.gridmap
    fld = query.field
    nbr = gm.neighbor_slots[:, :N_ACTIONS]
    tb = query.target_bits()
    full = query.full_mask
    start = gm.index(query.start)
    goal = gm.goal_index
    if model is None:
        contam = None
        dead_at_start = fld.flagged[0, start]
    else:
        dyn = _dynamics(gm, model)
        contam = np.broadcast_to(dyn.initial, (m, gm.n_free)).copy()
        dead_at_start = dyn.initial[start]
    if dead_at_start:
        return 0
    if result.start_q == full and start == goal:
        return m
    tables = _slot_tables(query.kernel)
    if contam is None and tables is None:
        steps, complete = result._walk()
        if not complete:
            return 0
        alive = np.ones(m, dtype=bool)
        u = np.empty(m)
        for k, (x, slot) in enumerate(steps):
            # u < p, not u >= p: a NaN probability hits no trial
            alive &= ~(rng.random(out=u) < fld.prob[k, x, slot])
        return int(np.count_nonzero(alive))
    live = np.arange(m)  # trial ids still walking
    x = np.full(m, start, dtype=np.int64)
    q = np.full(m, result.start_q, dtype=np.int64)
    successes = 0
    for k in range(query.horizon):
        act = result.policy[k, q, x]
        slot = _motion_slots(tables, rng, x, act, m, live)
        dest = nbr[x, slot]
        if contam is None:
            hit = rng.random(m)[live] < fld.prob[k, x, slot]
        else:
            pc = 1.0 - dyn.stay_clear(contam)
            contam |= ~contam & (rng.random((m, gm.n_free))[live] < pc)
            hit = contam[np.arange(live.size), dest]
        x = dest
        q = q | tb[x]
        done = (q == full) & (x == goal)
        successes += int(np.count_nonzero(done & ~hit))
        walking = ~(hit | done)
        live, x, q = live[walking], x[walking], q[walking]
        if contam is not None:
            contam = contam[walking]
        if not live.size:
            break
    return successes
