"""Task allocation by auction-style greedy heuristics over cached plan values.

The group objective is F = prod_r f_r(T_r): every robot must complete its own
target set, so assignments multiply. Forward and reverse greedy run one
auction loop. Each round every robot that must refresh its bid offers its best
single-task change among the open tasks, and the winner applies its bid. The
directions differ in their start and in what a bid may change:

- forward starts from empty sets, and a bid adds an open task;
- reverse starts with every robot holding every task, and a bid drops an open
  task the robot still holds.

A task closes once it has exactly one holder: in forward as soon as it is
taken, in reverse when every other copy is gone. After a closure every robot
whose bid was on the closed task rebids; otherwise only the winner does, and
everyone else reuses a bid that provably still maximizes its marginal. Forward
leaves out robots with f_r(empty) = 0, and degenerate inputs end before the
first round. Traces record every fresh marginal evaluation so suboptimality
ratios can be estimated afterwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Protocol, Sequence, Tuple

import numpy as np

from .errors import CapExceededError, NumericViolationError, ValidationError

BRUTE_FORCE_CAP = 10**6


class ObjectiveSource(Protocol):
    """Anything that can price (robot, target-subset) pairs; usually
    ObjectiveCache. solve_count counts the distinct pairs priced so far and
    hit_count the repeat lookups; neither counts DP runs. price_table(robot)
    holds value(robot, m) at index m for every mask m and counts as a lookup
    of each mask."""

    solve_count: int
    hit_count: int

    @property
    def n_robots(self) -> int: ...

    @property
    def n_tasks(self) -> int: ...

    def value(self, robot: int, mask: int) -> float: ...

    def price_table(self, robot: int) -> np.ndarray: ...


@dataclass(frozen=True)
class Bid:
    """One robot's best single-task change and the f_r difference it causes."""

    robot: int
    task: int
    delta: float


@dataclass
class IterationRecord:
    """Everything one auction round saw and decided."""

    index: int
    open_tasks: Tuple[int, ...]
    recomputed: Tuple[int, ...]
    masks_before: Tuple[int, ...]
    f_before: Tuple[float, ...]
    bids: Tuple[Bid, ...]
    evaluations: Dict[int, Tuple[Tuple[int, float], ...]]
    winner: int
    winning_task: int
    masks_after: Tuple[int, ...]
    f_after: Tuple[float, ...]
    objective_before: float
    objective_after: float
    task_closed: bool


@dataclass
class GreedyTrace:
    """Full record of a greedy run, sufficient to audit and to bound ratios."""

    kind: str
    n_robots: int
    n_tasks: int
    start_masks: Tuple[int, ...]
    baseline_f: Tuple[float, ...]
    iterations: List[IterationRecord] = field(default_factory=list)
    allocation: Tuple[int, ...] = ()
    excluded: Tuple[int, ...] = ()
    notes: Tuple[str, ...] = ()
    plan_solves: int = 0

    @property
    def degenerate(self) -> bool:
        return any("degenerate" in n for n in self.notes)


def _product(values: Iterable[float]) -> float:
    out = 1.0
    for v in values:
        out *= v
    return out


def group_success(source: ObjectiveSource, allocation: Sequence[int]) -> float:
    """F of a per-robot mask vector (not necessarily a partition)."""
    if len(allocation) != source.n_robots:
        raise ValidationError(
            f"allocation covers {len(allocation)} robots, expected {source.n_robots}"
        )
    return _product(source.value(r, int(m)) for r, m in enumerate(allocation))


def is_partition(allocation: Sequence[int], n_tasks: int) -> bool:
    union = 0
    for m in allocation:
        if union & m:
            return False
        union |= m
    return union == (1 << n_tasks) - 1


def pair_bit(task: int, robot: int, n_robots: int) -> int:
    """Bit index of ground pair (task, robot) in the task-major layout."""
    return task * n_robots + robot


def _score(bid: Bid, f_values: Mapping[int, float]) -> Tuple[int, float]:
    """Zero-aware value of the group objective after applying the bid.

    Returns (-zero_factor_count, product_of_positive_factors): comparing these
    lexicographically ranks any outcome with fewer dead robots above a larger
    partial product, so a bid that removes the only zero factor dominates.
    """
    zeros = 0
    prod = 1.0
    for r, f in f_values.items():
        val = f + bid.delta if r == bid.robot else f
        if val <= 0.0:
            zeros += 1
        else:
            prod *= val
    return (-zeros, prod)


def auction_round(bids: Sequence[Bid], f_values: Mapping[int, float]) -> int:
    """Settle one round: the winner maximizes the post-bid group objective
    computed from the scalar bids and cached f values alone. Ties go to the
    smallest robot id, then the smallest task id."""
    if not bids:
        raise ValidationError("no bids to settle")
    winner = None
    best_key = None
    for bid in sorted(bids, key=lambda b: (b.robot, b.task)):
        if bid.robot not in f_values:
            raise ValidationError(f"bid from robot {bid.robot} without an f value")
        key = _score(bid, f_values)
        if best_key is None or key > best_key:
            best_key = key
            winner = bid
    return winner.robot


def _greedy(source: ObjectiveSource, kind: str) -> Tuple[Tuple[int, ...], GreedyTrace]:
    """The auction loop behind both directions; see the module docstring."""
    n_r, n_t = source.n_robots, source.n_tasks
    solves0 = source.solve_count
    forward = kind == "forward"
    full = (1 << n_t) - 1
    start = 0 if forward else full
    masks = [start] * n_r
    baseline = tuple(source.value(r, start) for r in range(n_r))
    excluded = tuple(r for r in range(n_r) if forward and n_t and baseline[r] <= 0.0)
    active = [r for r in range(n_r) if r not in excluded]
    notes: List[str] = []
    if excluded:
        notes.append(
            "robots excluded (zero success probability with no tasks): "
            + ", ".join(str(r) for r in excluded)
        )
    if n_t == 0 or (not forward and n_r == 1):
        notes.append("degenerate: no tasks to assign" if forward
                     else "degenerate: nothing to remove")
    elif not active:
        masks[0] = full
        notes.append("degenerate: every robot has zero base success; all tasks parked on robot 0")
    trace = GreedyTrace(
        kind=kind, n_robots=n_r, n_tasks=n_t,
        start_masks=(start,) * n_r, baseline_f=baseline,
        excluded=excluded, notes=tuple(notes),
    )

    def move(mask: int, task: int) -> int:
        return mask | 1 << task if forward else mask & ~(1 << task)

    f_cur: Dict[int, float] = dict(enumerate(baseline))
    open_tasks = set() if trace.degenerate else set(range(n_t))
    to_bid = set(active)
    bids: Dict[int, Bid] = {}
    while open_tasks:
        evaluations: Dict[int, Tuple[Tuple[int, float], ...]] = {}
        for r in sorted(to_bid):
            evaluations[r] = tuple(
                (t, source.value(r, move(masks[r], t)) - f_cur[r])
                for t in sorted(open_tasks)
                if forward or masks[r] >> t & 1
            )
            if evaluations[r]:
                # max keeps the first maximum, so ties go to the smallest task
                bids[r] = Bid(r, *max(evaluations[r], key=lambda e: e[1]))
            else:
                bids.pop(r, None)
        if not bids:
            raise NumericViolationError(f"no legal {kind} bid although tasks remain open")
        if any(b.task not in open_tasks for b in bids.values()):
            raise NumericViolationError("stale bid survived a task closure")
        winner = auction_round([bids[r] for r in sorted(bids)], {r: f_cur[r] for r in active})
        wb = bids[winner]
        open_before = tuple(sorted(open_tasks))
        masks_before = tuple(masks)
        f_before = tuple(f_cur.values())
        obj_before = _product(f_cur[r] for r in active)
        round_bids = tuple(sorted(bids.values(), key=lambda b: b.robot))
        masks[winner] = move(masks[winner], wb.task)
        f_cur[winner] = f_cur[winner] + wb.delta
        closed = sum(m >> wb.task & 1 for m in masks) == 1
        if closed:
            open_tasks.discard(wb.task)
            to_bid = {r for r, b in bids.items() if b.task == wb.task}
            bids = {r: b for r, b in bids.items() if b.task != wb.task}
        else:
            to_bid = {winner}
        trace.iterations.append(
            IterationRecord(
                index=len(trace.iterations) + 1,
                open_tasks=open_before,
                recomputed=tuple(sorted(evaluations)),
                masks_before=masks_before,
                f_before=f_before,
                bids=round_bids,
                evaluations=evaluations,
                winner=winner,
                winning_task=wb.task,
                masks_after=tuple(masks),
                f_after=tuple(f_cur.values()),
                objective_before=obj_before,
                objective_after=_product(f_cur[r] for r in active),
                task_closed=closed,
            )
        )
    if not is_partition(masks, n_t):
        raise NumericViolationError(f"{kind} greedy did not end at a partition")
    trace.allocation = tuple(masks)
    trace.plan_solves = source.solve_count - solves0
    return tuple(masks), trace


def forward_greedy(source: ObjectiveSource) -> Tuple[Tuple[int, ...], GreedyTrace]:
    """Assign every task by auction, growing each robot's set from empty."""
    return _greedy(source, "forward")


def reverse_greedy(source: ObjectiveSource) -> Tuple[Tuple[int, ...], GreedyTrace]:
    """Start with every robot holding every task; auction removals until each
    task keeps exactly one holder."""
    return _greedy(source, "reverse")


def brute_force_optimal(
    source: ObjectiveSource, cap: int = BRUTE_FORCE_CAP
) -> Tuple[Tuple[int, ...], float]:
    """Exhaust all labeled assignments (robots^tasks); ties keep the first in
    lexicographic task-to-robot order."""
    n_r, n_t = source.n_robots, source.n_tasks
    count = n_r**n_t
    if count > cap:
        raise CapExceededError(
            f"brute force needs {count} assignments > cap {cap}"
        )
    best_val = None
    best_masks: Tuple[int, ...] = ()
    for assign in itertools.product(range(n_r), repeat=n_t):
        masks = [0] * n_r
        for t, r in enumerate(assign):
            masks[r] |= 1 << t
        val = _product(source.value(r, masks[r]) for r in range(n_r))
        if best_val is None or val > best_val:
            best_val = val
            best_masks = tuple(masks)
    return best_masks, float(best_val)
