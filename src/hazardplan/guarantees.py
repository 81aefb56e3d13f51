"""Suboptimality guarantees for the greedy allocators.

The group objective extends to arbitrary sets of (task, robot) pairs and is
nonincreasing there: adding a pair can only burden a robot. Two scalars shape
how far greedy can fall from optimal:

  curvature alpha: smallest value with (1-alpha)*[F(B+e)-F(B)] >= F(A+e)-F(A)
  submodularity ratio gamma: largest value with gamma*[F(A+e)-F(A)] >= F(B+e)-F(B)

over every chain A subset of B and pair e outside B. Exact values need full
enumeration; greedy runs yield one-sided estimates (alpha_g <= alpha,
gamma_g >= gamma) from the marginals they evaluated anyway. The guarantee
forms are evaluated cross-multiplied so no degenerate denominator is divided.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .allocation import GreedyTrace, ObjectiveSource, pair_bit
from .errors import (
    CapExceededError,
    InsufficientObservationsError,
    ValidationError,
    VacuousBoundError,
)

RATIO_ENUM_CAP = 10**7
BOUND_TOL = 1e-12
# The region map's ratio grid stops short of the vacuous edges alpha = 1 and
# gamma = 0; its memory grows with the square of the resolution.
REGION_ALPHAS = (0.0, 0.99)
REGION_GAMMAS = (0.01, 1.0)
REGION_RESOLUTION_CAP = 1000


@dataclass
class RatioReport:
    """Curvature and submodularity ratio, with provenance and witnesses."""

    alpha: float
    gamma: float
    kind: str  # "exact" or "greedy"
    n_elements: int
    alpha_witness: Optional[Tuple[int, int, int]] = None  # (A, B, e) bitmask/bit
    gamma_witness: Optional[Tuple[int, int, int]] = None
    skipped_alpha: int = 0
    skipped_gamma: int = 0
    observations: int = 0

    def to_dict(self) -> Dict:
        return asdict(self)


def exact_ratios_fit(n: int) -> bool:
    """Whether exact ratios over n ground elements fit RATIO_ENUM_CAP. The
    triple space is 3^n * n; the cap guards the request even though the scan
    is organized as subset-extreme sweeps rather than raw triples."""
    return (3**n) * n <= RATIO_ENUM_CAP


def _require_ratios_fit(n: int) -> None:
    if not exact_ratios_fit(n):
        raise CapExceededError(
            f"ratio enumeration needs {(3**n) * n} triples > cap {RATIO_ENUM_CAP}"
        )


def _subset_fold(table: np.ndarray, op) -> None:
    """In place, table[B] becomes op over table[A] for every submask A of B:
    one pass per bit folds each set without the bit into the set with it."""
    for b in range(table.size.bit_length() - 1):
        pairs = table.reshape(-1, 2, 1 << b)
        op(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])


def exact_ratios_from_values(values: Sequence[float], n: int) -> RatioReport:
    """Exact alpha and gamma of a set function given as a table over 2^n.

    For each element e, the sets B without e are numbered 0..2^(n-1)-1 in
    ascending order of their other bits, so A is a subset of B exactly when
    A's number is a submask of B's. The extremes of the marginal over every
    A subset of B are subset folds of these arrays. A witness (A, B, e) names
    the first B, in ascending order, of the best e, and the largest A under
    B whose marginal is the extreme.
    """
    if n < 1:
        raise ValidationError("ground set must be nonempty")
    _require_ratios_fit(n)
    F = np.asarray(values, dtype=float)
    if F.shape != (1 << n,):
        raise ValidationError(f"expected {1 << n} subset values, got {F.shape}")
    if not np.isfinite(F).all():
        raise ValidationError("subset values must be finite")
    numbers = np.arange(1 << (n - 1))
    subsets = np.ones(len(numbers), dtype=np.int64)  # 2^|B|
    _subset_fold(subsets, np.add)

    def witness(rho, b, e, target):
        """(A, B, e) as ground masks: bit e goes back between the others."""
        a = np.flatnonzero(((numbers & ~b) == 0) & (rho == target))[-1]
        a_mask, b_mask = (int(m >> e << (e + 1) | m & ((1 << e) - 1)) for m in (a, b))
        return (a_mask, b_mask, e)

    report = RatioReport(alpha=0.0, gamma=1.0, kind="exact", n_elements=n)
    for e in range(n):
        pairs = F.reshape(-1, 2, 1 << e)
        rho = (pairs[:, 1] - pairs[:, 0]).ravel()
        amax, amin = rho.copy(), rho.copy()
        negs = (rho < 0).astype(np.int64)
        _subset_fold(amax, np.maximum)
        _subset_fold(amin, np.minimum)
        _subset_fold(negs, np.add)
        neg = np.flatnonzero(rho < 0)
        if len(neg):
            cand = 1.0 - amax[neg] / rho[neg]
            i = int(np.argmax(cand))
            if cand[i] > report.alpha:
                report.alpha = float(cand[i])
                report.alpha_witness = witness(rho, neg[i], e, amax[neg[i]])
        useg = neg[amin[neg] < 0]
        if len(useg):
            cand = rho[useg] / amin[useg]
            i = int(np.argmin(cand))
            if cand[i] < report.gamma:
                report.gamma = float(cand[i])
                report.gamma_witness = witness(rho, useg[i], e, amin[useg[i]])
        zero = rho == 0.0
        report.skipped_alpha += int(subsets[zero].sum())
        report.skipped_gamma += int(negs[zero].sum())
    report.alpha = min(1.0, max(0.0, report.alpha))
    report.gamma = min(1.0, max(0.0, report.gamma))
    return report


def exact_ratios(source: ObjectiveSource) -> RatioReport:
    """Exact ratios of the extended group objective over task-robot pairs.

    Chains range over the full power set of pairs. Restricting them to sets
    that assign each task at most once could only tighten the ratios (smaller
    alpha, larger gamma), so the full scan errs on the safe side of the bounds
    the theorems certify. The 2^n ground values are gathered from one price
    table per robot (_ground_values), with the bits and the lookup counts of
    a set-by-set product.
    """
    n = source.n_tasks * source.n_robots
    if n < 1:
        raise ValidationError("need at least one task and one robot")
    _require_ratios_fit(n)
    return exact_ratios_from_values(_ground_values(source), n)


def _ground_values(source: ObjectiveSource) -> np.ndarray:
    """F of every set of task-robot pairs, indexed by ground mask.

    The ground masks span one axis of length 2 per pair, highest bit first.
    Robot r's price table spans the axes of its pairs t * R + r, whose order
    is the table's own, so it broadcasts over the rest. The factors multiply
    in robot order 0..R-1 from 1.0, as group_success does, so every value has
    the bits of the set-by-set product. The source counts the R * 2^n lookups
    that product makes: a table is one lookup of each of its masks, and every
    other lookup repeats one of them, so it adds to hit_count.
    """
    n_r, n_t = source.n_robots, source.n_tasks
    n = n_t * n_r
    values = np.ones((2,) * n)
    for r in range(n_r):
        # axis k holds ground bit n - 1 - k; the robot's bits keep length 2
        shape = [2 if (n - 1 - k) % n_r == r else 1 for k in range(n)]
        values *= source.price_table(r).reshape(shape)
    source.hit_count += n_r * ((1 << n) - (1 << n_t))
    return values.ravel()


def _trace_observations(trace: GreedyTrace) -> Dict[Tuple[int, int], List[Tuple[int, float]]]:
    """Ground-set marginals the greedy run actually evaluated.

    Forward bids are addition marginals at the current allocation; reverse
    bids are removal gains, equal to minus the addition marginal at the
    allocation without the pair. Multiplying by the other robots' cached f
    values turns per-robot differences into marginals of F itself.
    """
    n_r = trace.n_robots
    obs: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}
    for rec in trace.iterations:
        base_w = 0
        for r, m in enumerate(rec.masks_before):
            for t in range(trace.n_tasks):
                if m >> t & 1:
                    base_w |= 1 << pair_bit(t, r, n_r)
        for r, evals in rec.evaluations.items():
            if not evals:
                continue
            p_others = 1.0
            for r2 in range(n_r):
                if r2 != r and r2 not in trace.excluded:
                    p_others *= rec.f_before[r2]
            for t, d in evals:
                e_bit = pair_bit(t, r, n_r)
                if trace.kind == "forward":
                    base = base_w
                    rho = d * p_others
                else:
                    base = base_w & ~(1 << e_bit)
                    rho = -d * p_others
                if base >> e_bit & 1:
                    raise ValidationError("trace evaluation overlaps its own pair")
                obs.setdefault((r, t), []).append((base, rho))
    return obs


def greedy_ratios(trace: GreedyTrace) -> RatioReport:
    """One-sided ratio estimates from nested marginals recorded in a trace.

    Every comparable pair of evaluations of the same (task, robot) pair at
    nested allocations is a genuine chain constraint, so alpha_g <= alpha and
    gamma_g >= gamma whenever the exact values exist.
    """
    obs = _trace_observations(trace)
    alpha, gamma = 0.0, 1.0
    aw = gw = None
    comparable = 0
    skipped_alpha = skipped_gamma = 0
    for (r, t), lst in obs.items():
        e = pair_bit(t, r, trace.n_robots)
        for a_mask, rho_a in lst:
            for b_mask, rho_b in lst:
                if a_mask == b_mask or (a_mask & b_mask) != a_mask:
                    continue
                comparable += 1
                if rho_b < 0.0:
                    cand = 1.0 - rho_a / rho_b
                    if cand > alpha:
                        alpha, aw = cand, (a_mask, b_mask, e)
                elif rho_b == 0.0:
                    skipped_alpha += 1
                if rho_a < 0.0:
                    if rho_b < 0.0:
                        cand = rho_b / rho_a
                        if cand < gamma:
                            gamma, gw = cand, (a_mask, b_mask, e)
                    elif rho_b == 0.0:
                        skipped_gamma += 1
    if comparable == 0:
        raise InsufficientObservationsError(
            f"{trace.kind} trace holds no nested evaluations of a shared pair"
        )
    return RatioReport(
        alpha=min(1.0, max(0.0, alpha)), gamma=min(1.0, max(0.0, gamma)),
        kind="greedy", n_elements=trace.n_tasks * trace.n_robots,
        alpha_witness=aw, gamma_witness=gw,
        skipped_alpha=skipped_alpha, skipped_gamma=skipped_gamma,
        observations=comparable,
    )


def combine_ratio_reports(reports: Sequence[RatioReport]) -> RatioReport:
    """Pool greedy estimates from several traces (max alpha, min gamma)."""
    if not reports:
        raise ValidationError("no ratio reports to combine")
    best_a = max(reports, key=lambda r: r.alpha)
    best_g = min(reports, key=lambda r: r.gamma)
    return RatioReport(
        alpha=best_a.alpha, gamma=best_g.gamma, kind="greedy",
        n_elements=reports[0].n_elements,
        alpha_witness=best_a.alpha_witness, gamma_witness=best_g.gamma_witness,
        skipped_alpha=sum(r.skipped_alpha for r in reports),
        skipped_gamma=sum(r.skipped_gamma for r in reports),
        observations=sum(r.observations for r in reports),
    )


@dataclass
class GuaranteeReport:
    """Worst-case guarantee evaluation for both greedy directions.

    The cross-multiplied inequality checks are defined for every (alpha,
    gamma) in [0, 1]^2, degenerating to trivially true statements at alpha = 1
    or gamma = 0. The a-priori floors g_forward and g_reverse divide by
    gamma (1 - alpha), so they are None when vacuous is set.
    """

    f_empty: float
    f_full: float
    f_star: Optional[float]
    f_forward: Optional[float]
    f_reverse: Optional[float]
    alpha: float
    gamma: float
    ratio_kind: str
    g_forward: Optional[float] = None
    g_reverse: Optional[float] = None
    forward_lhs: Optional[float] = None
    forward_rhs: Optional[float] = None
    forward_ok: Optional[bool] = None
    reverse_lhs: Optional[float] = None
    reverse_rhs: Optional[float] = None
    reverse_ok: Optional[bool] = None

    def to_dict(self) -> Dict:
        return asdict(self)


def _require_nonvacuous(alpha: float, gamma: float) -> None:
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"ratios outside [0, 1]: alpha={alpha}, gamma={gamma}")
    if alpha >= 1.0 or gamma <= 0.0:
        raise VacuousBoundError(f"bounds are vacuous at alpha={alpha}, gamma={gamma}")


def _floors(f_star, alpha, gamma):
    """Both floors, element-wise on scalars or arrays of ratios."""
    c = gamma * (1.0 - alpha)
    return f_star / c + (c - 1.0) / c, f_star * gamma / (1.0 + gamma * alpha)


def guarantee_values(f_star: float, alpha: float, gamma: float) -> Tuple[float, float]:
    """A-priori success floors for both directions at optimum F*.

    Forward: F* / (gamma (1-alpha)) + (gamma (1-alpha) - 1) / (gamma (1-alpha));
    reverse: F* gamma / (1 + gamma alpha). Vacuous at alpha = 1 or gamma = 0.
    """
    _require_nonvacuous(alpha, gamma)
    return _floors(f_star, alpha, gamma)


def theorem_bounds(
    f_empty: float,
    f_full: float,
    f_star: Optional[float],
    f_forward: Optional[float],
    f_reverse: Optional[float],
    alpha: float,
    gamma: float,
    ratio_kind: str = "exact",
) -> GuaranteeReport:
    """Check both greedy guarantees in cross-multiplied, sign-safe form.

    Forward (drops from the unloaded objective F(empty)):
        gamma (1-alpha) (F_fg - F_empty) >= F* - F_empty
    Reverse (gains over the fully loaded objective F(full)):
        gamma (F* - F_full) <= (1 + gamma alpha) (F_rg - F_full)

    At alpha = 1 or gamma = 0 the floors divide by zero and both checks
    degenerate to trivially true statements, so the whole evaluation is
    refused as vacuous rather than silently reported.
    """
    _require_nonvacuous(alpha, gamma)
    report = GuaranteeReport(
        f_empty=f_empty, f_full=f_full, f_star=f_star,
        f_forward=f_forward, f_reverse=f_reverse,
        alpha=alpha, gamma=gamma, ratio_kind=ratio_kind,
    )
    if f_star is None:
        return report
    report.g_forward, report.g_reverse = _floors(f_star, alpha, gamma)
    c = gamma * (1.0 - alpha)
    if f_forward is not None:
        report.forward_lhs = c * (f_forward - f_empty)
        report.forward_rhs = f_star - f_empty
        report.forward_ok = bool(report.forward_lhs >= report.forward_rhs - BOUND_TOL)
    if f_reverse is not None:
        report.reverse_lhs = gamma * (f_star - f_full)
        report.reverse_rhs = (1.0 + gamma * alpha) * (f_reverse - f_full)
        report.reverse_ok = bool(report.reverse_lhs <= report.reverse_rhs + BOUND_TOL)
    return report


@dataclass
class RegionMap:
    """Grid over (alpha, gamma) marking where the forward floor strictly
    beats the reverse floor. At F* = 0.5 the floors coincide at (0, 1) and the
    reverse floor wins everywhere else, so the marked region is empty."""

    f_star: float
    alphas: np.ndarray
    gammas: np.ndarray
    forward_floor: np.ndarray  # (len(gammas), len(alphas))
    reverse_floor: np.ndarray
    forward_better: np.ndarray

    def to_dict(self) -> Dict:
        return {
            "f_star": self.f_star,
            "alphas": self.alphas.tolist(),
            "gammas": self.gammas.tolist(),
            "forward_better": self.forward_better.astype(int).tolist(),
        }


def require_region_resolution(resolution: int) -> None:
    """A region map needs at least 2 and at most REGION_RESOLUTION_CAP
    points per axis."""
    if resolution < 2:
        raise ValidationError("resolution must be >= 2")
    if resolution > REGION_RESOLUTION_CAP:
        raise CapExceededError(f"region resolution {resolution} > cap {REGION_RESOLUTION_CAP}")


def region_map(f_star: float, resolution: int = 100) -> RegionMap:
    """Evaluate both guarantee floors on a resolution x resolution grid over
    REGION_ALPHAS x REGION_GAMMAS."""
    require_region_resolution(resolution)
    if not 0.0 <= f_star <= 1.0:
        raise ValidationError(f"F* must lie in [0, 1], got {f_star}")
    alphas = np.linspace(*REGION_ALPHAS, resolution)
    gammas = np.linspace(*REGION_GAMMAS, resolution)
    A, G = np.meshgrid(alphas, gammas)
    fwd, rev = _floors(f_star, A, G)
    return RegionMap(
        f_star=f_star, alphas=alphas, gammas=gammas,
        forward_floor=fwd, reverse_floor=rev,
        forward_better=fwd > rev,
    )
