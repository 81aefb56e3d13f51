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


def exact_ratios_from_values(values: Sequence[float], n: int) -> RatioReport:
    """Exact alpha and gamma of a set function given as a table over 2^n."""
    if n < 1:
        raise ValidationError("ground set must be nonempty")
    _require_ratios_fit(n)
    size = 1 << n
    F = np.asarray(values, dtype=float)
    if F.shape != (size,):
        raise ValidationError(f"expected {size} subset values, got {F.shape}")
    all_masks = np.arange(size)
    popcount = np.array([int(m).bit_count() for m in range(size)], dtype=np.int64)
    with_bit = [np.nonzero(all_masks & (1 << b))[0] for b in range(n)]

    alpha, gamma = 0.0, 1.0
    alpha_site: Optional[Tuple[int, int, float]] = None  # (B, e, target marg at A)
    gamma_site: Optional[Tuple[int, int, float]] = None
    skipped_alpha = 0
    skipped_gamma = 0
    for e in range(n):
        bit = 1 << e
        has_e = (all_masks & bit) > 0
        no_e = all_masks[~has_e]
        marg = np.full(size, np.nan)
        marg[no_e] = F[no_e | bit] - F[no_e]
        mx = np.where(np.isnan(marg), -np.inf, marg)
        mn = np.where(np.isnan(marg), np.inf, marg)
        neg = np.where(np.isnan(marg), 0, (marg < 0).astype(np.int64))
        for b in range(n):
            if b == e:
                continue
            idx = with_bit[b]
            low = idx ^ (1 << b)
            mx[idx] = np.maximum(mx[idx], mx[low])
            mn[idx] = np.minimum(mn[idx], mn[low])
            neg[idx] += neg[low]
        b_masks = all_masks[~has_e]
        rho_b = marg[b_masks]
        amax = mx[b_masks]
        amin = mn[b_masks]
        negb = rho_b < 0
        if np.any(negb):
            cand = 1.0 - amax[negb] / rho_b[negb]
            i = int(np.argmax(cand))
            if cand[i] > alpha:
                alpha = float(cand[i])
                bm = int(b_masks[negb][i])
                alpha_site = (bm, e, float(amax[negb][i]))
        useg = negb & (amin < 0)
        if np.any(useg):
            cand = rho_b[useg] / amin[useg]
            i = int(np.argmin(cand))
            if cand[i] < gamma:
                gamma = float(cand[i])
                bm = int(b_masks[useg][i])
                gamma_site = (bm, e, float(amin[useg][i]))
        zerob = rho_b == 0.0
        skipped_alpha += int((2 ** popcount[b_masks[zerob]]).sum())
        skipped_gamma += int(neg[b_masks[zerob]].sum())

    alpha = min(1.0, max(0.0, alpha))
    gamma = min(1.0, max(0.0, gamma))
    report = RatioReport(alpha=alpha, gamma=gamma, kind="exact", n_elements=n,
                         skipped_alpha=skipped_alpha, skipped_gamma=skipped_gamma)
    if alpha_site is not None:
        report.alpha_witness = _resolve_witness(F, alpha_site)
    if gamma_site is not None:
        report.gamma_witness = _resolve_witness(F, gamma_site)
    return report


def _resolve_witness(F: np.ndarray, site: Tuple[int, int, float]) -> Tuple[int, int, int]:
    """Recover the sub-chain A achieving the recorded extreme marginal."""
    b_mask, e, target = site
    bit = 1 << e
    sub = b_mask
    while True:
        rho = float(F[sub | bit] - F[sub])
        if rho == target:
            return (sub, b_mask, e)
        if sub == 0:
            break
        sub = (sub - 1) & b_mask
    return (b_mask, b_mask, e)


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

    Each robot's mask of a ground set gathers f_r from the robot's price
    table, and the factors multiply in robot order 0..R-1 from 1.0, as
    group_success does, so every value has the bits of the set-by-set
    product. The source counts the R * 2^n lookups that product makes: a
    table is one lookup of each of its masks, and every other lookup repeats
    one of them, so it adds to hit_count.
    """
    n_r, n_t = source.n_robots, source.n_tasks
    ground = np.arange(1 << (n_t * n_r), dtype=np.int64)
    values = np.ones(len(ground))
    for r in range(n_r):
        masks = np.zeros_like(ground)
        for t in range(n_t):
            masks |= (ground >> pair_bit(t, r, n_r) & 1) << t
        values *= source.price_table(r)[masks]
    source.hit_count += n_r * (len(ground) - (1 << n_t))
    return values


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


def region_map(f_star: float, resolution: int = 100) -> RegionMap:
    """Evaluate both guarantee floors on a resolution x resolution grid over
    REGION_ALPHAS x REGION_GAMMAS."""
    if resolution < 2:
        raise ValidationError("resolution must be >= 2")
    if resolution > REGION_RESOLUTION_CAP:
        raise CapExceededError(f"region resolution {resolution} > cap {REGION_RESOLUTION_CAP}")
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
