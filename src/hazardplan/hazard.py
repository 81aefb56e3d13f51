"""Stochastic hazard spread and the per-step contamination transition field.

Contamination is permanent and spreads cell to cell: in each step an
uncontaminated free cell stays clear with probability

    prod over contaminated orthogonal neighbors nb of (1 - theta(nb))
    * prod over contaminated diagonal neighbors nb of (1 - theta(nb)/sqrt(2))

where theta(nb) is the spread speed carried by the neighbor. With a single
global speed this is (1-theta)^n_orth * (1-theta/sqrt(2))^n_diag. Obstacles
never ignite and block spread entirely.

The planner consumes the spread only through the transition field
p[k](x', x) = P(x' contaminated at k+1 | x clear at k), stored for x' in
{x} union orthogonal neighbors, which mirrors the five move slots.

On small maps the distribution over contamination sets is propagated
exactly. Live states are int64 bitmasks held in arrays, and each step
enumerates the ignition outcomes of all of them at once. One pass yields
the transition field and the per-cell contamination marginals of every
step 0..horizon. Sums run in the order of a scalar loop over states and
outcomes, so the result does not depend on how the arrays are laid out.
The Monte-Carlo estimator derives the same per-step marginals from the
counts its sampler run keeps for the field. Either builder stores them in
ContaminationField.marginals, which is the only source of contamination
heat, and which a field cache saves along with the field.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

import numpy as np

from .errors import CapExceededError, NumericViolationError, ValidationError
from .grid import Cell, GridMap, N_ACTIONS, N_SLOTS

SQRT2 = math.sqrt(2.0)
EXACT_HAZARD_CELL_CAP = 12
EXACT_MASK_BITS = 62
_STEP_ROWS = 1024
FIELD_SUM_TOL = 1e-10
FIELD_KINDS = ("exact", "monte-carlo")
# what a field cache holds, by entry: the numpy dtype kinds it may have
_CACHE_DTYPES = {
    "horizon": "iu", "n_free": "iu", "samples": "iu", "seed": "iu",
    "kind": "U", "scenario_hash": "U", "prob": "f", "flagged": "b", "marginals": "f",
}
_CACHE_SCALARS = ("horizon", "n_free", "samples", "seed", "kind", "scenario_hash")


@dataclass(frozen=True)
class HazardSource:
    """One initially contaminated region with its own spread speed."""

    cells: FrozenSet[Cell]
    theta: float
    label: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(Cell(*c) for c in self.cells))
        if not 0.0 <= self.theta <= 1.0:
            raise ValidationError(f"spread speed {self.theta} outside [0, 1]")


@dataclass(frozen=True)
class HazardModel:
    """Initially contaminated cells plus per-source spread speeds."""

    sources: Tuple[HazardSource, ...]

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        seen = set()
        for src in self.sources:
            if seen & src.cells:
                raise ValidationError("hazard sources overlap")
            seen |= src.cells

    @classmethod
    def uniform(cls, cells: Iterable[Cell], theta: float) -> "HazardModel":
        cells = frozenset(Cell(*c) for c in cells)
        if not cells:
            return cls(sources=())
        return cls(sources=(HazardSource(cells=cells, theta=theta),))

    @property
    def initial_cells(self) -> FrozenSet[Cell]:
        out = frozenset()
        for src in self.sources:
            out |= src.cells
        return out


class _SpreadDynamics:
    """Precomputed arrays binding a hazard model to one grid."""

    def __init__(self, gridmap: GridMap, model: HazardModel):
        self.gridmap = gridmap
        self.model = model
        n = gridmap.n_free
        for cell in model.initial_cells:
            if not gridmap.is_free(cell):
                raise ValidationError(f"hazard source cell {cell} is not free")
        self.initial = np.zeros(n, dtype=bool)
        for cell in model.initial_cells:
            self.initial[gridmap.index(cell)] = True
        self.theta = self._theta_field()
        self.w_orth = 1.0 - self.theta
        self.w_diag = 1.0 - self.theta / SQRT2

    def _theta_field(self) -> np.ndarray:
        """Per-cell spread speed: each cell inherits the speed of the nearest
        source (breadth-first through free cells, earlier sources win ties).
        Cells no source can ever reach keep speed 0."""
        gm = self.gridmap
        theta = np.zeros(gm.n_free)
        assigned = np.zeros(gm.n_free, dtype=bool)
        queue = deque()
        for src in self.model.sources:
            for cell in sorted(src.cells):
                i = gm.index(cell)
                if not assigned[i]:
                    assigned[i] = True
                    theta[i] = src.theta
                    queue.append(i)
        nbr = gm.neighbor_slots
        while queue:
            i = queue.popleft()
            for j in range(1, N_SLOTS):
                k = nbr[i, j]
                if k >= 0 and not assigned[k]:
                    assigned[k] = True
                    theta[k] = theta[i]
                    queue.append(k)
        return theta


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


@lru_cache(maxsize=16)
def _dynamics(gridmap: GridMap, model: HazardModel) -> _SpreadDynamics:
    return _SpreadDynamics(gridmap, model)


def _require_exact_size(n_free: int, cell_cap: int, what: str) -> None:
    if n_free > cell_cap:
        raise CapExceededError(f"{what} {n_free} free cells <= cap {cell_cap}")
    if n_free > EXACT_MASK_BITS:
        raise CapExceededError(
            f"{what} {n_free} free cells, but states are {EXACT_MASK_BITS}-bit masks"
        )


def _cells_to_bits(gridmap: GridMap, cells: Iterable[Cell]) -> int:
    m = 0
    for c in cells:
        m |= 1 << gridmap.index(Cell(*c))
    return m


def _sequential_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 strictly in row order. np.sum adds pairwise, which
    can move the last bit; running sums match a scalar accumulation loop."""
    return np.cumsum(a, axis=0)[-1]


def _live_states(n: int, states: np.ndarray, probs: np.ndarray):
    """Drop zero-mass states and unpack the rest into a (states, n) bool matrix."""
    live = probs != 0.0
    states, probs = states[live], probs[live]
    contaminated = ((states[:, np.newaxis] >> np.arange(n, dtype=np.int64)) & 1).astype(bool)
    return states, probs, contaminated


def _exact_step(
    states: np.ndarray,
    probs: np.ndarray,
    contaminated: np.ndarray,
    clear: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One exact spread step over live states (int64 masks, probabilities).

    Each clear cell of a state ignites independently with 1 - clear. Cells
    certain to ignite join the state's mask; the outcomes of the uncertain
    cells are enumerated by _outcomes and summed into the next states in
    (source state, combo) order, which also fixes the order of the returned
    states (by first appearance). That is the arithmetic of a scalar loop
    over states and combos, so the result is bit-for-bit reproducible.
    States are expanded a few at a time, so the working set stays near
    _STEP_ROWS outcome rows.
    """
    n = contaminated.shape[1]
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    ignite = 1.0 - clear
    free = ~contaminated
    uncertain = free & (ignite > 0.0) & (ignite < 1.0)
    base = states | ((free & (ignite >= 1.0)) * bits).sum(axis=1)
    ends = np.cumsum(np.left_shift(1, uncertain.sum(axis=1)))
    nxt: Dict[int, float] = {}
    lo = 0
    while lo < len(states):
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _STEP_ROWS, side="right")))
        rows = _outcomes(base[lo:hi], probs[lo:hi], uncertain[lo:hi], ignite[lo:hi], bits)
        for m, p in zip(*(r.tolist() for r in rows)):
            nxt[m] = nxt.get(m, 0.0) + p
        lo = hi
    count = len(nxt)
    return (
        np.fromiter(nxt.keys(), dtype=np.int64, count=count),
        np.fromiter(nxt.values(), dtype=np.float64, count=count),
    )


def _outcomes(
    base: np.ndarray,
    probs: np.ndarray,
    uncertain: np.ndarray,
    ignite: np.ndarray,
    bits: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ignition outcome of a few states as (mask, probability) rows in
    (state, combo) order. Combo bit b stands for the state's b-th lowest
    uncertain cell; probabilities are multiplied in ascending cell order."""
    sizes = np.left_shift(1, uncertain.sum(axis=1))
    src = np.repeat(np.arange(len(base)), sizes)
    combo = np.arange(len(src)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    mask = base[src]
    prob = probs[src]
    for i in np.nonzero(uncertain.any(axis=0))[0]:
        u = uncertain[src, i]
        hit = u & (combo & 1 == 1)
        q = ignite[src, i]
        # a factor of exactly 1.0 leaves rows where cell i is not uncertain as they are
        prob *= np.where(u, np.where(hit, q, 1.0 - q), 1.0)
        mask[hit] |= bits[i]
        combo >>= u
    return mask, prob


def _propagate_exact(dyn: _SpreadDynamics, horizon: int):
    """Exact propagation of the contamination distribution for horizon steps.

    One pass yields the transition field (prob, flagged) of steps
    0..horizon-1 and the per-cell contamination marginals of steps
    0..horizon.
    """
    n = dyn.gridmap.n_free
    nbr = dyn.gridmap.neighbor_slots[:, :N_ACTIONS]
    valid_slots = nbr >= 0
    dest = np.where(valid_slots, nbr, 0)
    states = np.array([_cells_to_bits(dyn.gridmap, dyn.model.initial_cells)], dtype=np.int64)
    probs = np.ones(1)
    prob = np.zeros((horizon, n, N_ACTIONS))
    flagged = np.zeros((horizon, n), dtype=bool)
    marginals = np.zeros((horizon + 1, n))
    for k in range(horizon + 1):
        states, probs, contaminated = _live_states(n, states, probs)
        marginals[k] = _sequential_sum(np.where(contaminated, probs[:, np.newaxis], 0.0))
        if k == horizon:
            break
        clear = _clear_probs(dyn, contaminated)
        pc_next = 1.0 - clear
        is_clear = ~contaminated
        den = _sequential_sum(np.where(is_clear, probs[:, np.newaxis], 0.0))
        num = np.empty((n, N_ACTIONS))
        for j in range(N_ACTIONS):
            hits = probs[:, np.newaxis] * pc_next[:, dest[:, j]]
            num[:, j] = _sequential_sum(np.where(valid_slots[:, j] & is_clear, hits, 0.0))
        flag_k = den == 0.0
        flagged[k] = flag_k
        safe = np.where(flag_k, 1.0, den)
        prob[k] = num / safe[:, np.newaxis]
        prob[k, flag_k, :] = 1.0
        states, probs = _exact_step(states, probs, contaminated, clear)
        total = sum(probs.tolist())
        if abs(total - 1.0) > FIELD_SUM_TOL:
            raise NumericViolationError(f"exact propagation mass {total!r} at step {k}")
    prob[:, ~valid_slots] = 0.0
    prob = np.clip(prob, 0.0, 1.0)
    return prob, flagged, marginals


@dataclass
class ContaminationField:
    """Step-indexed transition probabilities p[k, x, slot] into contamination.

    Slot j of cell x is x + SLOT_DISPLACEMENTS[j] for j < 5 (self plus the
    orthogonal moves); entries for blocked slots are 0 and never read. When no
    sample had x clear at step k the conditioning is undefined: the row is set
    to 1 and flagged[k, x] marks the cell almost surely contaminated then.
    """

    horizon: int
    n_free: int
    prob: np.ndarray
    flagged: np.ndarray
    kind: str
    samples: int = 0
    seed: int = 0
    scenario_hash: str = ""
    # marginals[k, x] = P(x contaminated at step k), k = 0..horizon, from the
    # pass that built the field; saved with it
    marginals: Optional[np.ndarray] = None

    def save(self, path) -> None:
        if self.marginals is None:
            raise ValidationError("a field without marginals cannot be cached")
        if not self.scenario_hash:
            raise ValidationError("a field without a scenario hash cannot be cached")
        np.savez_compressed(
            path,
            horizon=self.horizon,
            n_free=self.n_free,
            prob=self.prob,
            flagged=self.flagged,
            marginals=self.marginals,
            kind=np.array(self.kind),
            samples=self.samples,
            seed=self.seed,
            scenario_hash=np.array(self.scenario_hash),
        )

    @classmethod
    def load(cls, path) -> "ContaminationField":
        """The field save wrote to path. A file that is not one raises
        ValidationError naming the path."""
        try:
            loaded = np.load(path, allow_pickle=False)
            if isinstance(loaded, np.ndarray):
                raise ValueError("an npy array, not an npz archive")
            with loaded as npz:
                data = {key: npz[key] for key in npz.files}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
            raise ValidationError(f"field cache {path} is not a readable npz file") from exc

        def bad(what: str) -> ValidationError:
            return ValidationError(f"field cache {path} {what}; delete the cache and rebuild it")

        missing = [key for key in _CACHE_DTYPES if key not in data]
        if missing:
            raise bad(f"lacks {', '.join(missing)}")
        for key, kinds in _CACHE_DTYPES.items():
            if data[key].dtype.kind not in kinds:
                raise bad(f"holds {key} of dtype {data[key].dtype}")
        for key in _CACHE_SCALARS:
            if data[key].ndim:
                raise bad(f"holds {key} of shape {data[key].shape}, not a scalar")
        h, n = int(data["horizon"]), int(data["n_free"])
        shapes = {"prob": (h, n, N_ACTIONS), "flagged": (h, n), "marginals": (h + 1, n)}
        for key, shape in shapes.items():
            if data[key].shape != shape:
                raise bad(
                    f"holds {key} of shape {data[key].shape}, but a field of horizon "
                    f"{h} on {n} cells needs {shape}"
                )
        if h < 1:
            raise bad(f"holds a field of horizon {h}")
        # exact marginals are sums that may round past 1; NaN fails both
        # comparisons, so non-finite entries are refused too
        for key, slack in (("prob", 0.0), ("marginals", FIELD_SUM_TOL)):
            if not np.all((data[key] >= -slack) & (data[key] <= 1.0 + slack)):
                raise bad(f"holds {key} entries outside [0, 1]")
        kind, samples = str(data["kind"]), int(data["samples"])
        if kind not in FIELD_KINDS:
            raise bad(f"holds a field of unknown kind {kind!r}")
        if kind == "monte-carlo" and samples < 1:
            raise bad(f"holds a Monte-Carlo field of {samples} samples")
        if not str(data["scenario_hash"]):
            raise bad("holds a field without a scenario hash")
        return cls(
            horizon=h,
            n_free=n,
            prob=data["prob"],
            flagged=data["flagged"],
            kind=kind,
            samples=samples,
            seed=int(data["seed"]),
            scenario_hash=str(data["scenario_hash"]),
            marginals=data["marginals"],
        )


def _sample_chunk(
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


def _run_chunks(dyn, horizon, samples, seed, threads):
    n = dyn.gridmap.n_free
    chunk = max(1, min(2048, 24_000_000 // max(1, horizon * n * 8)))
    ranges = [(s, min(s + chunk, samples)) for s in range(0, samples, chunk)]
    worker = lambda r: _sample_chunk(dyn, horizon, seed, r[0], r[1])
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, ranges))
    else:
        results = [worker(r) for r in ranges]
    den = np.zeros((horizon, n), dtype=np.int64)
    num = np.zeros((horizon, n, N_ACTIONS), dtype=np.int64)
    final = np.zeros(n, dtype=np.int64)
    for d, nm, f in results:
        den += d
        num += nm
        final += f
    return den, num, final


def estimate_contamination_field(
    gridmap: GridMap,
    model: HazardModel,
    horizon: int,
    samples: int,
    seed: int,
    threads: int = 1,
) -> ContaminationField:
    """Monte-Carlo estimate of the contamination transition field.

    Counts are integers summed in a fixed chunk order before any division, so
    the result is bitwise identical for any thread count.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if samples < 1:
        raise ValidationError(f"sample count must be >= 1, got {samples}")
    dyn = _dynamics(gridmap, model)
    den, num, final = _run_chunks(dyn, horizon, samples, seed, threads)
    flagged = den == 0
    safe = np.where(flagged, 1, den)[:, :, np.newaxis]
    prob = num / safe
    prob[flagged] = 1.0
    valid_slots = gridmap.neighbor_slots[:, :N_ACTIONS] >= 0
    prob[:, ~valid_slots] = 0.0
    # Step-0 conditioning is deterministic: exactly the initial cells flag.
    if not np.array_equal(flagged[0], dyn.initial):
        raise NumericViolationError("step-0 flags disagree with the initial contamination")
    if prob.min() < 0.0 or prob.max() > 1.0:
        raise NumericViolationError("contamination field entry outside [0, 1]")
    out = ContaminationField(
        horizon=horizon,
        n_free=gridmap.n_free,
        prob=prob,
        flagged=flagged,
        kind="monte-carlo",
        samples=samples,
        seed=seed,
        # samples contaminated at step k: those not clear then, and at the end
        marginals=np.vstack([samples - den, final]) / samples,
    )
    return out


def exact_contamination_field(
    gridmap: GridMap,
    model: HazardModel,
    horizon: int,
    cell_cap: int = EXACT_HAZARD_CELL_CAP,
) -> ContaminationField:
    """Contamination transition field from exact distribution propagation.

    The same pass fills the per-step marginals."""
    _require_exact_size(gridmap.n_free, cell_cap, "exact field needs")
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    prob, flagged, marginals = _propagate_exact(_dynamics(gridmap, model), horizon)
    return ContaminationField(
        horizon=horizon,
        n_free=gridmap.n_free,
        prob=prob,
        flagged=flagged,
        kind="exact",
        marginals=marginals,
    )
