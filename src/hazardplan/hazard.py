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

Every stay-clear probability is read from one table per grid and model,
lut[x, code], where bit j - 1 of the 8-bit code marks x's slot-j
neighbour contaminated. Its entries are the products above, taken in
slot order 1..8.

On small maps the distribution over contamination sets is propagated
exactly. Live states are int64 bitmasks held in arrays, and each step
enumerates their ignition outcomes a block of rows at a time. The states of
a block with the same number u of uncertain cells are built together by
doubling a (2^u, states) table once per cell, in ascending cell order.
Each block is merged into the next states by a stable sort on the masks
cast to the narrowest unsigned type that holds them (a radix sort up to 16
cells) and np.bincount, which add every state's outcomes from 0.0 in
(source state, combo) order and keep states in order of first appearance,
as a scalar loop over states and outcomes into a dict would. So the result
does not depend on how the arrays are laid out or on the block size. One
pass yields the transition field and the per-cell contamination marginals
of every step 0..horizon.

The Monte-Carlo sampler walks first-passage times. lut[x, code] is a
product over x's burning neighbours y of per-neighbour weights w(y), so the
spread is exactly an independent trial per step on each edge y -> x that
succeeds with 1 - w(y). Geometric delays are memoryless, so x ignites at
min over burning neighbours y of fired[y] + D, D ~ Geometric(1 - w(y)) on
1, 2, ...: the same law as a draw per clear cell per step. Samples are split
into blocks of _block_size(n_free) samples, a size no horizon changes, and
block b reads one stream, PCG64(SeedSequence((seed, b))). A block's walk
(_sample_block) keeps a bucket of arrivals per step: each cell that ignites
draws one delay per out-edge whose target is still clear, and step k
ignites the clear cells of its bucket. So a step costs what its ignitions
cost, not samples x cells. The walk returns the step at which each (sample,
cell) ignited; those steps give every integer count of the field
(_chunk_counts), and the blocks run and are summed one after another in
block order, so a field is the same bits on every run. Joint-mode rollouts
read the same steps, from blocks on streams of their own, as their trials'
hazard (planner.rollout). A field of S samples is a prefix of a larger one
only when S ends a block; its first k steps are the same bits for every
longer horizon, since step k's delays are drawn after every earlier step's
and arrivals past the horizon are only dropped. The same counts give the
per-step marginals. Either builder stores them in ContaminationField.marginals,
which is the only source of contamination heat, and which a field cache
saves along with the field.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, Optional, Tuple

import numpy as np

from .errors import CapExceededError, NumericViolationError, ValidationError
from .grid import Cell, GridMap, N_ACTIONS, N_SLOTS

SQRT2 = math.sqrt(2.0)
EXACT_HAZARD_CELL_CAP = 12
EXACT_MASK_BITS = 62
_STEP_ROWS = 16384
# (sample, cell) pairs per sampler block: 1,005 samples on paper17x13's 199
# free cells, so 10,000 samples make 10 blocks
_BLOCK_CELLS = 200_000
FIELD_SUM_TOL = 1e-10
FIELD_KINDS = ("exact", "monte-carlo")
# The field cache layout, raised whenever a builder would give other bits for
# the same kind, samples and seed, so that no older cache is read as current.
# Format 2: the sampler's block streams. Format 3: the first-passage walk,
# whose single delay draw later moved the bits of maps with an edge p >= 1/3.
FIELD_CACHE_FORMAT = 3
# what a field cache holds, by entry: the numpy dtype kinds it may have
_CACHE_DTYPES = {
    "format": "iu", "horizon": "iu", "n_free": "iu", "samples": "iu", "seed": "iu",
    "kind": "U", "scenario_hash": "U", "prob": "f", "flagged": "b", "marginals": "f",
}
_CACHE_SCALARS = ("format", "horizon", "n_free", "samples", "seed", "kind", "scenario_hash")


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
        self.lut = self._stay_clear_table()
        # rev[y, j - 1] = the cell whose slot j is y, or n for none: the cells
        # whose code bit j - 1 an ignition of y sets
        nbr = gridmap.neighbor_slots
        self.rev = np.full((n, N_SLOTS - 1), n, dtype=np.intp)
        for j in range(1, N_SLOTS):
            has = nbr[:, j] >= 0
            self.rev[nbr[has, j], j - 1] = np.nonzero(has)[0]
        # the sampler's out-edges: a burning y tries to ignite edge_to[y, j - 1]
        # with edge_p[y, j - 1] = 1 - w per step; an edge to no cell, or one
        # that never ignites, points at the pad column n
        slot_w = np.where(np.arange(1, N_SLOTS) < N_ACTIONS, self.w_orth[:, np.newaxis],
                          self.w_diag[:, np.newaxis])
        self.edge_p = 1.0 - slot_w
        self.edge_to = np.where((self.rev < n) & (self.edge_p > 0.0), self.rev, n)
        # edge_to as offsets from y, so that y's targets in a sample's row
        # are y's own index in it plus edge_step[y]
        self.edge_step = self.edge_to - np.arange(n)[:, np.newaxis]
        # The walk draws a delay as max(1, ceil(E / edge_rate)), E a standard
        # exponential: P(D > k) = exp(-k * rate) = (1 - p)^k for every p. The
        # rate is the C library's log1p, which math.log1p calls (np.log1p may
        # round otherwise), so for p < 1/3 the delays are numpy's own
        # Generator.geometric(p) on the same stream. p = 1 has rate inf, where
        # math.log1p(-1.0) would raise, so its delays are 1.
        self.edge_rate = np.array(
            [-math.log1p(-p) if p < 1.0 else math.inf for p in self.edge_p.ravel().tolist()]
        ).reshape(self.edge_p.shape)

    def _stay_clear_table(self) -> np.ndarray:
        """lut[x, code] = P(clear cell x stays clear for one step) when bit
        j - 1 of the 8-bit code marks slot j's neighbour contaminated. The
        neighbours' weights multiply in slot order 1..8, starting from 1.0,
        so every entry is the product a slot-by-slot loop would form."""
        nbr = self.gridmap.neighbor_slots
        lut = np.ones((self.gridmap.n_free, 1 << (N_SLOTS - 1)))
        codes = np.arange(lut.shape[1])
        for j in range(1, N_SLOTS):
            has = nbr[:, j] >= 0
            weights = self.w_orth if j < N_ACTIONS else self.w_diag
            on = (codes >> (j - 1)) & 1 == 1
            lut[np.ix_(has, on)] *= weights[nbr[has, j]][:, np.newaxis]
        return lut

    def codes(self, contaminated: np.ndarray) -> np.ndarray:
        """Neighbour codes of a (rows, n_free) contamination matrix: bit j - 1
        of codes[r, x] is set when slot j's neighbour of x is contaminated."""
        # a missing neighbour has index -1, which picks the all-clear pad column
        padded = np.concatenate([contaminated, np.zeros((len(contaminated), 1), bool)], axis=1)
        nbr = self.gridmap.neighbor_slots
        out = np.zeros(contaminated.shape, dtype=np.intp)
        for j in range(1, N_SLOTS):
            out |= padded[:, nbr[:, j]].astype(np.intp) << (j - 1)
        return out

    def stay_clear(self, contaminated: np.ndarray) -> np.ndarray:
        """Row-wise stay-clear probabilities of a (rows, n_free) contamination
        matrix, read from lut; entries at contaminated cells are 0."""
        clear = self.lut[np.arange(self.gridmap.n_free), self.codes(contaminated)]
        clear[contaminated] = 0.0
        return clear

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


@lru_cache(maxsize=16)
def _dynamics(gridmap: GridMap, model: HazardModel) -> _SpreadDynamics:
    return _SpreadDynamics(gridmap, model)


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
    cells are built by _outcomes, a block of about _STEP_ROWS rows at a
    time, and merged into the running next states. A block's merge groups
    the running states followed by the block's rows with _first_groups, a
    stable sort on masks cast to the narrowest unsigned type that holds n
    bits, and sums each group with np.bincount, which adds its weights in
    input order from 0.0. So a running state's sum gains the block's
    outcomes in (source state, combo) order, and a new state starts from 0.0
    as well. Sorting the groups by first index, again on the narrowest type
    that holds it, keeps the running states in place and appends the new
    ones by first appearance. That is the arithmetic and the order of a
    scalar loop over states and combos into a dict, so the result is
    bit-for-bit reproducible, and the working set stays near _STEP_ROWS
    outcome rows plus the next states.
    """
    n = contaminated.shape[1]
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    ignite = 1.0 - clear
    free = ~contaminated
    uncertain = free & (ignite > 0.0) & (ignite < 1.0)
    base = states | ((free & (ignite >= 1.0)) * bits).sum(axis=1)
    ends = np.cumsum(np.left_shift(1, uncertain.sum(axis=1)))
    keys = np.empty(0, dtype=np.int64)
    sums = np.empty(0)
    lo = 0
    while lo < len(states):
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _STEP_ROWS, side="right")))
        masks, block = _outcomes(base[lo:hi], probs[lo:hi], uncertain[lo:hi], ignite[lo:hi], bits)
        keys, first, inv = _first_groups(np.concatenate([keys, masks]), n)
        sums = np.bincount(inv, weights=np.concatenate([sums, block]), minlength=len(keys))
        order = np.argsort(first.astype(np.min_scalar_type(len(inv))), kind="stable")
        keys, sums = keys[order], sums[order]
        lo = hi
    return keys, sums


def _first_groups(masks: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(masks, return_index=True, return_inverse=True) for n-bit
    masks: the sorted distinct masks, each one's first index and each row's
    group. A stable sort keeps each group's rows in input order, so its
    first row is the first occurrence; on masks of at most 16 bits it is a
    radix sort."""
    order = np.argsort(masks.astype(np.min_scalar_type((1 << n) - 1)), kind="stable")
    ordered = masks[order]
    new = np.empty(len(masks), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    inv = np.empty(len(masks), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return ordered[starts], order[starts], inv


def _outcomes(
    base: np.ndarray,
    probs: np.ndarray,
    uncertain: np.ndarray,
    ignite: np.ndarray,
    bits: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ignition outcome of a few states as (mask, probability) rows in
    (state, combo) order. Combo bit b stands for the state's b-th lowest
    uncertain cell; probabilities are multiplied in ascending cell order.

    The states with u uncertain cells are built together by doubling, as a
    (2^u, g) table with one column per state: once its i-th lowest cell is
    taken, rows c < 2^(i+1) hold every combo of cells 0..i, and row c + 2^i
    is row c with cell i ignited. So each row gains its factors one at a
    time in ascending cell order, from the state's probability. The tables
    share one buffer, and one scatter puts their rows in (state, combo)
    order."""
    counts = uncertain.sum(axis=1)
    sizes = np.left_shift(1, counts)
    offsets = np.cumsum(sizes) - sizes
    total = int(offsets[-1] + sizes[-1])
    table_probs = np.empty(total)
    table_masks = np.empty(total, dtype=np.int64)
    dest = np.empty(total, dtype=np.intp)
    lo = 0
    # np.bincount, not np.unique: numpy 2's np.unique without return_index
    # imports numpy.ma on first use, about 0.5 MB resident
    for u in np.flatnonzero(np.bincount(counts)).tolist():
        rows = np.flatnonzero(counts == u)
        width = 1 << u
        hi = lo + width * len(rows)
        p = table_probs[lo:hi].reshape(width, len(rows))
        m = table_masks[lo:hi].reshape(width, len(rows))
        p[0] = probs[rows]
        m[0] = base[rows]
        cells = np.nonzero(uncertain[rows])[1].reshape(len(rows), u).T
        q = ignite[rows, cells]
        stay = 1.0 - q
        bit = bits[cells]
        for i in range(u):
            w = 1 << i
            np.multiply(p[:w], q[i], out=p[w:2 * w])
            p[:w] *= stay[i]
            np.bitwise_or(m[:w], bit[i], out=m[w:2 * w])
        np.add(offsets[rows], np.arange(width)[:, np.newaxis], out=dest[lo:hi].reshape(m.shape))
        lo = hi
    mask = np.empty(total, dtype=np.int64)
    prob = np.empty(total)
    mask[dest] = table_masks
    prob[dest] = table_probs
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
    den = np.empty((horizon, n))
    num = np.empty((horizon, n, N_ACTIONS))
    marginals = np.zeros((horizon + 1, n))
    for k in range(horizon + 1):
        states, probs, contaminated = _live_states(n, states, probs)
        marginals[k] = _sequential_sum(np.where(contaminated, probs[:, np.newaxis], 0.0))
        if k == horizon:
            break
        clear = dyn.stay_clear(contaminated)
        pc_next = 1.0 - clear
        is_clear = ~contaminated
        den[k] = _sequential_sum(np.where(is_clear, probs[:, np.newaxis], 0.0))
        for j in range(N_ACTIONS):
            hits = probs[:, np.newaxis] * pc_next[:, dest[:, j]]
            num[k, :, j] = _sequential_sum(np.where(valid_slots[:, j] & is_clear, hits, 0.0))
        states, probs = _exact_step(states, probs, contaminated, clear)
        total = sum(probs.tolist())
        if abs(total - 1.0) > FIELD_SUM_TOL:
            raise NumericViolationError(f"exact propagation mass {total!r} at step {k}")
    prob, flagged = _transition_field(dyn.gridmap, den, num)
    return np.clip(prob, 0.0, 1.0), flagged, marginals


def _transition_field(gridmap: GridMap, den: np.ndarray, num: np.ndarray):
    """(prob, flagged) = num / den: den[k, x] weighs x clear at step k, and
    num[k, x, slot] the part of it with the slot's cell contaminated at k + 1.
    A row where den is 0 is flagged and set to 1; blocked slots are 0."""
    flagged = den == 0
    prob = num / np.where(flagged, 1, den)[:, :, np.newaxis]
    prob[flagged] = 1.0
    prob[:, gridmap.neighbor_slots[:, :N_ACTIONS] < 0] = 0.0
    return prob, flagged


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
        # through a handle, so a path without the .npz suffix is written as
        # given. Uncompressed: on paper17x13 the file is about 3.7 times as
        # large (720 KB), and a save about ten times and a load about three
        # times as fast.
        with open(path, "wb") as fh:
            np.savez(
                fh,
                format=FIELD_CACHE_FORMAT,
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
        if int(data["format"]) != FIELD_CACHE_FORMAT:
            raise bad(f"has format {int(data['format'])}, not {FIELD_CACHE_FORMAT}")
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


def _block_size(n_free: int) -> int:
    """Samples per block: a fixed function of the grid, never of the horizon,
    so the blocks and their streams are the same for any run, and a field's
    first k steps are the same bits at every longer horizon. About
    _BLOCK_CELLS (sample, cell) pairs, at most 2,048 samples."""
    return max(1, min(2048, _BLOCK_CELLS // max(1, n_free)))


def _sample_block(
    dyn: _SpreadDynamics,
    horizon: int,
    stream: np.random.SeedSequence,
    m: int,
) -> np.ndarray:
    """Simulate m trajectories of horizon steps on the RNG stream
    PCG64(stream) and return the step at which each (sample, cell) ignited:
    an (m, n_free + 1) int32 array, -1 from the start and horizon for never,
    whose last column stands for missing neighbours and never ignites.

    Each burning neighbour y of a clear cell x tries to ignite it at every
    step, independently, with 1 - w(y) (dyn.edge_p): the product of those
    w over x's burning neighbours is lut[x, code]. So x ignites at the first
    passage min over burning y of fired[y] + D, D ~ Geometric(1 - w(y)) on
    1, 2, .... The walk runs the steps k = -1 .. horizon - 2 with a bucket
    of arrivals per step. At step k the cells that ignited then, the initial
    cells at k = -1, are taken in increasing (sample, cell) order, and each
    draws one delay per out-edge (dyn.edge_to) whose target is still clear,
    in slot order; an arrival k + D below the horizon joins bucket k + D.
    Step k + 1 drops the cells of its bucket that already burn and ignites
    the rest.

    A step's out-edges are one flat array, (cell, slot) in that order, whose
    targets are the cell's index plus dyn.edge_step; the clear ones are
    picked by flat index. Their delays come from one standard_exponential
    call: D = max(1, ceil(E / dyn.edge_rate)), which is Geometric(p) for
    every p, and 1 at p = 1, whose rate is inf. For p < 1/3, as on both
    shipped maps, it is numpy's own geometric(p) on the same stream. Only
    the arrivals kept, E / rate <= horizon - k - 1, are rounded up. The
    floor of 1 keeps an E of exactly 0 from filing an arrival into a bucket
    already read.
    """
    n = dyn.gridmap.n_free
    width = n + 1  # per-sample stride: column n stands for missing neighbours
    rng = np.random.Generator(np.random.PCG64(stream))
    fired = np.full(m * width, horizon, dtype=np.int32)
    # the pad column reads as burning during the walk, so no edge enters it
    fired[n::width] = -1
    cur = (np.arange(m)[:, np.newaxis] * width + np.flatnonzero(dyn.initial)).ravel()
    fired[cur] = -1
    buckets = [[] for _ in range(horizon)]
    # a bucket's steps as sort keys: a radix sort up to 2^16 steps
    step_type = np.min_scalar_type(horizon)
    for k in range(-1, horizon):
        if k >= 0:
            if not buckets[k]:
                continue
            # np.sort and a neighbour test, not np.unique, which imports numpy.ma
            here = np.concatenate(buckets[k])
            cur = np.sort(here[fired[here] == horizon])
            cur = cur[np.diff(cur, prepend=-1) > 0]
            fired[cur] = k
            if k == horizon - 1:
                break
        y = cur % width
        to = (cur[:, np.newaxis] + dyn.edge_step[y]).ravel()
        clear = np.flatnonzero(fired[to] == horizon)
        # ceil(z) < horizon - k exactly when z <= horizon - k - 1
        delay = rng.standard_exponential(len(clear))
        delay /= dyn.edge_rate[y].ravel()[clear]
        early = np.flatnonzero(delay <= horizon - k - 1)
        if not early.size:
            continue
        delay = np.maximum(np.ceil(delay[early]), 1.0).astype(step_type)
        order = np.argsort(delay, kind="stable")
        delay, to = delay[order], to[clear[early[order]]]
        ends = np.append(np.flatnonzero(delay[1:] != delay[:-1]) + 1, len(delay))
        lo = 0
        for hi, d in zip(ends.tolist(), delay[ends - 1].tolist()):
            buckets[k + d].append(to[lo:hi])
            lo = hi
    fired[n::width] = horizon
    return fired.reshape(m, width)


def _chunk_counts(dyn: _SpreadDynamics, fired: np.ndarray, horizon: int):
    """(den, num, final) of a chunk from the (samples, n_free + 1) steps at
    which each cell ignited (-1 from the start, horizon for never)."""
    m, n = fired.shape[0], fired.shape[1] - 1
    width = n + 1
    flat = fired.reshape(-1)
    # one scan in row-major order; the pad column holds horizon, so it is skipped
    at = np.flatnonzero(flat < horizon)
    when = flat[at].astype(np.intp)
    cell = at % width
    size = (horizon + 1) * n
    # hist[t + 1, x] = samples in which x ignited at step t
    hist = np.bincount((when + 1) * n + cell, minlength=size).reshape(horizon + 1, n)
    den = m - np.cumsum(hist, axis=0)[:-1]
    num = np.empty((horizon, n, N_ACTIONS), dtype=np.int64)
    num[:, :, 0] = hist[1:]
    # Slot j of x counts the steps k with x clear at k and its slot-j
    # neighbour y contaminated at k + 1: max(when_y, 0) <= k <= min(when_x, H - 1).
    # Each (sample, y) opens that run of steps for the cell whose slot j is
    # y, one slot at a time, so the working arrays stay one per ignition.
    # No pair is dropped: a missing neighbour (x = n) counts in the pad
    # column of a width n + 1 row, which the sums leave out, and an empty run
    # (x burning before y's step, as when both are initial) closes at the
    # step it opens, at end = max(min(when_x, H - 1), first - 1) + 1.
    # first and row take the buffers of when and at, which are not read
    # again, to keep the block's peak memory down
    first = np.maximum(when, 0, out=when)
    opens = first * width
    row = np.subtract(at, cell, out=at)
    for j in range(1, N_ACTIONS):
        x = dyn.rev[cell, j - 1]
        end = np.minimum(flat[row + x], horizon - 1, dtype=np.intp)
        end += 1
        np.maximum(end, first, out=end)
        end *= width
        end += x
        runs = np.bincount(opens + x, minlength=(horizon + 1) * width)
        runs -= np.bincount(end, minlength=runs.size)
        num[:, :, j] = np.cumsum(runs.reshape(horizon + 1, width)[:horizon, :n], axis=0)
    return den, num, hist.sum(axis=0)


def _run_chunks(dyn, horizon, samples, seed):
    """Integer (den, num, final) of samples [0, samples), added up block by
    block in block order."""
    n = dyn.gridmap.n_free
    size = _block_size(n)
    totals = (
        np.zeros((horizon, n), dtype=np.int64),
        np.zeros((horizon, n, N_ACTIONS), dtype=np.int64),
        np.zeros(n, dtype=np.int64),
    )
    for b in range(-(-samples // size)):
        fired = _sample_block(dyn, horizon, np.random.SeedSequence((seed, b)),
                              min(size, samples - b * size))
        for total, part in zip(totals, _chunk_counts(dyn, fired, horizon)):
            total += part
    return totals


def estimate_contamination_field(
    gridmap: GridMap,
    model: HazardModel,
    horizon: int,
    samples: int,
    seed: int,
) -> ContaminationField:
    """Monte-Carlo estimate of the contamination transition field.

    Counts are integers summed in a fixed block order before any division, so
    the result is the same bits on every run with the same samples and seed.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if samples < 1:
        raise ValidationError(f"sample count must be >= 1, got {samples}")
    dyn = _dynamics(gridmap, model)
    den, num, final = _run_chunks(dyn, horizon, samples, seed)
    prob, flagged = _transition_field(gridmap, den, num)
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
    n = gridmap.n_free
    if n > cell_cap:
        raise CapExceededError(f"exact field needs {n} free cells > cap {cell_cap}")
    if n > EXACT_MASK_BITS:
        raise CapExceededError(
            f"exact field needs {n} free cells, but states are {EXACT_MASK_BITS}-bit masks"
        )
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
