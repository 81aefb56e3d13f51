import math
from pathlib import Path

import numpy as np
import pytest

from hazardplan import hazard
from hazardplan.errors import CapExceededError, ValidationError
from hazardplan.grid import Cell, GridMap, MoveAction, N_ACTIONS
from hazardplan.hazard import (
    EXACT_MASK_BITS,
    ContaminationField,
    HazardModel,
    HazardSource,
    _dynamics,
    _run_chunks,
    _sample_block,
    estimate_contamination_field,
    exact_contamination_field,
)
from hazardplan.scenario import load_scenario

import oracles
from oracles import hazard_step_exact
from conftest import random_gridmap, random_hazard

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_clear_prob_product_form():
    # two orthogonal and one diagonal burning neighbor, speed 0.2 everywhere
    gm = GridMap(3, 3, [], Cell(2, 2))
    burning = [Cell(1, 2), Cell(2, 1), Cell(0, 0)]
    model = HazardModel.uniform(burning, 0.2)
    contaminated = np.zeros((1, gm.n_free), dtype=bool)
    contaminated[0, [gm.index(c) for c in burning]] = True
    got = _dynamics(gm, model).stay_clear(contaminated)[0]
    want = (1 - 0.2) ** 2 * (1 - 0.2 / math.sqrt(2))
    assert got[gm.index(Cell(1, 1))] == pytest.approx(want, abs=1e-15)
    assert got[gm.index(Cell(1, 2))] == 0.0


def test_strip_field_entries_half_speed():
    gm = GridMap(3, 1, [], Cell(2, 0))
    model = HazardModel.uniform([Cell(0, 0)], 0.5)
    fld = exact_contamination_field(gm, model, 2)
    right = gm.index(Cell(2, 0))
    mid = gm.index(Cell(1, 0))
    assert fld.prob[0, right, MoveAction.WEST] == pytest.approx(0.5)
    # right can only ignite at step 1 if the middle caught at step 0
    assert fld.prob[1, right, MoveAction.STAY] == pytest.approx(0.25)
    assert fld.prob[0, mid, MoveAction.WEST] == 1.0
    assert not fld.flagged[1, mid]


def test_strip_field_entries_full_speed():
    gm = GridMap(3, 1, [], Cell(2, 0))
    model = HazardModel.uniform([Cell(0, 0)], 1.0)
    fld = exact_contamination_field(gm, model, 2)
    right = gm.index(Cell(2, 0))
    mid = gm.index(Cell(1, 0))
    assert fld.prob[1, right, MoveAction.STAY] == 1.0
    # the middle is surely burning at step 1, so its row flags and pins to 1
    assert fld.flagged[1, mid]
    assert fld.prob[1, mid].tolist() == [1.0, 0.0, 1.0, 0.0, 1.0]


def test_zero_speed_field_is_indicator():
    gm = GridMap(3, 3, [Cell(1, 1)], Cell(2, 2))
    model = HazardModel.uniform([Cell(0, 0)], 0.0)
    fld = exact_contamination_field(gm, model, 4)
    src = gm.index(Cell(0, 0))
    for k in range(4):
        assert bool(fld.flagged[k, src])
        for i, cell in enumerate(gm.cells):
            if i == src:
                continue
            assert not fld.flagged[k, i]
            for j in range(5):
                dc, dr = MoveAction(j).displacement
                dest = Cell(cell.col + dc, cell.row + dr)
                want = 0.0
                if gm.is_free(dest):
                    want = 1.0 if dest == Cell(0, 0) else 0.0
                assert fld.prob[k, i, j] == want


def test_theta_field_nearest_source_tie_break():
    gm = GridMap(5, 1, [], Cell(4, 0))
    sources = (
        HazardSource(cells=frozenset([Cell(0, 0)]), theta=0.4, label="slow"),
        HazardSource(cells=frozenset([Cell(4, 0)]), theta=0.8, label="fast"),
    )
    model = HazardModel(sources=sources)
    dyn = _dynamics(gm, model)
    want = oracles.theta_by_nearest_source(gm, sources)
    for i, cell in enumerate(gm.cells):
        assert dyn.theta[i] == pytest.approx(want[cell])
    # the middle cell is equidistant; the earlier source wins
    assert dyn.theta[gm.index(Cell(2, 0))] == pytest.approx(0.4)


def test_theta_field_random_sweep_matches_oracle():
    rng = np.random.default_rng(101)
    for _ in range(25):
        gm = random_gridmap(rng, max_cells=12, max_side=4)
        model = random_hazard(rng, gm, max_sources=3)
        dyn = _dynamics(gm, model)
        want = oracles.theta_by_nearest_source(gm, model.sources)
        for i, cell in enumerate(gm.cells):
            assert dyn.theta[i] == pytest.approx(want[cell], abs=1e-15)


def test_exact_field_matches_oracle_random_sweep():
    # the field entries, the flags and the marginals of every step
    rng = np.random.default_rng(202)
    for _ in range(20):
        gm = random_gridmap(rng, max_cells=9)
        model = random_hazard(rng, gm)
        horizon = int(rng.integers(1, 4))
        fld = exact_contamination_field(gm, model, horizon)
        prob, flagged, marginals = oracles._exact_pass(gm, model.sources, horizon)
        assert np.array_equal(flagged, fld.flagged)
        assert np.abs(prob - fld.prob).max() < 1e-12
        assert np.abs(marginals - fld.marginals).max() < 1e-12


def test_marginals_monotone_in_time():
    gm = GridMap(4, 3, [Cell(2, 1)], Cell(3, 2))
    model = HazardModel.uniform([Cell(0, 0)], 0.35)
    marginals = exact_contamination_field(gm, model, 5).marginals
    prev = np.zeros(gm.n_free)
    for k in range(1, 6):
        cur = marginals[k]
        assert np.all(cur >= prev - 1e-12)
        prev = cur


def test_hazard_step_exact_matches_oracle_and_conserves_mass():
    rng = np.random.default_rng(404)
    for _ in range(10):
        gm = random_gridmap(rng, max_cells=8)
        model = random_hazard(rng, gm)
        theta = oracles.theta_by_nearest_source(gm, model.sources)
        dist = {frozenset(model.initial_cells): 1.0}
        # from the initial set, then from the mixture that step produced
        for _ in range(2):
            got = hazard_step_exact(gm, model, dist)
            want = {}
            for burning, p in dist.items():
                for key, q in oracles.spread_step_distribution(gm, theta, burning).items():
                    want[key] = want.get(key, 0.0) + p * q
            assert abs(sum(got.values()) - 1.0) < 1e-12
            for key in set(got) | set(want):
                assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=1e-12)
            dist = got


def assert_matches_reference(gm, model, horizon):
    fld = exact_contamination_field(gm, model, horizon)
    prob, flagged, marginals = oracles.reference_exact_propagation(gm, model, horizon)
    assert np.array_equal(fld.prob, prob)
    assert np.array_equal(fld.flagged, flagged)
    # every step's row, not just the horizon's
    assert marginals.shape == (horizon + 1, gm.n_free)
    assert np.array_equal(fld.marginals, marginals)


def test_exact_propagation_bit_identical_to_reference_on_small_scenario():
    sc = load_scenario(SCENARIOS / "small.json")
    assert sc.gridmap.n_free == 12
    assert_matches_reference(sc.gridmap, sc.hazard, sc.horizon)


def test_exact_propagation_bit_identical_to_reference_random_sweep():
    rng = np.random.default_rng(505)
    for _ in range(50):
        gm = random_gridmap(rng, max_cells=12, max_side=5)
        model = random_hazard(rng, gm, max_sources=3)
        assert_matches_reference(gm, model, int(rng.integers(1, 10)))


def test_hazard_step_exact_bit_identical_to_reference_over_steps():
    rng = np.random.default_rng(606)
    for _ in range(15):
        gm = random_gridmap(rng, max_cells=10, max_side=4)
        model = random_hazard(rng, gm, max_sources=3)
        dist = {frozenset(model.initial_cells): 1.0}
        for _ in range(3):
            got = hazard_step_exact(gm, model, dist)
            want = oracles.reference_step_distribution(gm, model, dist)
            # same states, same order of first appearance, same bits
            assert list(got.items()) == list(want.items())
            dist = got


@pytest.mark.parametrize("step_rows", [1, 4])
def test_exact_step_merges_blocks_bit_identically(monkeypatch, step_rows):
    # small blocks make the running merge cross many of them in every step
    monkeypatch.setattr(hazard, "_STEP_ROWS", step_rows)
    rng = np.random.default_rng(707)
    for _ in range(10):
        gm = random_gridmap(rng, max_cells=10, max_side=4)
        model = random_hazard(rng, gm, max_sources=3)
        dist = {frozenset(model.initial_cells): 1.0}
        for _ in range(3):
            got = hazard_step_exact(gm, model, dist)
            want = oracles.reference_step_distribution(gm, model, dist)
            # same states, same order of first appearance, same bits
            assert list(got.items()) == list(want.items())
            dist = got


def test_exact_field_does_not_depend_on_the_block_size(monkeypatch):
    sc = load_scenario(SCENARIOS / "small.json")
    want = exact_contamination_field(sc.gridmap, sc.hazard, sc.horizon)
    monkeypatch.setattr(hazard, "_STEP_ROWS", 64)
    got = exact_contamination_field(sc.gridmap, sc.hazard, sc.horizon)
    for key in ("prob", "flagged", "marginals"):
        assert np.array_equal(getattr(got, key), getattr(want, key))


def test_exact_propagation_refuses_grids_beyond_mask_width():
    # the size check fires before any state is built, whatever the cap
    gm = GridMap(9, 7, [], Cell(8, 6))
    assert gm.n_free > EXACT_MASK_BITS
    model = HazardModel.uniform([Cell(0, 0)], 0.5)
    with pytest.raises(CapExceededError):
        exact_contamination_field(gm, model, 2, cell_cap=100)


def test_estimated_field_close_to_exact():
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel.uniform([Cell(0, 0)], 0.25)
    exact = exact_contamination_field(gm, model, 3)
    est = estimate_contamination_field(gm, model, 3, samples=60_000, seed=99)
    assert np.array_equal(est.flagged, exact.flagged)
    assert np.abs(est.prob - exact.prob).max() < 0.02
    assert np.abs(est.marginals - exact.marginals).max() < 0.02


def test_estimated_field_thread_invariance():
    gm = GridMap(4, 3, [], Cell(3, 2))
    model = HazardModel.uniform([Cell(0, 0), Cell(3, 0)], 0.4)
    a = estimate_contamination_field(gm, model, 4, samples=3000, seed=11, threads=1)
    b = estimate_contamination_field(gm, model, 4, samples=3000, seed=11, threads=4)
    assert np.array_equal(a.prob, b.prob)
    assert np.array_equal(a.flagged, b.flagged)
    assert np.array_equal(a.marginals, b.marginals)
    c = estimate_contamination_field(gm, model, 4, samples=3000, seed=12, threads=1)
    assert not np.array_equal(a.prob, c.prob)


def spread_setup(rng, case):
    """A grid of 1-5 by 1-5 cells and a hazard on it. Cases 0-4 are a single
    free cell, no sources, speed 0, speed 1 and heavy obstacles; later cases
    draw the obstacle share, 0-3 sources and speeds among 0, 1 and (0, 1)."""
    while True:
        width, height = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        cells = [Cell(c, r) for c in range(width) for r in range(height)]
        share = {0: 1.0, 4: 0.7}.get(case, rng.choice([0.0, 0.2, 0.5, 0.8]))
        n_obs = min(len(cells) - 1, int(share * len(cells)))
        order = [cells[i] for i in rng.permutation(len(cells))]
        free = order[n_obs:]
        if case in (3, 4) and len(free) < 3:
            continue
        gm = GridMap(width, height, order[:n_obs], free[0])
        n_sources = 0 if case == 1 else int(rng.integers(0, min(3, gm.n_free) + 1))
        if case in (2, 3, 4):
            n_sources = max(1, n_sources)
        speeds = [{2: 0.0, 3: 1.0}.get(case, rng.choice([0.0, 1.0, rng.uniform()]))
                  for _ in range(n_sources)]
        picks = rng.permutation(gm.n_free)[:n_sources]
        model = HazardModel(sources=tuple(
            HazardSource(cells=frozenset([gm.cells[int(i)]]), theta=float(theta))
            for i, theta in zip(picks, speeds)
        ))
        return gm, model


def assert_counts_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == np.int64
        assert np.array_equal(a, b)


def reference_blocks(dyn, horizon, samples, seed, size):
    """The counts of samples [0, samples) added up block by block, each
    block from the scalar reference of its stream."""
    parts = [oracles.reference_sample_block(dyn, horizon, seed, b, min(size, samples - b * size))
             for b in range(-(-samples // size))]
    return [sum(p[i] for p in parts) for i in range(3)]


def test_sampler_bit_identical_to_reference_random_sweep(monkeypatch):
    # blocks of 128 samples, so 300 samples end in a short third block
    monkeypatch.setattr(hazard, "_block_size", lambda n_free: 128)
    rng = np.random.default_rng(808)
    sure = never = inverted = searched = 0
    for case in range(50):
        gm, model = spread_setup(rng, case)
        dyn = _dynamics(gm, model)
        edges = dyn.rev < gm.n_free
        sure += int(np.sum(dyn.edge_p[edges] == 1.0))
        never += int(np.sum(dyn.edge_p[edges] == 0.0))
        drawn = bool(np.any(dyn.edge_to < gm.n_free))
        inverted += drawn and dyn.invert
        searched += drawn and not dyn.invert
        horizon, seed = int(rng.integers(1, 9)), int(rng.integers(0, 1000))
        assert np.array_equal(_sample_block(dyn, horizon, np.random.SeedSequence((seed, 1)), 45),
                              oracles.reference_fired(dyn, horizon, seed, 1, 45))
        for threads in (1, 2):
            assert_counts_equal(_run_chunks(dyn, horizon, 300, seed, threads),
                                reference_blocks(dyn, horizon, 300, seed, 128))
    # speeds 1 and 0 give edges that ignite at every step and at none
    assert sure and never
    # grids whose every edge has p < 1/3 draw by numpy's inversion, the
    # others by rng.geometric
    assert inverted and searched


def test_geometric_is_numpys_inversion_below_one_third():
    """The premise of the walk's inversion branch: for p < 1/3,
    Generator.geometric(p) is ceil(E / -log1p(-p)) on the same stream, E
    its standard exponential and log1p math.log1p's, which are the rates
    _SpreadDynamics keeps (np.log1p differs in the last bit for about 5% of
    p). The rates are checked on paper17x13 and on a map whose every cell
    is a source of its own speed, and the draws at paper17x13's edge
    probabilities and at 10^5 random p in (0, 1/3), so a numpy that draws
    otherwise fails here by name."""
    rng = np.random.default_rng(31)
    sc = load_scenario(SCENARIOS / "paper17x13.json")
    gm = GridMap(7, 7, [], Cell(6, 6))
    mixed = HazardModel(sources=tuple(
        HazardSource(cells=frozenset([cell]), theta=float(theta))
        for cell, theta in zip(gm.cells, rng.uniform(0.01, 1.0 / 3.0, gm.n_free))))
    edge_ps = []
    for grid, model in ((sc.gridmap, sc.hazard), (gm, mixed)):
        dyn = _dynamics(grid, model)
        live = dyn.edge_to < grid.n_free
        edge_ps.append(dyn.edge_p[live])
        assert dyn.invert and 0.0 < edge_ps[-1].min() and edge_ps[-1].max() < 1.0 / 3.0
        assert np.array_equal(dyn.edge_rate[live],
                              [-math.log1p(-p) for p in edge_ps[-1].tolist()])
    paper = edge_ps[0]
    uniform = rng.uniform(0.0, 1.0 / 3.0, 10**5)
    for ps in (np.tile(paper, -(-10**5 // paper.size)), uniform[uniform > 0.0]):
        geometric = np.random.Generator(np.random.PCG64(7)).geometric(ps)
        z = np.random.Generator(np.random.PCG64(7)).standard_exponential(ps.size)
        z /= [-math.log1p(-p) for p in ps.tolist()]
        assert np.array_equal(geometric, np.ceil(z).astype(np.int64))


def test_chunk_counts_equal_the_dense_loop_on_hand_built_steps():
    """The block counts equal the dense count loop on ignition steps drawn
    at random, -1..horizon per (sample, cell) with the pad column at horizon,
    so they hold orders a walk rarely makes. Over the sweep, a cell's move
    neighbour ignites before it, at the same step and after it, both are
    initial, and some cells sit on the grid's edge with missing slots."""
    rng = np.random.default_rng(29)
    seen = dict.fromkeys(("before", "same", "after", "both initial", "missing slot"), 0)
    for case in range(40):
        gm, model = spread_setup(rng, case)
        dyn = _dynamics(gm, model)
        n = gm.n_free
        horizon = int(rng.integers(1, 8))
        fired = rng.integers(-1, horizon + 1, size=(48, n + 1), dtype=np.int32)
        fired[:, n] = horizon
        steps = np.arange(horizon + 1)[np.newaxis, :, np.newaxis]
        assert_counts_equal(hazard._chunk_counts(dyn, fired, horizon),
                            oracles._trajectory_counts(dyn, fired[:, np.newaxis, :n] < steps))
        nbr = gm.neighbor_slots[:, 1:N_ACTIONS]
        seen["missing slot"] += int(np.sum(nbr < 0))
        x, j = np.nonzero(nbr >= 0)
        fx, fy = fired[:, x], fired[:, nbr[x, j]]
        lit = fy < horizon
        seen["before"] += int(np.sum(lit & (fy < fx)))
        seen["same"] += int(np.sum(lit & (fy == fx) & (fy >= 0)))
        seen["after"] += int(np.sum(lit & (fy > fx)))
        seen["both initial"] += int(np.sum((fy < 0) & (fx < 0)))
    assert all(seen.values()), seen


def z_scores(est: np.ndarray, exact: np.ndarray, counts: np.ndarray):
    """Whether est equals exact wherever exact is 0 or 1, and |est - exact|
    over the binomial sigma of counts draws elsewhere. The sigma is floored
    at that of one count, so an entry with a tiny exact value may still be
    off by a few counts."""
    sure = (exact < 1e-12) | (exact > 1.0 - 1e-12)
    sigma = np.sqrt(np.maximum(exact * (1.0 - exact), 1.0 / counts) / counts)
    return (np.array_equal(est[sure], np.round(exact[sure])),
            np.abs(est - exact)[~sure] / sigma[~sure])


def test_sampler_law_matches_exact_propagation_random_sweep():
    """The first-passage walk samples the spread law of exact propagation.
    On 24 seeded random grids of at most 10 free cells, a third with every
    source at speed 1, a third at speed 0 and a third with 2-3 sources of
    mixed speeds, 20,000 samples put every marginal and every field entry
    within z_bound (5) binomial sigmas of _propagate_exact (field entries
    against the samples clear at that step). Entries the exact pass makes 0
    or 1 must match exactly, and every exact flag must be set. Some 600
    entries are tested, so a bound of 5 sigma leaves a family-wise false
    alarm rate far under 1%."""
    z_bound, samples = 5.0, 20_000
    rng = np.random.default_rng(2025)
    worst = 0.0
    for case in range(24):
        gm = random_gridmap(rng, max_cells=10, max_side=4)
        kind = case % 3
        k = min(int(rng.integers(2 if kind == 2 else 1, 4)), gm.n_free - 1)
        speeds = {0: [1.0] * k, 1: [0.0] * k}.get(kind) or rng.uniform(0.05, 0.95, k).tolist()
        picks = rng.choice(gm.n_free, size=k, replace=False)
        model = HazardModel(sources=tuple(
            HazardSource(cells=frozenset([gm.cells[int(i)]]), theta=float(theta))
            for i, theta in zip(picks, speeds)
        ))
        horizon, seed = int(rng.integers(1, 7)), int(rng.integers(0, 1000))
        exact = exact_contamination_field(gm, model, horizon)
        est = estimate_contamination_field(gm, model, horizon, samples, seed)
        same, z = z_scores(est.marginals, exact.marginals, samples)
        assert same
        worst = max(worst, z.max(initial=0.0))
        assert np.all(est.flagged[exact.flagged])
        clear = np.rint(samples * (1.0 - est.marginals[:horizon]))
        use = (clear > 0) & ~exact.flagged
        counts = np.broadcast_to(clear[use][:, np.newaxis], est.prob[use].shape)
        same, z = z_scores(est.prob[use], exact.prob[use], counts)
        assert same
        worst = max(worst, z.max(initial=0.0))
    assert worst <= z_bound


@pytest.fixture(scope="module")
def paper_reference():
    sc = load_scenario(SCENARIOS / "paper17x13.json")
    dyn = _dynamics(sc.gridmap, sc.hazard)
    size = hazard._block_size(sc.gridmap.n_free)
    samples = 2 * size + 90  # several blocks, the last one short
    return dyn, sc.horizon, samples, reference_blocks(dyn, sc.horizon, samples, 0, size)


@pytest.mark.parametrize("threads", [1, 2])
def test_sampler_bit_identical_to_reference_on_paper_scenario(paper_reference, threads):
    dyn, horizon, samples, want = paper_reference
    # several blocks, so two threads run them side by side
    assert_counts_equal(_run_chunks(dyn, horizon, samples, 0, threads), want)


def test_stay_clear_table_matches_reference_kernel():
    rng = np.random.default_rng(909)
    paper = load_scenario(SCENARIOS / "paper17x13.json")
    setups = [(paper.gridmap, paper.hazard)] + [spread_setup(rng, case) for case in range(30)]
    for gm, model in setups:
        dyn = _dynamics(gm, model)
        for density in (0.0, 0.1, 0.5, 1.0):
            contaminated = rng.random((40, gm.n_free)) < density
            assert np.array_equal(dyn.stay_clear(contaminated),
                                  oracles._clear_probs(dyn, contaminated))


def test_heatmap_thread_invariance_and_range():
    gm = GridMap(3, 3, [Cell(1, 1)], Cell(2, 2))
    model = HazardModel.uniform([Cell(0, 0)], 0.5)
    a = estimate_contamination_field(gm, model, 4, samples=2000, seed=3, threads=1).marginals[4]
    b = estimate_contamination_field(gm, model, 4, samples=2000, seed=3, threads=3).marginals[4]
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert a[gm.index(Cell(0, 0))] == 1.0


def test_mc_horizon_marginals_equal_heatmap():
    # the horizon row equals the heat at that step of a separate, longer run
    gm = GridMap(4, 3, [Cell(2, 1)], Cell(3, 2))
    model = HazardModel.uniform([Cell(0, 0)], 0.4)
    fld = estimate_contamination_field(gm, model, 5, samples=1500, seed=21, threads=2)
    heat = estimate_contamination_field(gm, model, 8, samples=1500, seed=21).marginals[5]
    assert np.array_equal(fld.marginals[5], heat)


def test_mc_marginal_rows_do_not_depend_on_horizon_or_threads():
    rng = np.random.default_rng(707)
    for _ in range(4):
        gm = random_gridmap(rng, max_cells=10, max_side=4)
        model = random_hazard(rng, gm, max_sources=2)
        long = estimate_contamination_field(gm, model, 6, samples=700, seed=9, threads=1)
        assert long.marginals.shape == (7, gm.n_free)
        assert np.array_equal(long.marginals[0], _dynamics(gm, model).initial.astype(float))
        for k in range(1, 6):
            for threads in (1, 3):
                short = estimate_contamination_field(gm, model, k, samples=700, seed=9,
                                                     threads=threads)
                assert np.array_equal(long.marginals[: k + 1], short.marginals)


def test_field_save_load_roundtrip(tmp_path):
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel.uniform([Cell(0, 0)], 0.3)
    fld = estimate_contamination_field(gm, model, 3, samples=500, seed=8)
    fld.scenario_hash = "deadbeef"
    path = tmp_path / "field.npz"
    fld.save(path)
    back = ContaminationField.load(path)
    assert back.kind == fld.kind
    assert back.samples == fld.samples
    assert back.seed == fld.seed
    assert back.scenario_hash == "deadbeef"
    assert np.array_equal(back.prob, fld.prob)
    assert np.array_equal(back.flagged, fld.flagged)
    assert fld.marginals.shape == (4, gm.n_free)
    assert np.array_equal(back.marginals, fld.marginals)


def write_cache(path, **edits):
    """A valid Monte-Carlo field cache as save writes it, with entries
    replaced by edits; an edit of None drops the entry."""
    gm = GridMap(3, 2, [], Cell(2, 1))
    fld = estimate_contamination_field(gm, HazardModel.uniform([Cell(0, 0)], 0.3), 3,
                                       samples=200, seed=8)
    fld.scenario_hash = "deadbeef"
    fld.save(path)
    with np.load(path) as npz:
        data = {key: npz[key] for key in npz.files}
    for key, value in edits.items():
        if value is None:
            del data[key]
        else:
            data[key] = np.asarray(value)
    np.savez_compressed(path, **data)
    return str(path)


def refused(path, *words):
    with pytest.raises(ValidationError) as exc:
        ContaminationField.load(path)
    message = str(exc.value)
    assert str(path) in message
    for word in words:
        assert word in message
    return message


def test_cache_load_refuses_a_file_that_is_not_an_npz(tmp_path):
    garbage = tmp_path / "garbage.npz"
    garbage.write_text("garbage")
    refused(garbage, "not a readable npz")
    array = tmp_path / "array.npz"
    with open(array, "wb") as fh:
        np.save(fh, np.zeros(3))
    refused(array, "not a readable npz")
    refused(tmp_path / "absent.npz", "not a readable npz")


def test_cache_load_refuses_a_missing_entry(tmp_path):
    path = tmp_path / "fc.npz"
    assert ContaminationField.load(write_cache(path)).scenario_hash == "deadbeef"
    for key in ("format", "horizon", "n_free", "prob", "flagged", "marginals", "kind",
                "samples", "seed", "scenario_hash"):
        refused(write_cache(path, **{key: None}), f"lacks {key}",
                "delete the cache and rebuild it")


def test_cache_load_refuses_a_cache_of_another_format(tmp_path):
    """A cache the per-sample sampler wrote has no format entry. Its field
    is not the one this sampler builds for the same samples and seed, so it
    is refused, as is any other format number."""
    path = tmp_path / "fc.npz"
    with np.load(write_cache(path)) as npz:
        assert int(npz["format"]) == hazard.FIELD_CACHE_FORMAT
    refused(write_cache(path, format=None), "lacks format", "delete the cache and rebuild it")
    refused(write_cache(path, format=hazard.FIELD_CACHE_FORMAT - 1),
            f"has format {hazard.FIELD_CACHE_FORMAT - 1}, not {hazard.FIELD_CACHE_FORMAT}",
            "delete the cache and rebuild it")


def test_cache_load_refuses_wrong_shapes_and_dtypes(tmp_path):
    path = tmp_path / "fc.npz"
    n = 6
    for key, value, word in (
        ("prob", np.zeros((3, n, 4)), "prob of shape"),
        ("prob", np.zeros((2, n, 5)), "prob of shape"),
        ("flagged", np.zeros((3, n + 1), dtype=bool), "flagged of shape"),
        ("flagged", np.zeros((3, n)), "flagged of dtype"),
        ("marginals", np.zeros((3, n)), "marginals of shape"),
        ("marginals", np.zeros((4, n), dtype=np.int64), "marginals of dtype"),
        ("horizon", 4, "horizon 4 on 6 cells"),
        ("horizon", [3], "horizon of shape"),
        ("n_free", 5, "horizon 3 on 5 cells"),
        ("kind", 1, "kind of dtype"),
    ):
        refused(write_cache(path, **{key: value}), word, "delete the cache and rebuild it")
    refused(write_cache(path, horizon=0, prob=np.zeros((0, n, 5)),
                        flagged=np.zeros((0, n), dtype=bool), marginals=np.zeros((1, n))),
            "horizon 0")


def test_cache_load_refuses_entries_outside_the_unit_interval(tmp_path):
    path = tmp_path / "fc.npz"
    for key, shape, value in (
        ("prob", (3, 6, 5), 2.0),
        ("prob", (3, 6, 5), -0.5),
        ("prob", (3, 6, 5), np.nan),
        ("marginals", (4, 6), np.inf),
        ("marginals", (4, 6), 1.5),
    ):
        refused(write_cache(path, **{key: np.full(shape, value)}), key, "outside [0, 1]")


def test_cache_load_refuses_unknown_kind_and_unsampled_estimate(tmp_path):
    path = tmp_path / "fc.npz"
    refused(write_cache(path, kind="guess"), "unknown kind 'guess'")
    refused(write_cache(path, samples=0), "0 samples")
    # an exact field records no samples
    assert ContaminationField.load(write_cache(path, kind="exact", samples=0)).kind == "exact"


def test_field_without_marginals_is_not_saved(tmp_path):
    gm = GridMap(3, 2, [], Cell(2, 1))
    fld = exact_contamination_field(gm, HazardModel.uniform([Cell(0, 0)], 0.3), 2)
    fld.marginals = None
    with pytest.raises(ValidationError):
        fld.save(tmp_path / "fc.npz")
    assert not (tmp_path / "fc.npz").exists()


def test_field_without_scenario_hash_is_not_saved(tmp_path):
    gm = GridMap(3, 2, [], Cell(2, 1))
    fld = estimate_contamination_field(gm, HazardModel.uniform([Cell(0, 0)], 0.3), 3,
                                       samples=200, seed=8)
    with pytest.raises(ValidationError, match="without a scenario hash"):
        fld.save(tmp_path / "fc.npz")
    assert not (tmp_path / "fc.npz").exists()


def test_cache_load_refuses_an_empty_scenario_hash(tmp_path):
    refused(write_cache(tmp_path / "fc.npz", scenario_hash=""), "without a scenario hash",
            "delete the cache and rebuild it")


def test_source_validation():
    with pytest.raises(ValidationError):
        HazardSource(cells=frozenset([Cell(0, 0)]), theta=1.2)
    with pytest.raises(ValidationError):
        HazardModel(
            sources=(
                HazardSource(cells=frozenset([Cell(0, 0)]), theta=0.5),
                HazardSource(cells=frozenset([Cell(0, 0)]), theta=0.2),
            )
        )
    gm = GridMap(2, 2, [Cell(1, 1)], Cell(0, 0))
    model = HazardModel.uniform([Cell(1, 1)], 0.5)
    with pytest.raises(ValidationError):
        exact_contamination_field(gm, model, 2)


def test_no_sources_field_is_all_clear():
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel(sources=())
    fld = exact_contamination_field(gm, model, 3)
    assert not fld.flagged.any()
    assert fld.prob.max() == 0.0


def test_exact_field_cap():
    gm = GridMap(5, 4, [], Cell(0, 0))
    model = HazardModel.uniform([Cell(0, 0)], 0.5)
    with pytest.raises(CapExceededError):
        exact_contamination_field(gm, model, 2, cell_cap=12)
