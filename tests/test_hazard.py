import math
from pathlib import Path

import numpy as np
import pytest

from hazardplan.errors import CapExceededError, ValidationError
from hazardplan.grid import Cell, GridMap, MoveAction
from hazardplan.hazard import (
    EXACT_MASK_BITS,
    ContaminationField,
    HazardModel,
    HazardSource,
    _dynamics,
    contamination_heatmap,
    contaminate_prob,
    estimate_contamination_field,
    exact_contamination_field,
    exact_contamination_marginals,
    hazard_step_exact,
    hazard_step_sample,
    remain_clear_prob,
)
from hazardplan.scenario import load_scenario

import oracles
from conftest import random_gridmap, random_hazard

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_clear_prob_product_form():
    # two orthogonal and one diagonal burning neighbor, speed 0.2 everywhere
    gm = GridMap(3, 3, [], Cell(2, 2))
    burning = [Cell(1, 2), Cell(2, 1), Cell(0, 0)]
    model = HazardModel.uniform(burning, 0.2)
    got = remain_clear_prob(gm, model, Cell(1, 1), burning)
    assert got == pytest.approx((1 - 0.2) ** 2 * (1 - 0.2 / math.sqrt(2)), abs=1e-15)
    assert contaminate_prob(gm, model, Cell(1, 1), burning) == pytest.approx(1.0 - got)
    assert contaminate_prob(gm, model, Cell(1, 2), burning) == 1.0
    with pytest.raises(ValidationError):
        remain_clear_prob(gm, model, Cell(1, 2), burning)


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
    rng = np.random.default_rng(202)
    for _ in range(20):
        gm = random_gridmap(rng, max_cells=9)
        model = random_hazard(rng, gm)
        horizon = int(rng.integers(1, 4))
        fld = exact_contamination_field(gm, model, horizon)
        prob, flagged = oracles.exact_field_oracle(gm, model.sources, horizon)
        assert np.array_equal(flagged, fld.flagged)
        assert np.abs(prob - fld.prob).max() < 1e-12


def test_exact_marginals_match_oracle():
    rng = np.random.default_rng(303)
    for _ in range(10):
        gm = random_gridmap(rng, max_cells=8)
        model = random_hazard(rng, gm)
        horizon = int(rng.integers(1, 4))
        got = exact_contamination_marginals(gm, model, horizon)
        want = oracles.contamination_marginals_oracle(gm, model.sources, horizon)
        assert np.abs(got - want).max() < 1e-12


def test_marginals_monotone_in_time():
    gm = GridMap(4, 3, [Cell(2, 1)], Cell(3, 2))
    model = HazardModel.uniform([Cell(0, 0)], 0.35)
    prev = np.zeros(gm.n_free)
    for k in range(1, 6):
        cur = exact_contamination_marginals(gm, model, k)
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
    assert np.array_equal(fld.horizon_marginals, marginals)
    assert np.array_equal(exact_contamination_marginals(gm, model, horizon), marginals)


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


def test_exact_propagation_refuses_grids_beyond_mask_width():
    # the size check fires before any state is built, whatever the cap
    gm = GridMap(9, 7, [], Cell(8, 6))
    assert gm.n_free > EXACT_MASK_BITS
    model = HazardModel.uniform([Cell(0, 0)], 0.5)
    with pytest.raises(CapExceededError):
        exact_contamination_field(gm, model, 2, cell_cap=100)
    with pytest.raises(CapExceededError):
        exact_contamination_marginals(gm, model, 2, cell_cap=100)


def test_hazard_step_exact_validation():
    gm = GridMap(3, 1, [], Cell(2, 0))
    model = HazardModel.uniform([Cell(0, 0)], 0.5)
    with pytest.raises(ValidationError):
        hazard_step_exact(gm, model, {frozenset([Cell(0, 0)]): 0.7})
    with pytest.raises(CapExceededError):
        hazard_step_exact(gm, model, {frozenset([Cell(0, 0)]): 1.0}, cell_cap=2)


def test_hazard_step_sample_frequency():
    # single clear cell beside one burning cell at speed 0.3: ignition should
    # hit near 0.3 over many draws
    gm = GridMap(2, 1, [], Cell(1, 0))
    model = HazardModel.uniform([Cell(0, 0)], 0.3)
    rng = np.random.default_rng(20260815)
    n = 100_000
    hits = 0
    burning = frozenset([Cell(0, 0)])
    for _ in range(n):
        out = hazard_step_sample(gm, model, burning, rng)
        if Cell(1, 0) in out:
            hits += 1
    assert hits / n == pytest.approx(0.3, abs=0.005)


def test_hazard_step_sample_monotone_and_draw_count():
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel.uniform([Cell(0, 0)], 0.6)
    rng = np.random.default_rng(5)
    y = frozenset([Cell(0, 0)])
    for _ in range(50):
        out = hazard_step_sample(gm, model, y, rng)
        assert y <= out
        y = out
    # consumes exactly n_free uniforms per call
    r1 = np.random.default_rng(77)
    r2 = np.random.default_rng(77)
    hazard_step_sample(gm, model, frozenset([Cell(0, 0)]), r1)
    r2.random(gm.n_free)
    assert r1.random() == r2.random()


def test_estimated_field_close_to_exact():
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel.uniform([Cell(0, 0)], 0.25)
    exact = exact_contamination_field(gm, model, 3)
    est = estimate_contamination_field(gm, model, 3, samples=60_000, seed=99)
    assert np.array_equal(est.flagged, exact.flagged)
    assert np.abs(est.prob - exact.prob).max() < 0.02


def test_estimated_field_thread_invariance():
    gm = GridMap(4, 3, [], Cell(3, 2))
    model = HazardModel.uniform([Cell(0, 0), Cell(3, 0)], 0.4)
    a = estimate_contamination_field(gm, model, 4, samples=3000, seed=11, threads=1)
    b = estimate_contamination_field(gm, model, 4, samples=3000, seed=11, threads=4)
    assert np.array_equal(a.prob, b.prob)
    assert np.array_equal(a.flagged, b.flagged)
    c = estimate_contamination_field(gm, model, 4, samples=3000, seed=12, threads=1)
    assert not np.array_equal(a.prob, c.prob)


def test_heatmap_thread_invariance_and_range():
    gm = GridMap(3, 3, [Cell(1, 1)], Cell(2, 2))
    model = HazardModel.uniform([Cell(0, 0)], 0.5)
    a = contamination_heatmap(gm, model, 4, samples=2000, seed=3, threads=1)
    b = contamination_heatmap(gm, model, 4, samples=2000, seed=3, threads=3)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert a[gm.index(Cell(0, 0))] == 1.0


def test_mc_horizon_marginals_equal_heatmap():
    gm = GridMap(4, 3, [Cell(2, 1)], Cell(3, 2))
    model = HazardModel.uniform([Cell(0, 0)], 0.4)
    fld = estimate_contamination_field(gm, model, 5, samples=1500, seed=21, threads=2)
    heat = contamination_heatmap(gm, model, 5, samples=1500, seed=21)
    assert np.array_equal(fld.horizon_marginals, heat)


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
    # the marginals ride along in memory only
    assert fld.horizon_marginals is not None and back.horizon_marginals is None


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
