import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hazardplan.errors import CapExceededError, NumericViolationError, ValidationError
from hazardplan.grid import Cell, GridMap, MotionKernel, MoveAction
from hazardplan.hazard import (
    HazardModel,
    _dynamics,
    estimate_contamination_field,
    exact_contamination_field,
)
from hazardplan import planner
from hazardplan.planner import (
    DP_TABLE_CAP,
    ObjectiveCache,
    PlanQuery,
    _motion_slots,
    _rollout_chunk,
    _slot_tables,
    dp_bounds_bytes,
    dp_policy_bytes,
    dp_solve,
    dp_table_bytes,
    dp_values,
    rollout,
    wilson_interval,
)
from hazardplan.scenario import load_scenario

import oracles
from oracles import (
    HAZARD_STATE,
    MissionState,
    success_probability,
    task_update,
    transition_distribution,
)
from conftest import random_plan_setup, random_tabular_kernel

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def clear_field(gm, horizon):
    return exact_contamination_field(gm, HazardModel(sources=()), horizon)


def make_query(gm, fld, start, targets, horizon, kernel=None):
    return PlanQuery(
        gridmap=gm,
        kernel=kernel or MotionKernel.deterministic(gm),
        field=fld,
        start=start,
        targets=tuple(targets),
        horizon=horizon,
    )


def test_no_hazard_success_matches_walk_length():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(30):
        gm, _, horizon, _, start, targets = random_plan_setup(rng, max_cells=9)
        fld = clear_field(gm, horizon)
        q = make_query(gm, fld, start, targets, horizon)
        res = dp_solve(q)
        steps = oracles.shortest_visiting_walk(gm, start, targets)
        want = 1.0 if steps is not None and steps <= horizon else 0.0
        assert res.success == pytest.approx(want, abs=1e-12)
        checked += 1
    assert checked == 30


def test_dp_matches_trajectory_enumeration_deterministic():
    rng = np.random.default_rng(43)
    for _ in range(30):
        gm, _, horizon, fld, start, targets = random_plan_setup(rng)
        q = make_query(gm, fld, start, targets, horizon)
        res = dp_solve(q)
        assert abs(res.success - oracles.best_open_loop_success(q)) < 1e-10


def test_dp_matches_value_recursion_with_slip():
    rng = np.random.default_rng(44)
    for _ in range(20):
        gm, _, horizon, fld, start, targets = random_plan_setup(rng, max_cells=8)
        kern = random_tabular_kernel(rng, gm)
        q = make_query(gm, fld, start, targets, horizon, kernel=kern)
        res = dp_solve(q)
        assert abs(res.success - oracles.value_recursion_oracle(q)) < 1e-12


def test_values_stay_in_unit_interval():
    rng = np.random.default_rng(45)
    for _ in range(10):
        gm, _, horizon, fld, start, targets = random_plan_setup(rng)
        res = dp_solve(make_query(gm, fld, start, targets, horizon))
        assert 0.0 <= res.success <= 1.0


def paper_sweep_query(n_targets):
    """Robot 0 of paper17x13 on its five targets plus extra ones at seeded
    free cells away from the starts, goal, targets and hazard, as the plan
    sweep adds them, against a 300-sample field."""
    sc = load_scenario(SCENARIOS / "paper17x13.json")
    gm = sc.gridmap
    taken = set(sc.starts) | {gm.goal} | set(sc.targets) | set(sc.hazard.initial_cells)
    extra = random.Random(0).sample([c for c in gm.cells if c not in taken], n_targets - 5)
    fld = estimate_contamination_field(gm, sc.hazard, sc.horizon, samples=300, seed=0)
    return PlanQuery(gridmap=gm, kernel=sc.kernel(), field=fld, start=sc.starts[0],
                     targets=tuple(sc.targets) + tuple(extra), horizon=sc.horizon)


def assert_policy_at_reachable_states(res, policy):
    """res acts as the dense ``policy`` at every state its start reaches."""
    reach = oracles.reachable_states(res.query)
    assert reach.any()
    assert np.array_equal(oracles.dense_policy(res)[reach], policy[reach])


def assert_equals_whole_layer_sweep(query):
    """The value lattice, the success bits and the policy at every state
    the start reaches are == to the sweep over whole (n, 2^t) layers.
    Returns the policy mode's result."""
    res = dp_solve(query)
    values = dp_values(query)
    policy, start_values = oracles.whole_layer_dp_solve(query)
    assert_policy_at_reachable_states(res, policy)
    assert np.array_equal(values.view(np.int64), start_values.view(np.int64))
    assert np.float64(res.success).view(np.int64) == values[res.start_q].view(np.int64)
    return res


@pytest.mark.parametrize("n_targets, slip", [(5, False), (8, False), (5, True)],
                         ids=["5", "8", "5-slip"])
def test_dp_equals_reference_on_paper_sweep(n_targets, slip):
    """The sweep over whole layers, under the scenario's motion and under a
    slippery tabular kernel whose actions sum several terms."""
    query = paper_sweep_query(n_targets)
    if slip:
        kernel = random_tabular_kernel(np.random.default_rng(7), query.gridmap)
        query = replace(query, kernel=kernel)
    assert_equals_whole_layer_sweep(query)


@pytest.mark.parametrize("slip", [False, True], ids=["10", "10-slip"])
def test_dp_equals_whole_layer_sweep_on_paper_sweep(slip):
    """At 10 targets the value lattice spans eight blocks."""
    query = paper_sweep_query(10)
    if slip:
        kernel = random_tabular_kernel(np.random.default_rng(7), query.gridmap)
        query = replace(query, kernel=kernel)
    assert planner._tile_columns(1 << 10, query.gridmap.n_free) == 128
    assert_equals_whole_layer_sweep(query)


@pytest.mark.parametrize("bad", [-0.5, np.nan], ids=["above-1", "nan"])
def test_value_outside_the_unit_interval_raises_over_all_tiles(monkeypatch, bad):
    """A field entry that makes a value pass 1 or NaN raises with the step
    and the min and max over the whole layer, as the whole-layer sweep
    does, with one visited set per block, in either DP mode. At step 2
    every cell is done in time with both targets visited, and not with
    neither, so one block holds the max and another the min."""
    gm = GridMap(3, 2, [], Cell(2, 1))
    fld = clear_field(gm, 6)
    fld.prob[2] = bad
    query = make_query(gm, fld, Cell(0, 0), [Cell(0, 1), Cell(2, 0)], 6)
    monkeypatch.setattr(planner, "_DP_TILE_BYTES", gm.n_free * 8)
    with pytest.raises(NumericViolationError) as want:
        oracles.whole_layer_dp_solve(query)
    for mode in (dp_solve, dp_values):
        with pytest.raises(NumericViolationError, match="at step 2") as got:
            mode(query)
        assert str(got.value) == str(want.value)


def test_dp_sweeps_only_the_columns_the_start_reaches_in_time():
    """At 10 targets over 75 steps, dp_solve sweeps 3,342 of the 76,800
    (step, visited set) columns: those whose visited set can still finish
    in the steps left and that the start can reach in the steps taken. The
    value lattice, whose every set is a start state, sweeps the 40,471
    whose set can still finish. At 5 targets, 677 of 2,400. Each swept
    column keeps its own policy row, 1 to columns_swept, and every other
    column reads the STAY row 0."""
    query = paper_sweep_query(10)
    assert query.horizon == 75
    assert planner._tile_columns(1 << 10, query.gridmap.n_free) == 128
    for targets, swept in ((10, 3342), (5, 677)):
        sub = replace(query, targets=query.targets[:targets])
        res = dp_solve(sub)
        dist = planner._distance_table(sub)
        steps = np.arange(sub.horizon)[:, np.newaxis]
        live = ((planner._finish_moves(sub, dist) <= sub.horizon - steps)
                & (planner._reach_moves(sub, dist) <= steps))
        rows = res._row(steps, np.arange(1 << targets))
        assert res.columns_swept == live.sum() == swept
        assert res.policy.shape == (1 + swept, query.gridmap.n_free)
        assert np.array_equal(np.sort(rows[live]), np.arange(1, 1 + swept))
        assert not rows[~live].any()
        if targets == 10:
            finish = planner._finish_moves(sub, dist) <= sub.horizon - steps
            assert swept < finish.sum() == 40471


def short_sweep_query(bad):
    """The 10-target query over 25 steps, with every contamination
    probability of step 3 set to ``bad``. At step 3, 7 of the value
    lattice's 8 blocks, its slots in order of need, need more moves than
    the 22 steps left."""
    query = replace(paper_sweep_query(10), horizon=25)
    need = planner._finish_moves(query, planner._distance_table(query))
    tile_need = np.sort(need)[::128]
    assert (tile_need > 22).sum() == 7
    prob = query.field.prob.copy()
    prob[3] = bad
    return replace(query, field=replace(query.field, prob=prob))


@pytest.mark.parametrize("bad", [np.nan, 1.5], ids=["nan", "above-1"])
def test_a_bad_step_raises_over_every_tile_where_most_would_skip(bad):
    """A NaN or p > 1 at a step where most blocks would be skipped raises
    with the min and max of the whole layer, as the sweep over whole
    layers does, in either DP mode."""
    query = short_sweep_query(bad)
    with pytest.raises(NumericViolationError) as want:
        oracles.whole_layer_dp_solve(query)
    for mode in (dp_solve, dp_values):
        with pytest.raises(NumericViolationError, match="at step 3") as got:
            mode(query)
        assert str(got.value) == str(want.value)


def test_p_just_above_1_stops_the_skipping_for_the_steps_before():
    """p = 1 + 1e-12 at step 3 scales values by a factor just below 0: no
    value passes the tolerance, but states worth +0.0 turn -0.0, and a
    -0.0 spreads to the earlier steps. Sweeping every visited set from that
    step down keeps the value lattice, sign bits included, equal to the sweep
    over whole layers; with the reach bound off, so do the policy mode's
    policy at every state and its success. The start (5, 6) has all four
    neighbours, so some of its start values stay -0.0."""
    query = replace(short_sweep_query(1.0 + 1e-12), start=Cell(5, 6))
    res = dp_solve(query)
    values = dp_values(query)
    policy, start_values = oracles.whole_layer_dp_solve(query)
    assert np.signbit(start_values).any()
    assert np.array_equal(oracles.dense_policy(res), policy)
    assert np.array_equal(values.view(np.int64), start_values.view(np.int64))
    assert np.float64(res.success).view(np.int64) == values[res.start_q].view(np.int64)


@pytest.mark.parametrize("slip", [False, True])
@pytest.mark.parametrize("width, height", [(1, 4), (4, 1)])
def test_corridor_actions_with_no_move_anywhere(width, height, slip):
    """In a corridor two moves are inadmissible at every cell, so their
    actions have no kernel term at all. The goal sits on a target."""
    gm = GridMap(width, height, [], Cell(width - 1, height - 1))
    along = sorted(gm.cells, key=lambda c: c.col + c.row)
    kernel = (random_tabular_kernel(np.random.default_rng(5), gm) if slip
              else MotionKernel.deterministic(gm))
    across = (MoveAction.NORTH, MoveAction.SOUTH) if height == 1 else (
        MoveAction.EAST, MoveAction.WEST)
    assert all(not list(kernel.action_terms(u)) for u in across)
    fld = exact_contamination_field(gm, HazardModel.uniform([along[0]], 0.3), 8)
    # the walk must step next to the fire before it turns for the goal
    query = make_query(gm, fld, along[2], [gm.goal, along[1]], 8, kernel)
    res = assert_equals_whole_layer_sweep(query)
    assert 0.0 < res.success < 1.0


def traced_peak(call, *args):
    """The peak bytes tracemalloc traces while call(*args) runs, and its
    result."""
    tracemalloc.start()
    try:
        out = call(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def refused(mode, query):
    """Run the DP ``mode`` on ``query``, which must raise over the cap."""
    with pytest.raises(CapExceededError, match="cap"):
        mode(query)


def policy_estimate(res):
    """What dp_solve prices for the result's query: its bounds and its
    sweep, over |U| slots and the columns it swept."""
    t = len(res.query.targets)
    n = res.query.gridmap.n_free
    return dp_bounds_bytes(t, n) + dp_policy_bytes(t, n, len(res.last) - 1, res.columns_swept)


@pytest.mark.parametrize("slip", [False, True], ids=["deterministic", "slip"])
def test_dp_table_bytes_bounds_the_traced_peak_at_few_targets(slip):
    """Below 8 targets the kernel arrays, fixed per query, weigh most; the
    estimate still bounds what a solve traces in either mode, with a
    tabular kernel of all 25 terms as with the scenario's deterministic
    one. A policy DP's estimate is that of its bounds and of its sweep."""
    query = paper_sweep_query(8)
    if slip:
        query = replace(query, kernel=random_tabular_kernel(np.random.default_rng(7),
                                                            query.gridmap))
        assert sum(len(list(query.kernel.action_terms(u))) for u in range(5)) == 25
    for t in range(1, 9):
        sub = replace(query, targets=query.targets[:t])
        peak, res = traced_peak(dp_solve, sub)
        assert peak <= policy_estimate(res), t
        peak, _ = traced_peak(dp_values, sub)
        assert peak <= dp_table_bytes(t, query.gridmap.n_free), t


def test_a_policy_dp_of_17_targets_traces_within_its_estimate():
    """At 17 targets a policy DP sweeps 1,146 columns: its traced peak, the
    Held-Karp bounds' mostly, stays within the estimate of its bounds and
    sweep, where dense (n, 2^t) layers alone would take 417 MB. A field
    with a bad last step sweeps every visited set at every step, a policy
    of 2.0 GB: priced past the cap, it raises once its bounds are known,
    before the layers are allocated."""
    query = paper_sweep_query(17)
    n = query.gridmap.n_free
    peak, res = traced_peak(dp_solve, query)
    assert res.columns_swept == 1146
    assert peak <= policy_estimate(res) < 2 * (1 << 17) * n * 8
    prob = query.field.prob.copy()
    prob[query.horizon - 1] = 1.5
    bad = replace(query, field=replace(query.field, prob=prob))
    peak, _ = traced_peak(refused, dp_solve, bad)
    assert peak <= dp_bounds_bytes(17, n) < (1 << 17) * n * 8


@pytest.mark.parametrize("n_targets", [10, 13])
def test_a_value_lattice_traces_within_its_estimate(n_targets):
    """At 10 and 13 targets the lattice's two value layers, 16 bytes per
    (visited set, cell), are most of what it holds; its traced peak stays
    within dp_table_bytes, its bounds and a sweep with every visited set
    in U."""
    query = paper_sweep_query(n_targets)
    n = query.gridmap.n_free
    peak, _ = traced_peak(dp_values, query)
    assert (1 << n_targets) * n * 16 < peak <= dp_table_bytes(n_targets, n)


def test_objective_cache_searches_each_source_cell_once(monkeypatch):
    """An ObjectiveCache's DPs share one memo of grid-distance rows: each
    source cell runs the breadth-first search once, and every lattice and
    plan keeps the bits of a DP that searches its own rows."""
    searched = []
    real = planner._grid_distances

    def recording(gm, sources):
        searched.extend(sources)
        return real(gm, sources)

    monkeypatch.setattr(planner, "_grid_distances", recording)
    sc = load_scenario(SCENARIOS / "paper17x13.json")
    fld = estimate_contamination_field(sc.gridmap, sc.hazard, sc.horizon, samples=300, seed=0)
    cache = ObjectiveCache(sc.gridmap, sc.kernel(), fld, sc.starts, sc.targets, sc.horizon)
    full = (1 << sc.n_tasks) - 1
    masks = (0, 0b00110, full)
    tables = [cache.price_table(r) for r in range(sc.n_robots)]
    plans = {(r, m): cache.solve(r, m) for r in range(sc.n_robots) for m in masks}
    cells = [sc.gridmap.index(c) for c in tuple(sc.targets) + tuple(sc.starts)]
    assert sorted(searched) == sorted(set(cells))
    for r, table in enumerate(tables):
        query = cache.query(r, full)
        start_q = int(query.target_bits()[sc.gridmap.index(sc.starts[r])])
        subsets = np.arange(len(table))
        assert np.array_equal(table, dp_values(query)[(full ^ subsets) | start_q])
    for (r, m), got in plans.items():
        want = dp_solve(cache.query(r, m))
        assert np.array_equal(got.policy, want.policy) and got.success == want.success


def test_dp_over_the_table_cap_raises_before_allocating(monkeypatch):
    """At 20 targets a value lattice passes the cap. A policy DP's bounds
    fit it; under a cap below them, it raises before computing them."""
    query = paper_sweep_query(20)
    n = query.gridmap.n_free
    assert dp_table_bytes(20, n) > DP_TABLE_CAP >= dp_bounds_bytes(20, n)
    assert traced_peak(refused, dp_values, query)[0] < 1 << 20
    monkeypatch.setattr(planner, "DP_TABLE_CAP", dp_bounds_bytes(20, n) - 1)
    assert traced_peak(refused, dp_solve, query)[0] < 1 << 20


def rollout_cases():
    """(plan result, the subset's own dp_solve, hazard model, trials per
    chunk) over small.json with its deterministic motion and with a slippery
    tabular kernel, paper17x13, and a corridor whose starts die at once,
    finish at once, or walk. The plan result is the cache's, kept from the
    first solve of its (robot, mask)."""
    small = load_scenario(SCENARIOS / "small.json")
    small_fld = exact_contamination_field(small.gridmap, small.hazard, small.horizon)
    slip = random_tabular_kernel(np.random.default_rng(3), small.gridmap)
    paper = load_scenario(SCENARIOS / "paper17x13.json")
    paper_fld = estimate_contamination_field(paper.gridmap, paper.hazard, paper.horizon,
                                             samples=300, seed=0)
    full = (1 << small.n_tasks) - 1
    for sc, fld, kernel, robots, masks, m in (
        (small, small_fld, small.kernel(), range(3), (0, 0b0101, full), 3000),
        (small, small_fld, slip, range(3), (0b0011, full), 3000),
        (paper, paper_fld, paper.kernel(), (0,), (0b10001,), 500),
    ):
        cache = ObjectiveCache(sc.gridmap, kernel, fld, sc.starts, sc.targets, sc.horizon)
        for r in robots:
            for mask in masks:
                yield cache.solve(r, mask), dp_solve(cache.query(r, mask)), sc.hazard, m
    gm = GridMap(3, 1, [], Cell(2, 0))
    model = HazardModel.uniform([Cell(0, 0)], 0.5)
    fld = exact_contamination_field(gm, model, 3)
    for start, targets in ((Cell(0, 0), ()), (Cell(2, 0), ()), (Cell(1, 0), (Cell(2, 0),))):
        result = dp_solve(make_query(gm, fld, start, targets, 3))
        yield result, result, model, 3000


def chunk_rng(ci):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, ci))))


def chunk_fired(result, model, ci, m, seed=5):
    """The ignition steps that joint chunk ci of m trials reads."""
    dyn = _dynamics(result.query.gridmap, model)
    return planner._joint_trajectories(dyn, result.query.horizon, seed, ci, m)


def test_rollout_chunks_equal_reference_in_both_modes():
    """Model chunks equal the per-mode reference walk, and joint chunks the
    trial-by-trial replay against the same ignition steps, on the same
    motion stream."""
    for result, reference, model, m in rollout_cases():
        for ci in range(2):
            assert (_rollout_chunk(result, None, chunk_rng(ci), m)
                    == oracles.reference_rollout_model_chunk(reference, chunk_rng(ci), m))
            fired = chunk_fired(result, model, ci, m)
            assert (_rollout_chunk(result, fired, chunk_rng(ci), m)
                    == oracles.replay_joint_chunk(reference, fired, chunk_rng(ci), m))


def test_joint_trajectories_come_in_sampler_blocks(monkeypatch):
    """Each joint chunk draws its trajectories in blocks of at most
    _block_size samples, block b of chunk ci on the stream (seed, ci) with
    spawn key (b,), and rollout sums the replayed chunks."""
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel.uniform([Cell(0, 1)], 0.3)
    fld = exact_contamination_field(gm, model, 5)
    res = dp_solve(make_query(gm, fld, Cell(0, 0), [Cell(2, 0)], 5, random_tabular_kernel(
        np.random.default_rng(4), gm)))
    monkeypatch.setattr(planner, "_ROLLOUT_CHUNK", 1000)
    monkeypatch.setattr(planner, "_block_size", lambda n_free: 300)
    calls = []
    real = planner._sample_block

    def recording(dyn, horizon, stream, m):
        calls.append((stream.entropy, stream.spawn_key, m))
        return real(dyn, horizon, stream, m)

    monkeypatch.setattr(planner, "_sample_block", recording)
    seed, trials = 9, 2500
    rr = rollout(res, trials=trials, seed=seed, model=model)
    assert calls == [((seed, ci), (b,), m)
                     for ci, chunk in enumerate((1000, 1000, 500))
                     for b, m in enumerate([300] * (chunk // 300) + [chunk % 300])]
    want = sum(oracles.replay_joint_chunk(
        res, chunk_fired(res, model, ci, m, seed),
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, ci)))), m)
        for ci, m in enumerate((1000, 1000, 500)))
    assert rr.successes == want and 0 < want < trials


def waiting_plan():
    """A 3x1 corridor whose start is safe to stay on and whose first move is
    riskier at steps 0-1 than after: over 5 steps the plan waits three times,
    as late as a tie with moving lets it, then walks to the exit."""
    gm = GridMap(3, 1, [], Cell(2, 0))
    fld = clear_field(gm, 5)
    prob = np.full_like(fld.prob, 0.1)
    prob[:, 0, MoveAction.STAY] = 0.0
    prob[:2, 0, MoveAction.EAST] = 0.5
    return dp_solve(make_query(gm, replace(fld, prob=prob), Cell(0, 0), (), 5))


def test_model_chunk_prices_a_walk_that_waits():
    res = waiting_plan()
    steps, complete = res._walk()
    stay, east = MoveAction.STAY, MoveAction.EAST
    assert steps == [(0, stay)] * 3 + [(0, east), (1, east)] and complete
    assert res.greedy_path() == [Cell(0, 0), Cell(1, 0), Cell(2, 0)]
    for ci in range(3):
        count = _rollout_chunk(res, None, chunk_rng(ci), 3000)
        assert count == oracles.reference_rollout_model_chunk(res, chunk_rng(ci), 3000)
        assert 0 < count < 3000


def test_model_chunk_of_a_walk_that_never_completes_is_zero():
    gm = GridMap(4, 1, [], Cell(3, 0))
    model = HazardModel.uniform([Cell(3, 0)], 0.5)
    fld = exact_contamination_field(gm, model, 2)
    # the exit is three moves away, one more than the horizon
    res = dp_solve(make_query(gm, fld, Cell(0, 0), (), 2))
    assert res._walk() == ([(0, MoveAction.STAY), (0, MoveAction.STAY)], False)
    assert _rollout_chunk(res, None, chunk_rng(0), 500) == 0
    assert oracles.reference_rollout_model_chunk(res, chunk_rng(0), 500) == 0


def test_rollout_over_several_chunks_equals_oracle_chunks(monkeypatch):
    res = waiting_plan()
    monkeypatch.setattr(planner, "_ROLLOUT_CHUNK", 1000)
    seed, trials = 9, 2500
    want = sum(
        oracles.reference_rollout_model_chunk(
            res, np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, ci)))),
            min(1000, trials - 1000 * ci))
        for ci in range(3)
    )
    rr = rollout(res, trials=trials, seed=seed)
    assert rr.successes == want
    assert rr.trials == trials


def test_model_chunk_skips_the_steps_no_uniform_can_hit():
    """A walk step whose probability is 0 or NaN hits no trial, and the
    chunk advances its stream past the step's uniforms instead of drawing
    them. With NaN swapped in on the waiting plan's first move, four of its
    five steps draw nothing. The count is == the oracle's, which draws at
    every step, and both streams go on with the same next uniform."""
    res = waiting_plan()
    prob = res.query.field.prob.copy()
    prob[3, 0, MoveAction.EAST] = np.nan
    res = replace(res, query=replace(res.query, field=replace(res.query.field, prob=prob)))
    steps, _ = res._walk()
    assert len(steps) == res.query.horizon
    assert [prob[k, x, u] > 0 for k, (x, u) in enumerate(steps)] == [False] * 4 + [True]
    for ci in range(3):
        rng, ref = chunk_rng(ci), chunk_rng(ci)
        count = _rollout_chunk(res, None, rng, 3000)
        assert count == oracles.reference_rollout_model_chunk(res, ref, 3000)
        assert 0 < count < 3000
        assert rng.random() == ref.random()


class FixedDraws:
    """Stands in for a Generator: every uniform it draws is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, m):
        return np.full(m, self.value)


def test_motion_slot_of_a_draw_past_a_short_row_sum_is_its_last_with_mass():
    gm = GridMap(3, 1, [], Cell(2, 0))
    # the row sums to 1 - 4e-13, inside the kernel's tolerance
    kernel = MotionKernel.tabular(gm, {
        (Cell(0, 0), MoveAction.EAST): {Cell(0, 0): 0.1, Cell(1, 0): 0.9 - 4e-13},
    })
    tables = _slot_tables(kernel)
    x = np.zeros(1, dtype=np.int64)
    act = np.full(1, MoveAction.EAST, dtype=np.int8)
    for draw, slot in ((0.0, MoveAction.STAY), (0.1 - 1e-12, MoveAction.STAY),
                       (0.1, MoveAction.EAST), (1 - 1e-13, MoveAction.EAST)):
        assert _motion_slots(tables, FixedDraws(draw), x, act, 1).tolist() == [slot]
    assert _slot_tables(MotionKernel.deterministic(gm)) is None


def test_start_on_target_counts_as_visited():
    gm = GridMap(3, 1, [], Cell(2, 0))
    fld = clear_field(gm, 2)
    q = make_query(gm, fld, Cell(0, 0), [Cell(0, 0)], 2)
    assert oracles.initial_state(q).q == 1
    assert dp_solve(q).success == 1.0
    # same layout but the target sits ahead and out of reach in the horizon
    q2 = make_query(gm, fld, Cell(0, 0), [Cell(0, 0), Cell(2, 0)], 1)
    assert dp_solve(q2).success == 0.0


def test_goal_must_be_reached_after_targets():
    gm = GridMap(3, 1, [], Cell(0, 0))
    fld = clear_field(gm, 4)
    # goal sits at the start but the far target forces a round trip
    q = make_query(gm, fld, Cell(0, 0), [Cell(2, 0)], 4)
    assert dp_solve(q).success == 1.0
    q = make_query(gm, fld, Cell(0, 0), [Cell(2, 0)], 3)
    assert dp_solve(q).success == 0.0


def test_transition_distribution_mass_and_absorbing():
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel.uniform([Cell(0, 1)], 0.5)
    fld = exact_contamination_field(gm, model, 3)
    q = make_query(gm, fld, Cell(0, 0), [Cell(2, 0)], 3)
    state = MissionState(0, Cell(1, 0))
    # staying at (1, 0) risks ignition from the diagonal source at (0, 1)
    out = transition_distribution(q, state, MoveAction.STAY, 0)
    assert abs(sum(p for _, p in out) - 1.0) < 1e-12
    assert any(s == HAZARD_STATE for s, _ in out)
    assert transition_distribution(q, HAZARD_STATE, MoveAction.STAY, 1) == [(HAZARD_STATE, 1.0)]
    goal_state = oracles.goal_state(q)
    assert transition_distribution(q, goal_state, MoveAction.STAY, 1) == [(goal_state, 1.0)]
    with pytest.raises(ValidationError):
        transition_distribution(q, MissionState(0, Cell(0, 1)), MoveAction.WEST, 0)
    with pytest.raises(ValidationError):
        transition_distribution(q, state, MoveAction.EAST, 3)


def test_task_update():
    targets = (Cell(0, 0), Cell(1, 0), Cell(1, 1))
    assert task_update(0, Cell(1, 0), targets) == 2
    assert task_update(2, Cell(1, 0), targets) == 2
    assert task_update(1, Cell(1, 1), targets) == 5
    assert task_update(0, Cell(9, 9), targets) == 0


def test_flagged_start_and_target_stub():
    gm = GridMap(3, 1, [], Cell(2, 0))
    model = HazardModel.uniform([Cell(0, 0)], 0.5)
    fld = exact_contamination_field(gm, model, 3)
    res = dp_solve(make_query(gm, fld, Cell(0, 0), [Cell(1, 0)], 3))
    assert res.success == 0.0
    assert any("(0, 0)" in d for d in res.diagnostics)
    res = dp_solve(make_query(gm, fld, Cell(2, 0), [Cell(0, 0)], 3))
    assert res.success == 0.0
    assert any("target (0, 0)" in d for d in res.diagnostics)
    # a start on a contaminated goal with nothing to visit is not a success
    gm = GridMap(3, 1, [], Cell(0, 0))
    fld = exact_contamination_field(gm, model, 3)
    res = dp_solve(make_query(gm, fld, Cell(0, 0), [], 3))
    assert res.success == 0.0
    assert res.greedy_path() == [Cell(0, 0)]
    assert res.diagnostics == ("start (0, 0) is almost surely contaminated at step 0",)


def test_unreachable_target_diagnosed():
    gm = GridMap(3, 1, [Cell(1, 0)], Cell(0, 0))
    fld = clear_field(gm, 5)
    res = dp_solve(make_query(gm, fld, Cell(0, 0), [Cell(2, 0)], 5))
    assert res.success == 0.0
    assert res.diagnostics == ("target (2, 0) unreachable from start (0, 0)",)
    res = dp_solve(make_query(gm, fld, Cell(2, 0), [Cell(0, 0)], 5))
    assert res.diagnostics == ("target (0, 0) unreachable from start (2, 0)",
                               "exit (0, 0) unreachable from start (2, 0)")


def test_greedy_path_visits_everything_when_safe():
    gm = GridMap(4, 3, [Cell(1, 1)], Cell(3, 2))
    fld = clear_field(gm, 10)
    targets = (Cell(0, 2), Cell(3, 0))
    res = dp_solve(make_query(gm, fld, Cell(0, 0), targets, 10))
    assert res.success == 1.0
    path = res.greedy_path()
    assert path[0] == Cell(0, 0)
    assert path[-1] == Cell(3, 2)
    assert set(targets) <= set(path)
    assert len(path) - 1 <= 10


def test_success_monotone_under_target_inclusion():
    rng = np.random.default_rng(46)
    pairs = 0
    while pairs < 60:
        gm, _, horizon, fld, start, _ = random_plan_setup(rng, max_cells=9, max_horizon=6)
        cache = ObjectiveCache(
            gm, MotionKernel.deterministic(gm), fld,
            [start], list(gm.cells[: min(3, gm.n_free)]), horizon,
        )
        full = (1 << cache.n_tasks) - 1
        a = int(rng.integers(0, full + 1))
        b = a | int(rng.integers(0, full + 1))
        assert cache.value(0, a) >= cache.value(0, b) - 1e-12
        pairs += 1


def test_rollout_model_mode_matches_exact_policy_value():
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel.uniform([Cell(0, 1)], 0.3)
    fld = exact_contamination_field(gm, model, 5)
    res = dp_solve(make_query(gm, fld, Cell(0, 0), [Cell(2, 0)], 5))
    assert res.success > 0.0
    exact = oracles.model_mode_policy_success(res)
    assert exact == pytest.approx(res.success, abs=1e-12)
    rr = rollout(res, trials=20_000, seed=17)
    assert rr.ci_low <= exact <= rr.ci_high


def test_rollout_joint_mode_matches_exact_joint_chain():
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel.uniform([Cell(0, 1)], 0.3)
    fld = exact_contamination_field(gm, model, 5)
    res = dp_solve(make_query(gm, fld, Cell(0, 0), [Cell(2, 0)], 5))
    exact = oracles.exact_joint_policy_success(res, model.sources)
    rr = rollout(res, trials=20_000, seed=18, model=model)
    assert rr.ci_low <= exact <= rr.ci_high


def test_rollout_joint_mode_under_slippery_motion_matches_exact_joint_chain():
    """Tabular motion walks the trials one by one against their sampled
    trajectories; the exact chain over (visited set, cell, contamination)
    lies in the rate's 95% interval."""
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel.uniform([Cell(0, 1)], 0.3)
    fld = exact_contamination_field(gm, model, 5)
    slip = random_tabular_kernel(np.random.default_rng(5), gm)
    assert slip.kind == "tabular"
    res = dp_solve(make_query(gm, fld, Cell(0, 0), [Cell(2, 0)], 5, slip))
    exact = oracles.exact_joint_policy_success(res, model.sources)
    assert 0.0 < exact < 1.0
    rr = rollout(res, trials=20_000, seed=19, model=model)
    assert rr.ci_low <= exact <= rr.ci_high


def test_rollout_reproducible_and_seed_sensitive():
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel.uniform([Cell(0, 1)], 0.4)
    fld = exact_contamination_field(gm, model, 4)
    res = dp_solve(make_query(gm, fld, Cell(0, 0), [Cell(2, 0)], 4))
    a = rollout(res, trials=5000, seed=7)
    b = rollout(res, trials=5000, seed=7)
    c = rollout(res, trials=5000, seed=8)
    assert a.successes == b.successes
    assert a.successes != c.successes
    # chunked trial counts agree with a single chunk on the shared prefix
    d = rollout(res, trials=40_000, seed=7)
    assert d.trials == 40_000


def test_rollout_validation():
    gm = GridMap(2, 1, [], Cell(1, 0))
    fld = clear_field(gm, 2)
    res = dp_solve(make_query(gm, fld, Cell(0, 0), [], 2))
    with pytest.raises(ValidationError):
        rollout(res, trials=0, seed=1)


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)
    lo, hi = wilson_interval(0, 20)
    assert lo == 0.0
    assert hi < 0.2
    with pytest.raises(ValidationError):
        wilson_interval(1, 0)


def test_objective_cache_counters_and_validation():
    gm = GridMap(3, 2, [], Cell(2, 1))
    fld = clear_field(gm, 6)
    cache = ObjectiveCache(
        gm, MotionKernel.deterministic(gm), fld,
        [Cell(0, 0), Cell(1, 0)], [Cell(2, 0), Cell(0, 1)], 6,
    )
    assert cache.n_robots == 2 and cache.n_tasks == 2
    v1 = cache.value(0, 3)
    assert cache.solve_count == 1 and cache.hit_count == 0
    v2 = cache.value(0, 3)
    assert v1 == v2
    assert cache.solve_count == 1 and cache.hit_count == 1
    cache.value(1, 0)
    assert cache.solve_count == 2
    # one value lattice for every robot; one policy DP per (robot, mask) solved
    cache.value(0, 1)
    assert (cache.value_runs, cache.policy_runs) == (1, 0)
    plan = cache.solve(0, 3)
    assert cache.solve(0, 3) is plan and plan.success == v1
    assert (cache.value_runs, cache.policy_runs, cache.solve_count) == (1, 1, 3)
    with pytest.raises(ValidationError):
        cache.value(2, 0)
    with pytest.raises(ValidationError):
        cache.value(0, 7)
    with pytest.raises(ValidationError):
        cache.value(0, -1)
    with pytest.raises(ValidationError):
        cache.solve(0, -1)
    with pytest.raises(ValidationError):
        cache.solve(2, 0)
    assert success_probability(cache, 0, 3) == v1
    assert success_probability(cache, 0, [Cell(2, 0), Cell(0, 1)]) == v1
    with pytest.raises(ValidationError):
        success_probability(cache, 0, [Cell(1, 1)])


def test_query_validation():
    gm = GridMap(3, 2, [], Cell(2, 1))
    fld = clear_field(gm, 3)
    with pytest.raises(ValidationError):
        make_query(gm, fld, Cell(0, 0), [Cell(1, 0), Cell(1, 0)], 3)
    with pytest.raises(ValidationError):
        make_query(gm, fld, Cell(0, 0), [], 0)
    with pytest.raises(ValidationError):
        make_query(gm, fld, Cell(0, 0), [], 4)
    other = GridMap(2, 2, [], Cell(0, 0))
    with pytest.raises(ValidationError):
        PlanQuery(
            gridmap=other, kernel=MotionKernel.deterministic(gm), field=fld,
            start=Cell(0, 0), targets=(), horizon=2,
        )
