import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hazardplan.errors import CapExceededError, ValidationError
from hazardplan.grid import Cell, GridMap, MotionKernel, MoveAction
from hazardplan.hazard import (
    HazardModel,
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
    dp_solve,
    dp_table_bytes,
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


@pytest.mark.parametrize("n_targets, slip", [(5, False), (8, False), (5, True)],
                         ids=["5", "8", "5-slip"])
def test_dp_equals_reference_on_paper_sweep(n_targets, slip):
    """Policy and every start value, under the scenario's motion and under a
    slippery tabular kernel whose actions sum several terms."""
    query = paper_sweep_query(n_targets)
    if slip:
        kernel = random_tabular_kernel(np.random.default_rng(7), query.gridmap)
        query = replace(query, kernel=kernel)
    res = dp_solve(query)
    values, policy, success = oracles.reference_dp_solve(query)
    start = query.gridmap.index(query.start)
    assert res.success == success
    assert np.array_equal(res.policy, policy)
    assert np.array_equal(res.start_values,
                          values[0][:, start] * (not query.field.flagged[0, start]))


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
    res = dp_solve(query)
    values, policy, success = oracles.reference_dp_solve(query)
    assert 0.0 < res.success == success < 1.0
    assert np.array_equal(res.policy, policy)
    assert np.array_equal(res.start_values, values[0][:, gm.index(along[2])])


def test_dp_over_the_table_cap_raises_before_allocating():
    query = paper_sweep_query(20)
    assert dp_table_bytes(20, query.gridmap.n_free, query.horizon) > DP_TABLE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="cap"):
            dp_solve(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def rollout_cases():
    """(plan result, the subset's own dp_solve, hazard model, trials per
    chunk) over small.json with its deterministic motion and with a slippery
    tabular kernel, paper17x13, and a corridor whose starts die at once,
    finish at once, or walk. The plan result is the cache's, which walks the
    robot's plan over all targets from the subset's start state."""
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


def test_rollout_chunks_equal_reference_in_both_modes():
    for result, reference, model, m in rollout_cases():
        for ci in range(2):
            assert (_rollout_chunk(result, None, chunk_rng(ci), m)
                    == oracles.reference_rollout_model_chunk(reference, chunk_rng(ci), m))
            assert (_rollout_chunk(result, model, chunk_rng(ci), m)
                    == oracles.reference_rollout_joint_chunk(reference, model, chunk_rng(ci), m))


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
    rr = rollout(res, mode="model", trials=trials, seed=seed)
    assert rr.successes == want
    assert rr.trials == trials


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
    assert any("unreachable" in d for d in res.diagnostics)


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
    rr = rollout(res, mode="model", trials=20_000, seed=17)
    assert rr.ci_low <= exact <= rr.ci_high


def test_rollout_joint_mode_matches_exact_joint_chain():
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel.uniform([Cell(0, 1)], 0.3)
    fld = exact_contamination_field(gm, model, 5)
    res = dp_solve(make_query(gm, fld, Cell(0, 0), [Cell(2, 0)], 5))
    exact = oracles.exact_joint_policy_success(res, model.sources)
    rr = rollout(res, mode="joint", trials=20_000, seed=18, model=model)
    assert rr.ci_low <= exact <= rr.ci_high


def test_rollout_reproducible_and_seed_sensitive():
    gm = GridMap(3, 2, [], Cell(2, 1))
    model = HazardModel.uniform([Cell(0, 1)], 0.4)
    fld = exact_contamination_field(gm, model, 4)
    res = dp_solve(make_query(gm, fld, Cell(0, 0), [Cell(2, 0)], 4))
    a = rollout(res, mode="model", trials=5000, seed=7)
    b = rollout(res, mode="model", trials=5000, seed=7)
    c = rollout(res, mode="model", trials=5000, seed=8)
    assert a.successes == b.successes
    assert a.successes != c.successes
    # chunked trial counts agree with a single chunk on the shared prefix
    d = rollout(res, mode="model", trials=40_000, seed=7)
    assert d.trials == 40_000


def test_rollout_validation():
    gm = GridMap(2, 1, [], Cell(1, 0))
    fld = clear_field(gm, 2)
    res = dp_solve(make_query(gm, fld, Cell(0, 0), [], 2))
    with pytest.raises(ValidationError):
        rollout(res, mode="weird", trials=10, seed=1)
    with pytest.raises(ValidationError):
        rollout(res, mode="model", trials=0, seed=1)
    with pytest.raises(ValidationError):
        rollout(res, mode="joint", trials=10, seed=1)


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
