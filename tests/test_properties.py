"""Property tests on hypothesis-drawn grids of at most 12 free cells: the
package DP and the exact field against the scalar oracles, the DP against
its full-table reference, the objective cache's one plan per robot against
per-subset solves, model-mode rollouts of deterministic motion against the
trial-by-trial oracle, the ground values of exact ratios against the set-by-set
product, the allocators' partitions, and both greedy guarantees under exact
ratios."""

from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hazardplan.allocation import (
    brute_force_optimal,
    forward_greedy,
    group_success,
    is_partition,
    reverse_greedy,
)
from hazardplan.grid import Cell, GridMap, MotionKernel
from hazardplan.guarantees import _ground_values, exact_ratios, theorem_bounds
from hazardplan.hazard import (
    HazardModel,
    HazardSource,
    estimate_contamination_field,
    exact_contamination_field,
)
from hazardplan.planner import ObjectiveCache, PlanQuery, _rollout_chunk, dp_solve
from hazardplan.scenario import load_scenario

import oracles
from conftest import TableSource, random_tabular_kernel

MAX_FREE = 12
# the oracle field sums the same terms in another order, so entries may
# differ in the last bits
FIELD_TOL = 1e-12


@st.composite
def hazard_grids(draw):
    """A 1-4 by 1-4 grid other than 1 by 1, with 2 to MAX_FREE free cells,
    connected or not, and 0-3 single-cell sources whose speeds include the
    edges 0 and 1. In a corridor, two moves have no kernel term anywhere."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(2 if width == 1 else 1, 4))
    cells = [Cell(c, r) for c in range(width) for r in range(height)]
    n_obstacles = draw(st.integers(max(0, len(cells) - MAX_FREE), len(cells) - 2))
    order = draw(st.permutations(cells))
    free = order[n_obstacles:]
    gm = GridMap(width, height, order[:n_obstacles], draw(st.sampled_from(free)))
    speeds = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))
    n_sources = draw(st.integers(0, min(3, gm.n_free - 1)))
    model = HazardModel(sources=tuple(
        HazardSource(cells=frozenset([cell]), theta=draw(speeds))
        for cell in draw(st.permutations(gm.cells))[:n_sources]
    ))
    return gm, model


@settings(max_examples=100, deadline=None)
@given(hazard_grids(), st.integers(1, 3))
def test_exact_field_matches_oracle(grid, horizon):
    gm, model = grid
    fld = exact_contamination_field(gm, model, horizon)
    prob, flagged = oracles.exact_field_oracle(gm, model.sources, horizon)
    assert np.array_equal(fld.flagged, flagged)
    assert np.abs(fld.prob - prob).max() <= FIELD_TOL


@settings(max_examples=150, deadline=None)
@given(hazard_grids(), st.integers(1, 6), st.data())
def test_dp_value_equals_value_recursion_oracle(grid, horizon, data):
    gm, model = grid
    fld = exact_contamination_field(gm, model, horizon)
    start = data.draw(st.sampled_from(gm.cells))
    targets = data.draw(st.lists(st.sampled_from(gm.cells), unique=True, max_size=3))
    if data.draw(st.booleans()):
        kernel = MotionKernel.deterministic(gm)
    else:
        kernel = random_tabular_kernel(np.random.default_rng(data.draw(st.integers(0, 2**32))), gm)
    query = PlanQuery(gridmap=gm, kernel=kernel, field=fld, start=start,
                      targets=tuple(targets), horizon=horizon)
    assert dp_solve(query).success == oracles.value_recursion_oracle(query)


@settings(max_examples=120, deadline=None)
@given(hazard_grids(), st.integers(1, 6), st.data())
def test_dp_equals_reference_dp(grid, horizon, data):
    """success and, unless the start or a target is contaminated at step 0,
    policy are == to the full-table, per-mask reference."""
    gm, model = grid
    fld = exact_contamination_field(gm, model, horizon)
    targets = data.draw(st.lists(st.sampled_from(gm.cells), unique=True, max_size=4))
    sources = sorted(model.initial_cells)
    if sources and len(targets) < 4 and data.draw(st.booleans(), label="target on a source"):
        source = data.draw(st.sampled_from(sources))
        targets = targets if source in targets else targets + [source]
    if targets and data.draw(st.booleans(), label="start on a target"):
        start = data.draw(st.sampled_from(targets))
    else:
        start = data.draw(st.sampled_from(gm.cells))
    if data.draw(st.booleans(), label="deterministic"):
        kernel = MotionKernel.deterministic(gm)
    else:
        kernel = random_tabular_kernel(np.random.default_rng(data.draw(st.integers(0, 2**32))), gm)
    query = PlanQuery(gridmap=gm, kernel=kernel, field=fld, start=start,
                      targets=tuple(targets), horizon=horizon)
    res = dp_solve(query)
    _, policy, success = oracles.reference_dp_solve(query)
    assert res.success == success
    if oracles._flagged_stub(query):
        # the reference stubs the policy; the two differ only in states no
        # walk reaches alive
        assert success == 0.0
        assert res.greedy_path() == replace(res, policy=policy).greedy_path()
    else:
        assert np.array_equal(res.policy, policy)


def chunk_rng(ci):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((11, ci))))


def assert_lattice_matches_subset_solves(cache, model, trials):
    """Every robot's every subset: value and the cache's plan are == the
    subset's own dp_solve in success, greedy path and rollout successes in
    both modes on the same streams, and the plan's rows for the subset's
    visited sets hold the subset's start values and policy."""
    for r in range(cache.n_robots):
        for mask in range(1 << cache.n_tasks):
            want = dp_solve(cache.query(r, mask))
            got = cache.solve(r, mask)
            assert cache.value(r, mask) == want.success
            assert got.success == want.success
            assert got.greedy_path() == want.greedy_path()
            for ci, hazard in enumerate((None, model)):
                assert (_rollout_chunk(got, hazard, chunk_rng(ci), trials)
                        == _rollout_chunk(want, hazard, chunk_rng(ci), trials))
            rows = oracles.lattice_rows(cache.n_tasks, mask)
            assert np.array_equal(got.start_values[rows], want.start_values)
            assert np.array_equal(got.policy[:, rows], want.policy)


@settings(max_examples=100, deadline=None)
@given(hazard_grids(), st.integers(1, 5), st.data())
def test_lattice_equals_per_subset_dp(grid, horizon, data):
    gm, model = grid
    fld = exact_contamination_field(gm, model, horizon)
    targets = data.draw(st.lists(st.sampled_from(gm.cells), unique=True, max_size=4))
    starts = data.draw(st.lists(st.sampled_from(gm.cells), min_size=1, max_size=3))
    sources = sorted(model.initial_cells)
    if sources and len(targets) < 4 and data.draw(st.booleans(), label="target on a source"):
        source = data.draw(st.sampled_from(sources))
        targets = targets if source in targets else targets + [source]
    if sources and data.draw(st.booleans(), label="start on a source"):
        starts[0] = data.draw(st.sampled_from(sources))
    if targets and data.draw(st.booleans(), label="start on a target"):
        starts[-1] = data.draw(st.sampled_from(targets))
    if data.draw(st.booleans(), label="deterministic"):
        kernel = MotionKernel.deterministic(gm)
    else:
        kernel = random_tabular_kernel(np.random.default_rng(data.draw(st.integers(0, 2**32))), gm)
    assert_lattice_matches_subset_solves(
        ObjectiveCache(gm, kernel, fld, starts, targets, horizon), model, 40)


def test_lattice_equals_per_subset_dp_on_paper17x13():
    sc = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "paper17x13.json")
    fld = estimate_contamination_field(sc.gridmap, sc.hazard, sc.horizon, samples=300, seed=0)
    cache = ObjectiveCache(sc.gridmap, sc.kernel(), fld, sc.starts, sc.targets, sc.horizon)
    assert cache.n_robots == 3 and cache.n_tasks == 5
    assert_lattice_matches_subset_solves(cache, sc.hazard, 40)


@settings(max_examples=100, deadline=None)
@given(hazard_grids(), st.integers(1, 6), st.data())
def test_model_rollout_of_deterministic_motion_equals_oracle(grid, horizon, data):
    """With deterministic motion a model-mode chunk prices the plan's one
    walk. Its count is == the oracle's trial-by-trial walk on the same
    stream, for the cache's plan and for the subset's own dp_solve."""
    gm, model = grid
    fld = exact_contamination_field(gm, model, horizon)
    targets = data.draw(st.lists(st.sampled_from(gm.cells), unique=True, max_size=3))
    start = data.draw(st.sampled_from(gm.cells))
    cache = ObjectiveCache(gm, MotionKernel.deterministic(gm), fld, [start], targets, horizon)
    mask = data.draw(st.integers(0, (1 << len(targets)) - 1))
    want = dp_solve(cache.query(0, mask))
    for ci in range(2):
        count = oracles.reference_rollout_model_chunk(want, chunk_rng(ci), 300)
        assert _rollout_chunk(want, None, chunk_rng(ci), 300) == count
        assert _rollout_chunk(cache.solve(0, mask), None, chunk_rng(ci), 300) == count


@st.composite
def allocation_instances(draw):
    """1-3 robots sharing 1-3 targets on a hazard_grids grid, with
    deterministic motion and the exact field of horizon 1-5."""
    gm, model = draw(hazard_grids())
    horizon = draw(st.integers(1, 5))
    starts = draw(st.lists(st.sampled_from(gm.cells), min_size=1, max_size=3))
    targets = draw(st.lists(st.sampled_from(gm.cells), unique=True, min_size=1, max_size=3))
    fld = exact_contamination_field(gm, model, horizon)
    return ObjectiveCache(gm, MotionKernel.deterministic(gm), fld, starts, targets, horizon)


@settings(max_examples=60, deadline=None)
@given(allocation_instances())
def test_allocators_return_partitions(cache):
    best, f_star = brute_force_optimal(cache)
    assert is_partition(best, cache.n_tasks)
    assert group_success(cache, best) == f_star
    for allocate in (forward_greedy, reverse_greedy):
        masks, _ = allocate(cache)
        assert is_partition(masks, cache.n_tasks)
        assert group_success(cache, masks) <= f_star


def assert_ground_values_match_loop(make, primed):
    """_ground_values on one source against oracles.ground_value on a twin:
    the same bits, and the same counters after the same earlier lookups and
    after a later lookup of every (robot, mask)."""
    src, ref = make(), make()
    for source in (src, ref):
        for robot, mask in primed:
            source.value(robot, mask)
    got = _ground_values(src)
    n = src.n_tasks * src.n_robots
    want = np.array([oracles.ground_value(ref, wm) for wm in range(1 << n)])
    assert np.array_equal(got, want)
    assert (src.solve_count, src.hit_count) == (ref.solve_count, ref.hit_count)
    for source in (src, ref):
        for robot in range(source.n_robots):
            for mask in range(1 << source.n_tasks):
                source.value(robot, mask)
    assert (src.solve_count, src.hit_count) == (ref.solve_count, ref.hit_count)


def primed_lookups(data, n_robots, n_tasks):
    return data.draw(st.lists(st.tuples(st.integers(0, n_robots - 1),
                                        st.integers(0, (1 << n_tasks) - 1)), max_size=6))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_ground_values_equal_set_by_set_product_on_tables(n_robots, n_tasks, data):
    # values with ties, zeros and ones, and values with every bit in play
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    tables = data.draw(st.lists(st.lists(value, min_size=1 << n_tasks, max_size=1 << n_tasks),
                                min_size=n_robots, max_size=n_robots))
    make = lambda: TableSource([dict(enumerate(t)) for t in tables])
    assert_ground_values_match_loop(make, primed_lookups(data, n_robots, n_tasks))


@settings(max_examples=50, deadline=None)
@given(hazard_grids(), st.integers(1, 4), st.data())
def test_ground_values_equal_set_by_set_product_on_a_cache(grid, horizon, data):
    gm, model = grid
    fld = exact_contamination_field(gm, model, horizon)
    starts = data.draw(st.lists(st.sampled_from(gm.cells), min_size=1, max_size=3))
    targets = data.draw(st.lists(st.sampled_from(gm.cells), unique=True, min_size=1, max_size=3))
    kernel = MotionKernel.deterministic(gm)
    make = lambda: ObjectiveCache(gm, kernel, fld, starts, targets, horizon)
    assert_ground_values_match_loop(make, primed_lookups(data, len(starts), len(targets)))


@st.composite
def comb_instances(draw):
    """A comb of 8 or 11 free cells: a corridor along row 0 to the goal at
    (4, 0) and dead-end teeth of depth 1-2 at columns 0, 2 and 4. The hazard
    starts at the end of one tooth, a target sits in each other tooth, and
    2-3 robots start on the corridor. Every visit is a costly detour, so
    values often fall strictly with each task: the regime the guarantees
    are stated in."""
    depth = draw(st.integers(1, 2))
    gm = GridMap(5, depth + 1, [Cell(c, r) for c in (1, 3) for r in range(1, depth + 1)],
                 Cell(4, 0))
    fire = draw(st.sampled_from([0, 2, 4]))
    targets = [Cell(c, draw(st.integers(1, depth))) for c in (0, 2, 4) if c != fire]
    model = HazardModel.uniform([Cell(fire, depth)], draw(st.floats(0.1, 0.45)))
    starts = [Cell(c, 0) for c in draw(st.lists(st.integers(0, 4), min_size=2, max_size=3))]
    horizon = draw(st.integers(4 + 4 * depth, 7 + 4 * depth))
    fld = exact_contamination_field(gm, model, horizon)
    return ObjectiveCache(gm, MotionKernel.deterministic(gm), fld, starts, targets, horizon)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(comb_instances())
def test_greedy_guarantees_hold_under_exact_ratios(cache):
    ratios = exact_ratios(cache)
    # the theorems assume every added task strictly lowers F: no skipped triple
    assume(ratios.skipped_alpha == 0 and ratios.skipped_gamma == 0)
    assume(ratios.alpha < 1.0 and ratios.gamma > 0.0)
    n_r, full = cache.n_robots, (1 << cache.n_tasks) - 1
    _, f_star = brute_force_optimal(cache)
    bounds = theorem_bounds(
        f_empty=group_success(cache, (0,) * n_r),
        f_full=group_success(cache, (full,) * n_r),
        f_star=f_star,
        f_forward=group_success(cache, forward_greedy(cache)[0]),
        f_reverse=group_success(cache, reverse_greedy(cache)[0]),
        alpha=ratios.alpha,
        gamma=ratios.gamma,
        ratio_kind=ratios.kind,
    )
    assert bounds.forward_ok is True
    assert bounds.reverse_ok is True
