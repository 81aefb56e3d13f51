"""Property tests on hypothesis-drawn grids of at most 12 free cells: the
package DP and the exact field against the scalar oracles, the Monte-Carlo
field at one horizon against the prefix of a longer one, the exact step's
outcome builder against the cell-by-cell reference and its grouping against
np.unique, both DP modes, in blocks of 1, 2 or 4 visited sets too, against
the full-table reference and the sweep over whole layers (the policy at
every state the start reaches), the DP's bounds on the moves left and on
the moves from the start against a breadth-first search of every state, the
objective cache's value lattice against per-subset solves and its joint
rollout chunks against the trial-by-trial replay, its one policy sweep for
several (robot, mask) pairs against each pair's own solve, model-mode rollouts of
deterministic motion against the trial-by-trial oracle, the ground values
of exact ratios against the set-by-set product, the allocators' partitions,
and both greedy guarantees under exact ratios."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hazardplan.allocation import (
    brute_force_optimal,
    forward_greedy,
    group_success,
    is_partition,
    reverse_greedy,
)
from hazardplan import hazard, planner
from hazardplan.grid import Cell, GridMap, MotionKernel
from hazardplan.guarantees import _ground_values, exact_ratios, theorem_bounds
from hazardplan.hazard import (
    HazardModel,
    HazardSource,
    estimate_contamination_field,
    exact_contamination_field,
)
from hazardplan.planner import ObjectiveCache, PlanQuery, _rollout_chunk, dp_solve, dp_values
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


@settings(max_examples=100, deadline=None)
@given(hazard_grids(), st.integers(1, 12), st.integers(1, 12), st.integers(1, 5000),
       st.integers(0, 2**32 - 1))
def test_monte_carlo_field_is_a_prefix_of_every_longer_horizon(grid, h1, h2, samples, seed):
    """The sampler's blocks depend on the grid alone and its walk draws step
    k's delays after every earlier step's, so a field's first k steps are
    the same bits at any longer horizon: the transition rows, the flags and
    the marginals, and the ignition steps of each block below k."""
    gm, model = grid
    short, long = min(h1, h2), max(h1, h2)
    a = estimate_contamination_field(gm, model, short, samples, seed)
    b = estimate_contamination_field(gm, model, long, samples, seed)
    assert np.array_equal(a.prob, b.prob[:short])
    assert np.array_equal(a.flagged, b.flagged[:short])
    assert np.array_equal(a.marginals, b.marginals[:short + 1])
    dyn = hazard._dynamics(gm, model)
    stream = np.random.SeedSequence((seed, 0))
    fired = hazard._sample_block(dyn, long, stream, samples)
    assert np.array_equal(hazard._sample_block(dyn, short, stream, samples),
                          np.minimum(fired, short))


@st.composite
def outcome_blocks(draw):
    """Arguments of hazard._outcomes for 1-6 states on 1-10 cells. Each
    state's uncertain cells are none, all or any, so a block mixes counts
    u and holds u = 0 and u = n often; base masks come from a pool of two,
    so they repeat."""
    n = draw(st.integers(1, 10))
    g = draw(st.integers(1, 6))
    rows = []
    for _ in range(g):
        kind = draw(st.sampled_from(["none", "all", "any"]))
        if kind == "any":
            rows.append(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            rows.append([kind == "all"] * n)
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=2, max_size=2))
    base = np.array([draw(st.sampled_from(pool)) for _ in range(g)], dtype=np.int64)
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    probs = np.array(draw(st.lists(unit, min_size=g, max_size=g)))
    ignite = np.array(draw(st.lists(unit, min_size=g * n, max_size=g * n))).reshape(g, n)
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    return base, probs, np.array(rows, dtype=bool), ignite, bits


@settings(max_examples=300, deadline=None)
@given(outcome_blocks())
def test_outcomes_by_doubling_equal_the_cell_by_cell_reference(block):
    masks, probs = hazard._outcomes(*block)
    want_masks, want_probs = oracles.reference_outcomes(*block)
    assert np.array_equal(masks, want_masks)
    assert np.array_equal(probs.view(np.int64), want_probs.view(np.int64))


@st.composite
def merge_inputs(draw):
    """(n, running keys followed by a block of masks) as _exact_step groups
    them: the keys are distinct, and masks repeat within the block and
    across the two."""
    n = draw(st.sampled_from([1, 8, 16, 17, 40, 62]))
    top = (1 << n) - 1
    pool = draw(st.lists(st.one_of(st.integers(0, top), st.sampled_from([0, top])),
                         min_size=1, max_size=12))
    keys = draw(st.lists(st.sampled_from(pool), unique=True))
    block = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return n, np.array(keys + block, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(merge_inputs())
def test_first_groups_equal_np_unique(case):
    n, masks = case
    got = hazard._first_groups(masks, n)
    want = np.unique(masks, return_index=True, return_inverse=True)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


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


@settings(max_examples=150, deadline=None)
@given(hazard_grids(), st.integers(1, 6), st.data())
def test_dp_equals_reference_dp(grid, horizon, data):
    """With the default blocks, or a block budget that holds 1, 2 or 4 visited
    sets: the value lattice is == to the sweep over whole layers, bit for
    bit; the policy mode's success has the bits of the lattice at its start
    state, and its policy is the whole-layer sweep's at every state the
    start reaches, also when the start or a target is contaminated at step
    0. Each subset's own dp_solve, through ObjectiveCache.solve, has the
    bits of the lattice's value of it. Targets may sit on the start, the
    goal and a source."""
    gm, model = grid
    fld = exact_contamination_field(gm, model, horizon)
    targets = data.draw(st.lists(st.sampled_from(gm.cells), unique=True, max_size=3))
    for label, cells in (("goal", [gm.goal]), ("source", sorted(model.initial_cells))):
        if cells and data.draw(st.booleans(), label=f"target on the {label}"):
            cell = data.draw(st.sampled_from(cells))
            targets = targets if cell in targets else targets + [cell]
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
    nq = 1 << len(targets)
    columns = data.draw(st.sampled_from([c for c in (1, 2, 4) if c < nq] + [nq]))
    with pytest.MonkeyPatch.context() as mp:
        if columns < nq:
            mp.setattr(planner, "_DP_TILE_BYTES", gm.n_free * columns * 8)
        assert planner._tile_columns(nq, gm.n_free) == columns
        res = dp_solve(query)
        lattice = dp_values(query)
        cache = ObjectiveCache(gm, kernel, fld, [start], targets, horizon)
        for mask in range(nq):
            assert (np.float64(cache.solve(0, mask).success).view(np.int64)
                    == np.float64(cache.value(0, mask)).view(np.int64))
    policy, start_values = oracles.whole_layer_dp_solve(query)
    reach = oracles.reachable_states(query)
    assert np.array_equal(lattice.view(np.int64), start_values.view(np.int64))
    assert np.float64(res.success).view(np.int64) == lattice[res.start_q].view(np.int64)
    assert np.array_equal(oracles.dense_policy(res)[reach], policy[reach])


@settings(max_examples=100, deadline=None)
@given(hazard_grids(), st.data())
def test_finish_moves_is_the_fewest_moves_from_the_best_cell(grid, data):
    """planner._finish_moves against a breadth-first search of (visited set,
    cell) from every state, staying put included: need[q] is at most the
    fewest moves to finish from (q, x) for every cell x, and equal to them
    from the best x, inf where none finishes. It is 0 at the full set, never
    rises from a set to a superset, and is inf at every set that lacks a
    target cut off from the exit."""
    gm, model = grid
    targets = data.draw(st.lists(st.sampled_from(gm.cells), unique=True, max_size=4))
    query = PlanQuery(gridmap=gm, kernel=MotionKernel.deterministic(gm),
                      field=exact_contamination_field(gm, model, 1), start=gm.cells[0],
                      targets=tuple(targets), horizon=1)
    need = planner._finish_moves(query, planner._distance_table(query))
    nq = 1 << len(targets)
    assert need.shape == (nq,)
    for q in range(nq):
        fewest = [oracles.shortest_visiting_walk(gm, x, targets, visited=q) for x in gm.cells]
        moves = [np.inf if m is None else m for m in fewest]
        assert all(need[q] <= m for m in moves), q
        assert need[q] == min(moves), q
        for b in range(len(targets)):
            assert need[q | 1 << b] <= need[q]
    assert need[nq - 1] == 0
    for b, cell in enumerate(targets):
        if oracles.shortest_visiting_walk(gm, cell, []) is None:
            assert all(need[q] == np.inf for q in range(nq) if not q >> b & 1)


@settings(max_examples=100, deadline=None)
@given(hazard_grids(), st.data())
def test_reach_moves_is_the_fewest_moves_from_the_start(grid, data):
    """planner._reach_moves against a breadth-first walk of (visited set,
    cell) from the start state, staying put included, over enough steps to
    visit every target: every state with visited set q is reached no
    sooner than reach[q] moves, and some state whose visited set holds q
    is reached at exactly reach[q]; inf where none is. It is 0 at the start
    state's set, never falls from a set to a superset, and is inf at every
    set that lacks the start's own target."""
    gm, _ = grid
    targets = data.draw(st.lists(st.sampled_from(gm.cells), unique=True, max_size=4))
    start = data.draw(st.sampled_from(gm.cells))
    horizon = gm.n_free * (len(targets) + 1)
    query = PlanQuery(gridmap=gm, kernel=MotionKernel.deterministic(gm),
                      field=exact_contamination_field(gm, HazardModel(sources=()), horizon),
                      start=start, targets=tuple(targets), horizon=horizon)
    reach = planner._reach_moves(query, planner._distance_table(query))
    nq = 1 << len(targets)
    assert reach.shape == (nq,)
    walked = oracles.reachable_states(query).any(axis=2)  # (step, visited set)
    masks = np.arange(nq)
    start_q = int(query.target_bits()[gm.index(start)])
    for q in range(nq):
        steps = np.flatnonzero(walked[:, q])
        assert steps.size == 0 or reach[q] <= steps[0], q
        covers = np.flatnonzero(walked[:, masks & q == q].any(axis=1))
        assert reach[q] == (covers[0] if q & start_q == start_q and covers.size else np.inf), q
        for b in range(len(targets)):
            assert reach[q | 1 << b] >= reach[q] or not q & start_q == start_q
    assert reach[start_q] == 0
    assert all(reach[q] == np.inf for q in range(nq) if q & start_q != start_q)


def chunk_rng(ci):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((11, ci))))


def assert_lattice_matches_subset_solves(cache, model, trials):
    """Every robot's every subset: the value the lattice prices, and its
    row of price_table, have the bits of the subset's own dp_solve's
    success, which the cache keeps as the subset's plan, one policy DP per
    (robot, mask). The plan's rollout chunks on the same streams equal the
    trial-by-trial replays: a model chunk the package's own chunk, and a
    joint chunk the replay against the same ignition steps."""
    fired = planner._joint_trajectories(hazard._dynamics(cache.gridmap, model),
                                        cache.horizon, 11, 1, trials)

    def bits(v):
        return np.float64(v).view(np.int64)

    for r in range(cache.n_robots):
        table = cache.price_table(r)
        for mask in range(1 << cache.n_tasks):
            got = cache.solve(r, mask)
            assert bits(cache.value(r, mask)) == bits(table[mask]) == bits(got.success)
            assert cache.solve(r, mask) is got
            assert (_rollout_chunk(got, None, chunk_rng(0), trials)
                    == oracles.reference_rollout_model_chunk(got, chunk_rng(0), trials))
            assert (_rollout_chunk(got, fired, chunk_rng(1), trials)
                    == oracles.replay_joint_chunk(got, fired, chunk_rng(1), trials))
    n_masks = cache.n_robots << cache.n_tasks
    assert (cache.value_runs, cache.policy_runs) == (1, n_masks)


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
def test_one_policy_sweep_plans_each_pair_as_its_own_dp(grid, horizon, data):
    """ObjectiveCache.plans plans every (robot, mask) pair in one policy
    sweep over the union of their masks. Each pair's plan has the success
    bits (int64 views), greedy path and diagnostics of the pair's own
    dp_solve, and its rollout chunks count the same successes on the same
    streams in model and in joint mode. The pairs hold nested masks of one
    robot, other robots' masks and, in about half the draws, a union that
    holds every target."""
    gm, model = grid
    fld = exact_contamination_field(gm, model, horizon)
    targets = data.draw(st.lists(st.sampled_from(gm.cells), unique=True, min_size=1, max_size=4))
    starts = data.draw(st.lists(st.sampled_from(gm.cells), min_size=1, max_size=3))
    if data.draw(st.booleans(), label="start on a target"):
        starts[-1] = data.draw(st.sampled_from(targets))
    if data.draw(st.booleans(), label="deterministic"):
        kernel = MotionKernel.deterministic(gm)
    else:
        kernel = random_tabular_kernel(np.random.default_rng(data.draw(st.integers(0, 2**32))), gm)
    cache = ObjectiveCache(gm, kernel, fld, starts, targets, horizon)
    full = (1 << len(targets)) - 1
    masks = st.integers(0, full)
    inner = data.draw(masks, label="inner")
    pairs = [(0, inner), (0, inner | data.draw(masks, label="outer"))]
    pairs += data.draw(st.lists(st.tuples(st.integers(0, len(starts) - 1), masks), max_size=3))
    if data.draw(st.booleans(), label="union of every target"):
        pairs.append((len(starts) - 1, full ^ inner))
    plans = cache.plans(pairs)
    assert cache.policy_runs == 1
    assert all(got.policy is plans[0].policy for got in plans)
    fired = planner._joint_trajectories(hazard._dynamics(gm, model), horizon, 11, 1, 40)

    def bits(v):
        return np.float64(v).view(np.int64)

    for (r, mask), got in zip(pairs, plans):
        want = dp_solve(cache.query(r, mask))
        assert bits(got.success) == bits(want.success)
        assert got.greedy_path() == want.greedy_path()
        assert got.diagnostics == want.diagnostics
        for ci in range(2):
            assert (_rollout_chunk(got, None, chunk_rng(ci), 40)
                    == _rollout_chunk(want, None, chunk_rng(ci), 40))
        assert (_rollout_chunk(got, fired, chunk_rng(1), 40)
                == _rollout_chunk(want, fired, chunk_rng(1), 40))
        assert cache.solve(r, mask) is got
    assert cache.policy_runs == 1


@settings(max_examples=200, deadline=None)
@given(hazard_grids(), st.integers(1, 6), st.data())
def test_model_rollout_of_deterministic_motion_equals_oracle(grid, horizon, data):
    """With deterministic motion a model-mode chunk prices the plan's one
    walk. Its count is == the oracle's trial-by-trial walk on the same
    stream, for the cache's plan and for the subset's own dp_solve, on the
    exact field or on random probabilities. Their risk varies from step to
    step, so plans that wait are common; cubed, most of it is low, so trials
    live long enough for a step priced at the wrong time to change a count.
    About 30% of the random entries are exactly 0, so walks cross steps that
    the chunk skips without drawing, while the oracle draws at every step."""
    gm, model = grid
    fld = exact_contamination_field(gm, model, horizon)
    if data.draw(st.booleans(), label="random field"):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        u = rng.random(fld.prob.shape)
        fld = replace(fld, prob=np.where(u < 0.3, 0.0, u ** 3))
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
