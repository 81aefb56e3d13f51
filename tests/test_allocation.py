from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazardplan.allocation import (
    Bid,
    auction_round,
    brute_force_optimal,
    forward_greedy,
    group_success,
    is_partition,
    pair_bit,
    reverse_greedy,
)
from hazardplan.errors import CapExceededError, ValidationError
from hazardplan.planner import ObjectiveCache
from hazardplan.report import PipelineOptions, build_field
from hazardplan.scenario import load_scenario

import oracles
from oracles import ground_extension, ground_masks, ground_value
from conftest import TableSource, random_cache, random_monotone_tables


def test_pair_bit_layout_roundtrip():
    n_r, n_t = 3, 4
    seen = set()
    for t in range(n_t):
        for r in range(n_r):
            b = pair_bit(t, r, n_r)
            assert b == t * n_r + r
            seen.add(b)
    assert seen == set(range(n_r * n_t))
    wmask = (1 << pair_bit(0, 1, n_r)) | (1 << pair_bit(2, 1, n_r)) | (1 << pair_bit(3, 0, n_r))
    assert ground_masks(wmask, n_r, n_t) == (0b1000, 0b0101, 0)


def test_ground_value_and_extension_agree():
    src = TableSource([
        {0: 0.9, 1: 0.5, 2: 0.7, 3: 0.3},
        {0: 0.8, 1: 0.6, 2: 0.4, 3: 0.2},
    ])
    pairs = [(0, 0), (1, 1)]
    wmask = (1 << pair_bit(0, 0, 2)) | (1 << pair_bit(1, 1, 2))
    assert ground_extension(src, pairs) == pytest.approx(0.5 * 0.4)
    assert ground_value(src, wmask) == pytest.approx(0.5 * 0.4)
    with pytest.raises(ValidationError):
        ground_extension(src, [(5, 0)])
    with pytest.raises(ValidationError):
        ground_extension(src, [(0, 5)])


def test_ground_value_monotone_under_pair_addition():
    rng = np.random.default_rng(60)
    checked = 0
    while checked < 200:
        src = random_monotone_tables(rng, 2, 2)
        n = src.n_robots * src.n_tasks
        wmask = int(rng.integers(0, 1 << n))
        free = [b for b in range(n) if not wmask >> b & 1]
        if not free:
            continue
        extra = int(rng.choice(free))
        assert ground_value(src, wmask | (1 << extra)) <= ground_value(src, wmask) + 1e-12
        checked += 1


def test_group_success_and_partition_checks():
    src = TableSource([
        {0: 0.9, 1: 0.5, 2: 0.7, 3: 0.3},
        {0: 0.8, 1: 0.6, 2: 0.4, 3: 0.2},
    ])
    assert group_success(src, (1, 2)) == pytest.approx(0.5 * 0.4)
    with pytest.raises(ValidationError):
        group_success(src, (1,))
    assert is_partition((1, 2), 2)
    assert not is_partition((1, 1), 2)
    assert not is_partition((1, 0), 2)


def test_auction_round_prefers_reviving_a_zero():
    f_values = {0: 0.0, 1: 0.4}
    bids = [Bid(robot=0, task=0, delta=0.2), Bid(robot=1, task=1, delta=0.5)]
    assert auction_round(bids, f_values) == 0


def test_auction_round_ties_to_smallest_robot():
    f_values = {0: 0.8, 1: 0.8}
    bids = [Bid(robot=1, task=0, delta=-0.3), Bid(robot=0, task=0, delta=-0.3)]
    assert auction_round(bids, f_values) == 0
    with pytest.raises(ValidationError):
        auction_round([], f_values)
    with pytest.raises(ValidationError):
        auction_round([Bid(robot=5, task=0, delta=0.0)], f_values)


def test_forward_greedy_hand_example():
    # robot 0 is better at task 0, robot 1 at task 1; greedy splits them
    src = TableSource([
        {0: 0.9, 1: 0.8, 2: 0.5, 3: 0.4},
        {0: 0.9, 1: 0.5, 2: 0.8, 3: 0.4},
    ])
    masks, trace = forward_greedy(src)
    assert masks == (1, 2)
    assert group_success(src, masks) == pytest.approx(0.64)
    assert len(trace.iterations) == 2
    assert all(rec.task_closed for rec in trace.iterations)
    assert trace.allocation == masks
    assert is_partition(masks, 2)


def test_forward_greedy_task_tie_breaks_low():
    src = TableSource([{0: 0.9, 1: 0.6, 2: 0.6, 3: 0.4}])
    masks, trace = forward_greedy(src)
    assert trace.iterations[0].winning_task == 0
    assert masks == (3,)


def test_forward_greedy_deltas_nonpositive_and_products_consistent():
    rng = np.random.default_rng(61)
    for _ in range(40):
        src = random_monotone_tables(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        masks, trace = forward_greedy(src)
        assert is_partition(masks, src.n_tasks)
        active = [r for r in range(src.n_robots) if r not in trace.excluded]
        for rec in trace.iterations:
            win_bid = [b for b in rec.bids if b.robot == rec.winner][0]
            assert win_bid.delta <= 1e-12
            prod = 1.0
            for r in active:
                prod *= rec.f_after[r]
            assert rec.objective_after == pytest.approx(prod, abs=1e-12)
            # the f ledger advances by exactly the winning delta
            assert rec.f_after[rec.winner] == pytest.approx(
                rec.f_before[rec.winner] + win_bid.delta, abs=1e-12
            )
            for r in range(src.n_robots):
                if r != rec.winner:
                    assert rec.f_after[r] == rec.f_before[r]
        # and the ledger f values equal fresh lookups at the final masks
        for r in active:
            assert trace.iterations[-1].f_after[r] == pytest.approx(
                src.value(r, masks[r]), abs=1e-12
            )


def test_forward_greedy_bid_reuse():
    rng = np.random.default_rng(62)
    for _ in range(25):
        n_r, n_t = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        src = random_monotone_tables(rng, n_r, n_t)
        _, trace = forward_greedy(src)
        active = [r for r in range(n_r) if r not in trace.excluded]
        for i, rec in enumerate(trace.iterations):
            assert set(rec.recomputed) == set(rec.evaluations)
            open_now = set(rec.open_tasks)
            for r, evals in rec.evaluations.items():
                assert {t for t, _ in evals} == open_now
            if i == 0:
                assert set(rec.recomputed) == set(active)
            else:
                prev = trace.iterations[i - 1]
                stale = {b.robot for b in prev.bids if b.task == prev.winning_task}
                assert set(rec.recomputed) == stale
        # total fresh evaluations never exceed the per-round budget
        total = sum(len(e) for rec in trace.iterations for e in rec.evaluations.values())
        budget = sum(len(rec.recomputed) * len(rec.open_tasks) for rec in trace.iterations)
        assert total == budget
        assert budget <= len(active) * n_t + sum(
            len(rec.recomputed) * len(rec.open_tasks) for rec in trace.iterations[1:]
        )


def test_forward_greedy_excludes_hopeless_robot():
    src = TableSource([
        {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0},
        {0: 0.9, 1: 0.7, 2: 0.6, 3: 0.4},
    ])
    masks, trace = forward_greedy(src)
    assert trace.excluded == (0,)
    assert masks[0] == 0
    assert masks[1] == 3
    assert any("excluded" in n for n in trace.notes)


def test_forward_greedy_all_hopeless_degenerates():
    src = TableSource([
        {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0},
        {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0},
    ])
    masks, trace = forward_greedy(src)
    assert masks == (3, 0)
    assert trace.degenerate
    assert is_partition(masks, 2)


def test_forward_greedy_no_tasks_degenerates():
    src = TableSource([{0: 0.9}, {0: 0.8}])
    masks, trace = forward_greedy(src)
    assert masks == (0, 0)
    assert trace.degenerate


def test_reverse_greedy_hand_example():
    src = TableSource([
        {0: 0.9, 1: 0.8, 2: 0.5, 3: 0.4},
        {0: 0.9, 1: 0.5, 2: 0.8, 3: 0.4},
    ])
    masks, trace = reverse_greedy(src)
    assert masks == (1, 2)
    assert is_partition(masks, 2)
    assert len(trace.iterations) == 2


def test_reverse_greedy_single_robot_degenerates():
    src = TableSource([{0: 0.9, 1: 0.8, 2: 0.5, 3: 0.4}])
    masks, trace = reverse_greedy(src)
    assert masks == (3,)
    assert trace.degenerate


def test_reverse_greedy_properties_random_sweep():
    rng = np.random.default_rng(63)
    for _ in range(40):
        n_r, n_t = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        src = random_monotone_tables(rng, n_r, n_t)
        masks, trace = reverse_greedy(src)
        assert is_partition(masks, n_t)
        assert len(trace.iterations) == n_t * (n_r - 1)
        for rec in trace.iterations:
            win_bid = [b for b in rec.bids if b.robot == rec.winner][0]
            assert win_bid.delta >= -1e-12
            assert rec.f_after[rec.winner] == pytest.approx(
                rec.f_before[rec.winner] + win_bid.delta, abs=1e-12
            )
            # removals only shed tasks the winner still holds
            lost = rec.masks_before[rec.winner] & ~rec.masks_after[rec.winner]
            assert lost == 1 << rec.winning_task
        closed = [rec.winning_task for rec in trace.iterations if rec.task_closed]
        assert sorted(closed) == sorted(set(closed))
        for r in range(n_r):
            assert trace.iterations[-1].f_after[r] == pytest.approx(
                src.value(r, masks[r]), abs=1e-12
            )


def test_reverse_greedy_closes_task_at_single_holder():
    rng = np.random.default_rng(64)
    for _ in range(20):
        src = random_monotone_tables(rng, 3, 2)
        _, trace = reverse_greedy(src)
        for rec in trace.iterations:
            holders = sum(
                1 for m in rec.masks_after if m >> rec.winning_task & 1
            )
            assert rec.task_closed == (holders == 1)
            if not rec.task_closed:
                assert rec.winning_task in rec.open_tasks


def test_greedy_never_beats_brute_force():
    rng = np.random.default_rng(65)
    for _ in range(40):
        n_r, n_t = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        src = random_monotone_tables(rng, n_r, n_t, zero_prob=0.1)
        fwd, _ = forward_greedy(src)
        rev, _ = reverse_greedy(src)
        _, best = brute_force_optimal(src)
        assert group_success(src, fwd) <= best + 1e-12
        assert group_success(src, rev) <= best + 1e-12


def test_brute_force_matches_oracle_and_caps():
    rng = np.random.default_rng(66)
    for _ in range(20):
        n_r, n_t = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        src = random_monotone_tables(rng, n_r, n_t)
        masks, best = brute_force_optimal(src)
        _, want = oracles.brute_force_partitions(src.value, n_r, n_t)
        assert best == pytest.approx(want, abs=1e-12)
        assert group_success(src, masks) == pytest.approx(best, abs=1e-12)
        assert is_partition(masks, n_t)
    src = random_monotone_tables(rng, 3, 3)
    with pytest.raises(CapExceededError):
        brute_force_optimal(src, cap=26)


def test_greedy_on_real_cache_consistency():
    rng = np.random.default_rng(67)
    done = 0
    while done < 5:
        cache = random_cache(rng, n_robots=2, n_tasks=2)
        if cache.value(0, 0) <= 0.0 or cache.value(1, 0) <= 0.0:
            continue
        fwd, tf = forward_greedy(cache)
        rev, tr = reverse_greedy(cache)
        _, best = brute_force_optimal(cache)
        assert group_success(cache, fwd) <= best + 1e-12
        assert group_success(cache, rev) <= best + 1e-12
        assert tf.plan_solves > 0
        assert cache.hit_count > 0
        done += 1


GREEDY_REFERENCES = (
    (forward_greedy, oracles.reference_forward_greedy),
    (reverse_greedy, oracles.reference_reverse_greedy),
)


@st.composite
def value_tables(draw):
    """1-3 robots, 0-4 tasks; values drawn from a few levels so ties are
    common, and some robots worthless on every set."""
    n_r = draw(st.integers(1, 3))
    n_t = draw(st.integers(0, 4))
    levels = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.8, 1.0]),
                           min_size=1, max_size=3))
    tables = []
    for _ in range(n_r):
        if draw(st.booleans()) and draw(st.booleans()):
            tables.append({m: 0.0 for m in range(1 << n_t)})
        else:
            values = draw(st.lists(st.sampled_from(levels), min_size=1 << n_t,
                                   max_size=1 << n_t))
            tables.append(dict(enumerate(values)))
    return tables


@settings(max_examples=300, deadline=None)
@given(value_tables())
def test_auction_loop_matches_reference_loops(tables):
    for engine, reference in GREEDY_REFERENCES:
        src, ref_src = TableSource(tables), TableSource(tables)
        assert engine(src) == reference(ref_src)
        assert src.solve_count == ref_src.solve_count


def test_auction_loop_matches_reference_loops_on_small_scenario():
    sc = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "small.json")
    fld = build_field(sc, PipelineOptions(field_kind="exact"))

    def cache():
        return ObjectiveCache(sc.gridmap, sc.kernel(), fld, sc.starts, sc.targets, sc.horizon)

    for engine, reference in GREEDY_REFERENCES:
        src, ref_src = cache(), cache()
        masks, trace = engine(src)
        assert (masks, trace) == reference(ref_src)
        assert trace.iterations
        assert (src.solve_count, src.hit_count) == (ref_src.solve_count, ref_src.hit_count)
