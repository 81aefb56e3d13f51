import numpy as np
import pytest

from hazardplan.allocation import (
    brute_force_optimal,
    forward_greedy,
    group_success,
    reverse_greedy,
)
from hazardplan import guarantees
from hazardplan.errors import (
    CapExceededError,
    InsufficientObservationsError,
    ValidationError,
    VacuousBoundError,
)
from hazardplan.guarantees import (
    combine_ratio_reports,
    exact_ratios,
    exact_ratios_from_values,
    greedy_ratios,
    guarantee_values,
    region_map,
    theorem_bounds,
)

import oracles
from oracles import ground_value, strict_decrease_violations
from conftest import TableSource, random_monotone_tables, random_strict_tables


def submasks(b_mask):
    """Every submask of b_mask, largest first."""
    sub = b_mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & b_mask


def assert_witness(F, witness, ratio, extreme, candidate):
    """The witness rule the canonical reports hash: e is outside B, A is a
    subset of B, the clamped candidate at (A, B, e) is the reported ratio bit
    for bit, and A is the largest submask of B whose marginal is the extreme
    of the marginals over B's submasks."""
    a_mask, b_mask, e = witness
    bit = 1 << e
    assert not b_mask & bit and a_mask & ~b_mask == 0
    rho = {s: F[s | bit] - F[s] for s in submasks(b_mask)}
    assert min(1.0, max(0.0, candidate(rho[a_mask], rho[b_mask]))) == ratio
    target = extreme(rho.values())
    assert a_mask == next(s for s in submasks(b_mask) if rho[s] == target)


def test_exact_ratios_match_naive_enumeration():
    rng = np.random.default_rng(80)
    draws = (  # uniform, and two tie-heavy kinds
        lambda size: rng.random(size),
        lambda size: np.round(rng.random(size), 1),
        lambda size: rng.choice([0.0, 0.5, 1.0], size),
    )
    for n in (2, 3, 4, 5):
        for draw in draws:
            for _ in range(15):
                values = draw(1 << n)
                rep = exact_ratios_from_values(values, n)
                a, g, sa, sg = oracles.naive_ratios(values, n)
                assert rep.alpha == pytest.approx(a, abs=1e-12)
                assert rep.gamma == pytest.approx(g, abs=1e-12)
                assert rep.skipped_alpha == sa
                assert rep.skipped_gamma == sg
                if rep.alpha_witness is None:
                    assert rep.alpha == 0.0
                else:
                    assert_witness(values, rep.alpha_witness, rep.alpha, max,
                                   lambda rho_a, rho_b: 1.0 - rho_a / rho_b)
                if rep.gamma_witness is None:
                    assert rep.gamma == 1.0
                else:
                    assert_witness(values, rep.gamma_witness, rep.gamma, min,
                                   lambda rho_a, rho_b: rho_b / rho_a)


def test_exact_ratios_match_naive_on_group_objectives():
    rng = np.random.default_rng(81)
    for _ in range(15):
        src = random_monotone_tables(rng, 2, 2, zero_prob=0.15)
        values = [ground_value(src, m) for m in range(1 << 4)]
        rep = exact_ratios(src)
        a, g, sa, sg = oracles.naive_ratios(values, 4)
        assert rep.alpha == pytest.approx(a, abs=1e-12)
        assert rep.gamma == pytest.approx(g, abs=1e-12)
        assert (rep.skipped_alpha, rep.skipped_gamma) == (sa, sg)


def test_ratio_certificate_invariant():
    # the reported scalars must satisfy their defining inequalities on every
    # chain with a usable denominator
    rng = np.random.default_rng(82)
    for _ in range(10):
        n = 4
        values = np.minimum.accumulate(rng.random(1 << n))  # arbitrary table
        rep = exact_ratios_from_values(values, n)
        F = values
        for e in range(n):
            bit = 1 << e
            for b_mask in range(1 << n):
                if b_mask & bit:
                    continue
                rho_b = F[b_mask | bit] - F[b_mask]
                sub = b_mask
                while True:
                    rho_a = F[sub | bit] - F[sub]
                    if rho_b < 0.0:
                        assert (1.0 - rep.alpha) * rho_b >= rho_a - 1e-10
                        if rho_a < 0.0:
                            assert rep.gamma * rho_a >= rho_b - 1e-10
                    if sub == 0:
                        break
                    sub = (sub - 1) & b_mask


def test_modular_table_has_zero_curvature_full_ratio():
    weights = [0.1, 0.2, 0.15]
    table = {
        m: 1.0 - sum(weights[b] for b in range(3) if m >> b & 1) for m in range(8)
    }
    src = TableSource([table])
    rep = exact_ratios(src)
    assert rep.alpha == pytest.approx(0.0, abs=1e-12)
    assert rep.gamma == pytest.approx(1.0, abs=1e-12)
    _, trace = forward_greedy(src)
    grep = greedy_ratios(trace)
    assert grep.alpha == pytest.approx(0.0, abs=1e-12)
    assert grep.gamma == pytest.approx(1.0, abs=1e-12)
    assert grep.observations > 0


def test_single_pair_ground_set_is_trivially_tight():
    src = TableSource([{0: 0.9, 1: 0.4}])
    rep = exact_ratios(src)
    assert rep.alpha == 0.0
    assert rep.gamma == 1.0


def test_exact_ratios_validation_and_cap(monkeypatch):
    with pytest.raises(ValidationError):
        exact_ratios_from_values([1.0], 0)
    with pytest.raises(ValidationError):
        exact_ratios_from_values([1.0, 0.5, 0.2], 2)
    # a NaN must not read as alpha = 0 and gamma = 1 with no skipped triple
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="finite"):
            exact_ratios_from_values([1.0, bad, 0.5, 0.2], 2)
    monkeypatch.setattr(guarantees, "RATIO_ENUM_CAP", 100)
    with pytest.raises(CapExceededError):
        exact_ratios_from_values(np.ones(1 << 10), 10)
    src = TableSource([{0: 1.0, 1: 0.5}])
    monkeypatch.setattr(guarantees, "RATIO_ENUM_CAP", 1)
    with pytest.raises(CapExceededError):
        exact_ratios(src)


def test_feasible_only_ratios_never_looser():
    rng = np.random.default_rng(83)
    for _ in range(10):
        src = random_monotone_tables(rng, 2, 2)
        full = exact_ratios(src)
        feas = oracles.exact_ratios_feasible(src)
        assert feas.kind == "exact-feasible"
        assert feas.alpha <= full.alpha + 1e-12
        assert feas.gamma >= full.gamma - 1e-12


def test_greedy_ratios_bounded_by_exact():
    rng = np.random.default_rng(84)
    for _ in range(25):
        src = random_monotone_tables(rng, 2, 3)
        exact = exact_ratios(src)
        _, tf = forward_greedy(src)
        _, tr = reverse_greedy(src)
        reports = [greedy_ratios(tf), greedy_ratios(tr)]
        pooled = combine_ratio_reports(reports)
        assert pooled.alpha <= exact.alpha + 1e-12
        assert pooled.gamma >= exact.gamma - 1e-12
        assert pooled.observations == sum(r.observations for r in reports)


def test_greedy_ratios_need_nested_observations():
    src = TableSource([{0: 0.9, 1: 0.4}, {0: 0.8, 1: 0.5}])
    _, trace = forward_greedy(src)  # single task, single round
    with pytest.raises(InsufficientObservationsError):
        greedy_ratios(trace)


def test_combine_ratio_reports_requires_input():
    with pytest.raises(ValidationError):
        combine_ratio_reports([])


def test_guarantee_values_coincide_at_ideal_corner():
    g_fwd, g_rev = guarantee_values(0.73, 0.0, 1.0)
    assert g_fwd == pytest.approx(0.73, abs=1e-15)
    assert g_rev == pytest.approx(0.73, abs=1e-15)


def test_guarantee_values_vacuous_and_invalid():
    with pytest.raises(VacuousBoundError):
        guarantee_values(0.5, 1.0, 0.5)
    with pytest.raises(VacuousBoundError):
        guarantee_values(0.5, 0.2, 0.0)
    with pytest.raises(ValidationError):
        guarantee_values(0.5, -0.1, 0.5)
    with pytest.raises(ValidationError):
        guarantee_values(0.5, 0.1, 1.5)


def test_theorem_bounds_refuses_vacuous_ratios():
    with pytest.raises(VacuousBoundError):
        theorem_bounds(0.9, 0.1, 0.5, 0.4, 0.3, alpha=1.0, gamma=0.5)
    with pytest.raises(VacuousBoundError):
        theorem_bounds(0.9, 0.1, 0.5, 0.4, 0.3, alpha=0.3, gamma=0.0)


def test_theorem_bounds_crafted_numbers():
    # alpha 0.5, gamma 0.5: c = 0.25
    rep = theorem_bounds(
        f_empty=1.0, f_full=0.1, f_star=0.6, f_forward=0.5, f_reverse=0.4,
        alpha=0.5, gamma=0.5,
    )
    assert rep.forward_lhs == pytest.approx(0.25 * (0.5 - 1.0))
    assert rep.forward_rhs == pytest.approx(0.6 - 1.0)
    assert rep.forward_ok is True
    assert rep.reverse_lhs == pytest.approx(0.5 * (0.6 - 0.1))
    assert rep.reverse_rhs == pytest.approx(1.25 * (0.4 - 0.1))
    assert rep.reverse_ok is True
    assert rep.g_forward == pytest.approx(0.6 / 0.25 - 3.0)
    assert rep.g_reverse == pytest.approx(0.6 * 0.5 / 1.25)
    # a forward value low enough to violate the inequality
    bad = theorem_bounds(
        f_empty=1.0, f_full=0.1, f_star=0.99, f_forward=0.2, f_reverse=0.11,
        alpha=0.5, gamma=0.5,
    )
    assert bad.forward_ok is False
    assert bad.reverse_ok is False
    # without an optimum only the report skeleton is filled
    bare = theorem_bounds(0.9, 0.1, None, 0.4, 0.3, alpha=0.5, gamma=0.5)
    assert bare.forward_ok is None and bare.g_forward is None


def test_theorems_hold_with_exact_ratios_random_sweep():
    # The suboptimality guarantees assume every task addition strictly
    # lowers the success product, so the sweep draws strictly decreasing
    # positive tables.  In that regime no ratio triple is degenerate and
    # both bounds must hold on every instance.
    rng = np.random.default_rng(85)
    for _ in range(25):
        n_r = int(rng.integers(2, 4))
        n_t = int(rng.integers(1, 3))
        src = random_strict_tables(rng, n_r, n_t)
        rep = exact_ratios(src)
        assert rep.skipped_alpha == 0 and rep.skipped_gamma == 0
        assert 0.0 <= rep.alpha < 1.0
        assert 0.0 < rep.gamma <= 1.0
        fwd, _ = forward_greedy(src)
        rev, _ = reverse_greedy(src)
        _, f_star = brute_force_optimal(src)
        f_fwd = group_success(src, fwd)
        f_rev = group_success(src, rev)
        assert f_fwd <= f_star + 1e-12
        assert f_rev <= f_star + 1e-12
        f_empty = group_success(src, (0,) * n_r)
        f_full = group_success(src, ((1 << n_t) - 1,) * n_r)
        bounds = theorem_bounds(
            f_empty, f_full, f_star, f_fwd, f_rev, rep.alpha, rep.gamma, rep.kind
        )
        assert bounds.forward_ok is True
        assert bounds.reverse_ok is True


def test_tied_tables_are_flagged_not_certified():
    # With an exact tie (adding task 0 on top of task 1 changes nothing for
    # robot 0) the ratio definitions degenerate: the tied triples are
    # reported via the skip counters instead of silently tightening gamma.
    # Such instances sit outside the regime of the suboptimality theorems,
    # which is why the sweep above insists on strict decrease.
    src = TableSource([
        {0: 0.871846, 1: 0.667003, 2: 0.846457, 3: 0.667003},
        {0: 0.05, 1: 0.047362, 2: 0.047362, 3: 0.047362},
    ])
    rep = exact_ratios(src)
    assert rep.skipped_gamma > 0


def test_region_map_even_split_marks_nothing():
    region = region_map(0.5, resolution=40)
    assert not region.forward_better.any()
    assert region.forward_floor.shape == (40, 40)
    # the floors coincide exactly at the ideal corner
    fwd_corner = region.forward_floor[-1, 0]
    rev_corner = region.reverse_floor[-1, 0]
    assert region.alphas[0] == 0.0 and region.gammas[-1] == 1.0
    assert fwd_corner == pytest.approx(0.5, abs=1e-12)
    assert rev_corner == pytest.approx(0.5, abs=1e-12)


def test_region_map_high_optimum_favors_forward_somewhere():
    region = region_map(0.95, resolution=30)
    assert region.forward_better.any()
    assert not region.forward_better.all()
    # spot check one grid point against the closed forms
    i, j = 20, 3
    a, g = region.alphas[j], region.gammas[i]
    c = g * (1 - a)
    assert region.forward_floor[i, j] == pytest.approx(0.95 / c + (c - 1) / c)
    assert region.reverse_floor[i, j] == pytest.approx(0.95 * g / (1 + g * a))


def test_region_map_validation():
    with pytest.raises(ValidationError):
        region_map(0.5, resolution=1)
    with pytest.raises(ValidationError):
        region_map(1.5)
    # refused before the grid is allocated
    with pytest.raises(CapExceededError, match="region resolution"):
        region_map(0.5, resolution=guarantees.REGION_RESOLUTION_CAP + 1)


def test_strict_decrease_violations_flags_ties():
    src = TableSource([{0: 0.9, 1: 0.9, 2: 0.5, 3: 0.5}])
    _, trace = forward_greedy(src)
    bad = strict_decrease_violations(trace)
    assert bad  # assigning task 0 changes nothing
    src2 = TableSource([{0: 0.9, 1: 0.6, 2: 0.5, 3: 0.3}])
    _, trace2 = forward_greedy(src2)
    assert strict_decrease_violations(trace2) == []


def test_ratio_report_to_dict():
    src = TableSource([{0: 0.9, 1: 0.4}])
    rep = exact_ratios(src)
    d = rep.to_dict()
    assert d["kind"] == "exact"
    assert d["alpha"] == rep.alpha
    assert d["n_elements"] == 1
