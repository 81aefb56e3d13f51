"""Acceptance sweep: the eight end-to-end promises this package makes, each
checked at its stated scale and tolerance. Every test prints one verdict
line; run `pytest tests/test_acceptance.py -v` to see them all listed."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hazardplan import guarantees
from hazardplan.grid import MotionKernel
from hazardplan.guarantees import exact_ratios, guarantee_values, region_map
from hazardplan.hazard import estimate_contamination_field, exact_contamination_field
from hazardplan.planner import PlanQuery, dp_solve, rollout
from hazardplan.report import PipelineOptions, run_pipeline
from hazardplan.scenario import load_scenario, parse_scenario

import oracles
from conftest import random_cache, random_gridmap, random_hazard, random_plan_setup

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def plan_query(gm, fld, start, targets, horizon):
    return PlanQuery(gridmap=gm, kernel=MotionKernel.deterministic(gm), field=fld,
                     start=start, targets=tuple(targets), horizon=horizon)


def test_criterion_1_dp_matches_exhaustive_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        gm, _, horizon, fld, start, targets = random_plan_setup(
            rng, max_cells=9, max_horizon=5, max_targets=2)
        q = plan_query(gm, fld, start, targets, horizon)
        got = dp_solve(q).success
        want = oracles.best_open_loop_success(q)
        worst = max(worst, abs(got - want))
    verdict(1, "dp equals trajectory enumeration", worst < 1e-10,
            f"50 instances, max |diff| = {worst:.2e}, {time.time()-t0:.1f}s")


def test_criterion_2_monte_carlo_field_matches_exact():
    rng = np.random.default_rng(1002)
    samples = 100_000
    tol = 3.0 * np.sqrt(0.25 / samples)
    t0 = time.time()
    entries = 0
    exceed = 0
    for i in range(8):
        gm = random_gridmap(rng, max_cells=8)
        model = random_hazard(rng, gm)
        # one field per kind at horizon 4; rows 2 and 4 are the heat at those steps
        exact = exact_contamination_field(gm, model, 4).marginals
        est = estimate_contamination_field(gm, model, 4, samples=samples,
                                           seed=1002 + i).marginals
        for horizon in (2, 4):
            entries += exact[horizon].size
            exceed += int((np.abs(est[horizon] - exact[horizon]) > tol).sum())
    frac = exceed / entries
    verdict(2, "sampled contamination within 3-sigma of exact", frac < 0.01,
            f"{entries} entries at M={samples}, tol={tol:.2e}, "
            f"exceedances={exceed} ({frac:.2%}), {time.time()-t0:.1f}s")


def test_criterion_3_success_monotone_under_task_load():
    rng = np.random.default_rng(1003)
    t0 = time.time()
    robot_pairs = 0
    group_pairs = 0
    violations = 0
    while robot_pairs < 200 or group_pairs < 200:
        cache = random_cache(rng, n_robots=2, n_tasks=int(rng.integers(2, 4)))
        n_t, n_r = cache.n_tasks, cache.n_robots
        full = (1 << n_t) - 1
        for r in range(n_r):
            for small in range(full + 1):
                big = small
                while True:
                    big = (big + 1) | small
                    if big > full:
                        break
                    if cache.value(r, big) > cache.value(r, small) + 1e-12:
                        violations += 1
                    robot_pairs += 1
        for _ in range(12):
            masks = [int(rng.integers(0, full + 1)) for _ in range(n_r)]
            base = float(np.prod([cache.value(r, m) for r, m in enumerate(masks)]))
            r = int(rng.integers(n_r))
            t = int(rng.integers(n_t))
            grown = list(masks)
            grown[r] |= 1 << t
            after = float(np.prod([cache.value(i, m) for i, m in enumerate(grown)]))
            if after > base + 1e-12:
                violations += 1
            group_pairs += 1
    verdict(3, "values nonincreasing under inclusion", violations == 0,
            f"{robot_pairs} robot pairs + {group_pairs} group pairs, "
            f"{violations} violations, {time.time()-t0:.1f}s")


def comb_scenario(n_robots, theta, horizon, beta_col):
    # three dead-end teeth keep every target visit strictly costly, which is
    # the regime both greedy guarantees are stated in
    robots = [{"name": "alpha", "start": [0, 0]},
              {"name": "beta", "start": [int(beta_col), 0]},
              {"name": "gamma", "start": [3, 0]}][:n_robots]
    return parse_scenario({
        "grid": {"width": 5, "height": 3,
                 "obstacles": [[1, 1], [1, 2], [3, 1], [3, 2]]},
        "goal": [4, 0],
        "horizon": int(horizon),
        "robots": robots,
        "targets": [{"name": "west", "cell": [0, 2]},
                    {"name": "mid", "cell": [2, 2]}],
        "hazards": [{"label": "fire", "cells": [[4, 2]], "theta": float(theta)}],
    })


def test_criterion_4_theorem_bounds_hold_end_to_end():
    rng = np.random.default_rng(1004)
    opts = PipelineOptions(field_kind="exact", ratio_source="exact")
    t0 = time.time()
    accepted = 0
    attempts = 0
    while accepted < 20 and attempts < 60:
        attempts += 1
        n_robots = 2 if attempts % 2 else 3
        sc = comb_scenario(
            n_robots,
            theta=rng.uniform(0.1, 0.45),
            horizon=rng.integers(15, 19) if n_robots == 3 else rng.integers(14, 18),
            beta_col=rng.choice([1, 2]),
        )
        rep = run_pipeline(sc, opts).report
        ex = rep["ratios"]["exact"]
        if (ex["skipped_alpha"] or ex["skipped_gamma"]
                or ex["alpha"] >= 1.0 or ex["gamma"] <= 0.0):
            continue
        g = rep["guarantees"]
        f_star = rep["methods"]["brute"]["objective"]
        assert g["forward_ok"] is True and g["reverse_ok"] is True
        assert rep["methods"]["forward"]["objective"] <= f_star + 1e-12
        assert rep["methods"]["reverse"]["objective"] <= f_star + 1e-12
        accepted += 1
    verdict(4, "both guarantee inequalities on planner-backed instances",
            accepted >= 20,
            f"{accepted} strict-regime instances in {attempts} attempts, "
            f"{time.time()-t0:.1f}s")


def test_criterion_5_floor_formulas_and_low_optimum_region():
    t0 = time.time()
    coincide = all(
        abs(g - f) <= 1e-12
        for f in (0.1, 0.5, 0.9)
        for g in guarantee_values(f, 0.0, 1.0)
    )
    rm = region_map(0.5, 100)
    gap = float((rm.forward_floor - rm.reverse_floor).max())
    empty = not rm.forward_better.any()
    above = region_map(0.55, 100).forward_better.any()
    verdict(5, "floors meet at (0,1); reverse dominates at F*=0.5",
            coincide and empty and gap <= 1e-12 and bool(above),
            f"max(forward-reverse) = {gap:.2e} over 100x100, "
            f"F*=0.55 flips somewhere: {bool(above)}, {time.time()-t0:.2f}s")


def test_criterion_6_paper_scale_run_reproduces_qualitative_findings(monkeypatch):
    # The curvature is read from the exact ratio scan over the 15 task-robot
    # pairs, with the cap raised to exactly its 3^15 * 15 triples, as in
    # test_paper_scenario_theorems_under_exact_ratios. The greedy estimate
    # alpha_g is a one-sided observation that straddles 0.8 from seed to
    # seed (16 of seeds 0-19 above it), while the exact alpha stayed in
    # 0.885-0.907; alpha_g is still held inside (0, 1).
    monkeypatch.setattr(guarantees, "RATIO_ENUM_CAP", 3**15 * 15)
    sc = load_scenario(SCENARIOS / "paper17x13.json")
    t0 = time.time()
    result = run_pipeline(sc, PipelineOptions(
        samples=sc.mc_samples, seed=sc.mc_seed,
        methods=("forward", "reverse"), ratio_source="greedy"))
    exact = exact_ratios(result.cache)
    elapsed = time.time() - t0
    rep = result.report

    full = (1 << sc.n_tasks) - 1
    parts_ok = True
    probs_ok = True
    for name in ("forward", "reverse"):
        masks = rep["methods"][name]["masks"]
        union = 0
        bits = 0
        for m in masks:
            union |= m
            bits += bin(m).count("1")
        parts_ok = parts_ok and union == full and bits == sc.n_tasks
        probs_ok = probs_ok and all(
            0.0 < p < 1.0 for p in rep["methods"][name]["per_robot"])
    solves_fwd = rep["methods"]["forward"]["plan_solves"]
    solves_rev = rep["methods"]["reverse"]["plan_solves"]
    comb = rep["ratios"]["combined"]
    ok = (parts_ok and probs_ok and solves_rev > solves_fwd
          and exact.alpha > 0.8 and 0.0 < comb["alpha"] < 1.0
          and 0.0 < comb["gamma"] < 1.0 and elapsed < 1800.0)
    verdict(6, "17x13 mission qualitative findings", ok,
            f"partitions={parts_ok}, probs in (0,1)={probs_ok}, "
            f"plan solves reverse {solves_rev} > forward {solves_fwd}, "
            f"exact alpha={exact.alpha:.4f} > 0.8, "
            f"greedy alpha={comb['alpha']:.4f} and gamma={comb['gamma']:.4f} in (0,1), "
            f"{elapsed:.1f}s")


def test_criterion_7_rollouts_match_planned_success():
    rng = np.random.default_rng(1007)
    trials = 100_000
    t0 = time.time()
    done = 0
    attempts = 0
    worst = 0.0
    while done < 10 and attempts < 200:
        attempts += 1
        gm, _, horizon, fld, start, targets = random_plan_setup(rng, max_horizon=5)
        res = dp_solve(plan_query(gm, fld, start, targets, horizon))
        p = res.success
        if not 0.01 < p < 0.99:
            continue
        rr = rollout(res, trials=trials, seed=1007 + attempts)
        band = 3.0 * np.sqrt(p * (1.0 - p) / trials)
        worst = max(worst, abs(rr.rate - p) / band)
        done += 1
    verdict(7, "policy rollouts inside the 3-sigma band", done >= 10 and worst <= 1.0,
            f"{done} instances at {trials} trials, worst |dev|/band = {worst:.2f}, "
            f"{time.time()-t0:.1f}s")


def test_criterion_8_reports_identical_across_interpreters():
    """small.json's Monte-Carlo report, run in two fresh interpreters whose
    string hashes are seeded differently, has the same canonical bytes: no
    set or dict order, and no state left by an earlier run, reaches it."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from hazardplan.report import PipelineOptions, canonical_report_json, run_pipeline\n"
        "from hazardplan.scenario import load_scenario\n"
        "sc = load_scenario('scenarios/small.json')\n"
        "rep = run_pipeline(sc, PipelineOptions(samples=sc.mc_samples, seed=sc.mc_seed,\n"
        "                   ratio_source='auto', rollout_trials=300)).report\n"
        "sys.stdout.buffer.write(canonical_report_json(rep).encode())\n"
    )
    t0 = time.time()
    texts = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        texts.append(done.stdout)
    verdict(8, "byte-identical reports at PYTHONHASHSEED 1 and 2",
            bool(texts[0]) and texts[0] == texts[1],
            f"{len(texts[0])} canonical bytes compared, {time.time()-t0:.1f}s")


def test_shipped_small_scenario_theorems_end_to_end():
    # the distributed small mission runs all three allocators under the exact
    # field; exact ratios must certify both guarantee inequalities on it
    sc = load_scenario(SCENARIOS / "small.json")
    rep = run_pipeline(sc, PipelineOptions(
        field_kind="exact", ratio_source="exact")).report
    g = rep["guarantees"]
    f_star = rep["methods"]["brute"]["objective"]
    assert g["forward_ok"] is True and g["reverse_ok"] is True
    assert 0.0 < rep["methods"]["forward"]["objective"] <= f_star + 1e-12
    assert 0.0 < rep["methods"]["reverse"]["objective"] <= f_star + 1e-12
    assert f_star <= 1.0
    assert 0.0 < g["alpha"] < 1.0 and 0.0 < g["gamma"] < 1.0
    assert g["g_reverse"] <= rep["methods"]["reverse"]["objective"] + 1e-12


def test_paper_scenario_theorems_under_exact_ratios(monkeypatch):
    # paper17x13 has 5 tasks x 3 robots = 15 pairs. The cap admits n <= 12,
    # so it is raised to exactly the 3^15 * 15 triples of this run. A
    # 1,000-sample field at seed 0 keeps the run near 0.2 s. On it no pair's
    # marginal is 0, so no triple is skipped and run_pipeline itself would
    # raise on a failed check.
    monkeypatch.setattr(guarantees, "RATIO_ENUM_CAP", 3**15 * 15)
    sc = load_scenario(SCENARIOS / "paper17x13.json")
    rep = run_pipeline(sc, PipelineOptions(samples=1000, seed=0, ratio_source="exact")).report
    ratios, g = rep["ratios"]["exact"], rep["guarantees"]
    assert ratios["n_elements"] == 15
    assert ratios["skipped_alpha"] == 0 and ratios["skipped_gamma"] == 0
    assert g["ratio_kind"] == "exact"
    assert g["forward_ok"] is True and g["reverse_ok"] is True
    assert 0.0 < g["alpha"] < 1.0 and 0.0 < g["gamma"] < 1.0
