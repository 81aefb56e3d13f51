"""Pipeline reports: block structure, byte-level determinism, cached-field
validation, per-method error isolation, and the optional report attachments."""

import copy
import json

import numpy as np
import pytest

from hazardplan.errors import CapExceededError, ValidationError
from hazardplan import guarantees, hazard, planner, report
from hazardplan.hazard import ContaminationField, estimate_contamination_field
from hazardplan.report import (
    METHOD_ORDER,
    PipelineOptions,
    build_field,
    canonical_report_json,
    derive_seed,
    run_pipeline,
    strip_timing,
)
from hazardplan.scenario import parse_scenario, scenario_hash

import oracles


def unit_dict():
    # both targets are strict detours for both robots: the west cell sits
    # behind the fire, the pocket trades distance from it, so every exact
    # marginal is strictly negative and the ratios stay non-vacuous
    return {
        "version": 1,
        "name": "unit",
        "grid": {"width": 4, "height": 3, "obstacles": [[1, 1]]},
        "goal": [3, 0],
        "horizon": 12,
        "robots": [
            {"name": "alpha", "start": [0, 0]},
            {"name": "beta", "start": [1, 2]},
        ],
        "targets": [
            {"name": "west", "cell": [0, 2]},
            {"name": "pocket", "cell": [2, 1]},
        ],
        "hazards": [{"label": "fire", "cells": [[0, 1]], "theta": 0.25}],
        "motion": {"kind": "deterministic"},
        "monte_carlo": {"samples": 400, "seed": 11},
    }


def unit_scenario(**edits):
    data = unit_dict()
    data.update(edits)
    return parse_scenario(data)


def exact_options(**kw):
    base = dict(field_kind="exact", ratio_source="exact")
    base.update(kw)
    return PipelineOptions(**base)


def test_options_validation():
    with pytest.raises(ValidationError):
        PipelineOptions(samples=0)
    with pytest.raises(ValidationError):
        PipelineOptions(exact_cap=0)
    with pytest.raises(ValidationError):
        PipelineOptions(field_kind="sampled")
    with pytest.raises(ValidationError):
        PipelineOptions(rollout_mode="paths")
    with pytest.raises(ValidationError):
        PipelineOptions(ratio_source="estimated")
    with pytest.raises(ValidationError):
        PipelineOptions(methods=("forward", "anneal"))
    opts = PipelineOptions(methods=("brute", "forward"))
    assert opts.methods == ("forward", "brute")


def test_full_report_structure():
    sc = unit_scenario()
    res = run_pipeline(sc, exact_options())
    rep = res.report
    for key in ("scenario", "version", "determinism", "field", "baselines",
                "methods", "ratios", "guarantees", "cache"):
        assert key in rep, key
    assert rep["scenario"]["name"] == "unit"
    assert rep["scenario"]["hash"] == scenario_hash(sc)
    assert rep["scenario"]["grid"]["free_cells"] == sc.gridmap.n_free
    assert rep["field"]["kind"] == "exact"
    # the exact field drew no samples, whatever the options' sample count
    assert rep["determinism"]["samples"] == rep["field"]["samples"] == 0
    assert rep["baselines"]["f_empty"] >= rep["baselines"]["f_full"]
    for name in METHOD_ORDER:
        block = rep["methods"][name]
        for key in ("masks", "allocation", "objective", "plan_solves", "seconds"):
            assert key in block, (name, key)
        named = sorted(t for lst in block["allocation"].values() for t in lst)
        assert named == sorted(sc.target_names)
    assert rep["methods"]["brute"]["objective"] >= rep["methods"]["forward"]["objective"] - 1e-12
    assert rep["methods"]["brute"]["objective"] >= rep["methods"]["reverse"]["objective"] - 1e-12
    assert rep["ratios"]["exact"]["kind"] == "exact"
    assert rep["guarantees"]["forward_ok"] and rep["guarantees"]["reverse_ok"]
    assert rep["cache"]["plan_solves_total"] >= rep["methods"]["forward"]["plan_solves"]


def test_report_is_plain_json():
    res = run_pipeline(unit_scenario(), exact_options())
    text = json.dumps(res.report)
    assert json.loads(text) == res.report


def no_seconds(node):
    if isinstance(node, dict):
        return "seconds" not in node and all(no_seconds(v) for v in node.values())
    if isinstance(node, list):
        return all(no_seconds(v) for v in node)
    return True


def test_strip_timing_removes_every_seconds_field():
    rep = run_pipeline(unit_scenario(), exact_options()).report
    assert not no_seconds(rep)
    assert no_seconds(strip_timing(rep))


def test_identical_runs_identical_canonical_bytes():
    a = run_pipeline(unit_scenario(), exact_options()).report
    b = run_pipeline(unit_scenario(), exact_options()).report
    assert canonical_report_json(a) == canonical_report_json(b)


def test_estimate_runs_reproducible_and_seed_sensitive():
    opts = lambda **kw: PipelineOptions(samples=300, ratio_source="greedy",
                                        methods=("forward", "reverse"), **kw)
    a = run_pipeline(unit_scenario(), opts(seed=5)).report
    b = run_pipeline(unit_scenario(), opts(seed=5)).report
    c = run_pipeline(unit_scenario(), opts(seed=6)).report
    assert canonical_report_json(a) == canonical_report_json(b)
    assert a["field"]["seed"] == 5 and c["field"]["seed"] == 6


def test_derive_seed_stable_distinct_in_range():
    assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)
    seen = {derive_seed(a, b) for a in range(5) for b in range(5)}
    assert len(seen) == 25
    for s in seen:
        assert 0 <= s < 1 << 63


def stamped(fld, sc):
    fld.scenario_hash = scenario_hash(sc)
    return fld


def saved(tmp_path, fld, name="field.npz"):
    """Path of fld written as a field cache."""
    path = tmp_path / name
    fld.save(path)
    return path


def test_cached_field_reused_and_validated(tmp_path, monkeypatch):
    sc = unit_scenario()
    sampling = dict(samples=200, seed=3)
    fld = stamped(estimate_contamination_field(sc.gridmap, sc.hazard, sc.horizon, **sampling), sc)
    cache = saved(tmp_path, fld)
    runs = count_calls(monkeypatch, hazard, "_run_chunks")
    res = run_pipeline(sc, PipelineOptions(field_cache=cache, methods=("forward",),
                                           ratio_source="none", **sampling))
    assert runs == [] and np.array_equal(res.contamination.prob, fld.prob)
    assert res.report["field"]["samples"] == res.report["determinism"]["samples"] == 200

    short = stamped(estimate_contamination_field(sc.gridmap, sc.hazard, sc.horizon - 1,
                                                 **sampling), sc)
    with pytest.raises(ValidationError, match="horizon 11 < scenario horizon 12"):
        build_field(sc, PipelineOptions(field_cache=saved(tmp_path, short, "short.npz"),
                                        **sampling))

    other = unit_scenario(goal=[3, 2])
    with pytest.raises(ValidationError, match="different scenario"):
        build_field(other, PipelineOptions(field_cache=cache, **sampling))

    moved = unit_dict()
    moved["grid"]["obstacles"] = [[3, 1]]
    with pytest.raises(ValidationError, match="different scenario"):
        build_field(parse_scenario(moved), PipelineOptions(field_cache=cache, **sampling))

    open_grid = unit_dict()
    open_grid["grid"]["obstacles"] = []
    with pytest.raises(ValidationError, match="covers 11 cells, scenario has 12"):
        build_field(parse_scenario(open_grid), PipelineOptions(field_cache=cache, **sampling))


def test_longer_cached_horizon_is_accepted(tmp_path, monkeypatch):
    sc = unit_scenario()
    fld = stamped(estimate_contamination_field(sc.gridmap, sc.hazard, sc.horizon + 4,
                                               samples=100, seed=1), sc)
    cache = saved(tmp_path, fld)
    runs = count_calls(monkeypatch, hazard, "_run_chunks")
    got = build_field(sc, PipelineOptions(field_cache=cache, samples=100, seed=1))
    assert runs == [] and got.horizon == sc.horizon + 4
    assert np.array_equal(got.prob, fld.prob)


@pytest.mark.parametrize("asked, want", [
    (dict(field_kind="exact", samples=5000, seed=7), "asks for exact"),
    (dict(samples=201, seed=3), "asks for monte-carlo (201 samples, seed 3)"),
    (dict(samples=200, seed=4), "asks for monte-carlo (200 samples, seed 4)"),
])
def test_given_field_of_another_kind_or_sampling_is_refused(tmp_path, asked, want):
    sc = unit_scenario()
    fld = stamped(estimate_contamination_field(sc.gridmap, sc.hazard, sc.horizon,
                                               samples=200, seed=3), sc)
    cache = saved(tmp_path, fld)
    for call in (build_field, run_pipeline):
        with pytest.raises(ValidationError) as exc:
            call(sc, PipelineOptions(field_cache=cache, methods=("forward",),
                                     ratio_source="none", **asked))
        assert "built as monte-carlo (200 samples, seed 3)" in str(exc.value)
        assert want in str(exc.value)


def test_given_exact_field_is_refused_for_a_sampled_run(tmp_path, monkeypatch):
    sc = unit_scenario()
    fld = stamped(hazard.exact_contamination_field(sc.gridmap, sc.hazard, sc.horizon), sc)
    cache = saved(tmp_path, fld)
    passes = count_calls(monkeypatch, hazard, "_propagate_exact")
    got = build_field(sc, exact_options(field_cache=cache, samples=123, seed=9))
    assert passes == [] and np.array_equal(got.prob, fld.prob)
    for call in (build_field, run_pipeline):
        with pytest.raises(ValidationError, match="built as exact, but this run asks for "
                                                  r"monte-carlo \(10000 samples, seed 0\)"):
            call(sc, PipelineOptions(field_cache=cache))


def test_given_field_of_another_scenario_or_without_a_hash_is_refused(tmp_path, monkeypatch):
    sc = unit_scenario()
    faster = unit_dict()
    faster["hazards"][0]["theta"] = 0.3
    fld = estimate_contamination_field(sc.gridmap, sc.hazard, sc.horizon, samples=200, seed=3)
    opts = dict(samples=200, seed=3, methods=("forward",), ratio_source="none")
    fld.scenario_hash = scenario_hash(sc)
    cache = saved(tmp_path, fld)
    with np.load(cache) as npz:
        data = {key: npz[key] for key in npz.files}
    # a field without a hash cannot be saved, so write the file by hand
    for stamp, words in (("", "without a scenario hash"),
                         (scenario_hash(parse_scenario(faster)), "different scenario")):
        np.savez_compressed(cache, **dict(data, scenario_hash=np.array(stamp)))
        for call in (build_field, run_pipeline):
            with pytest.raises(ValidationError, match=words):
                call(sc, PipelineOptions(field_cache=cache, **opts))
    cache = saved(tmp_path, fld, "stamped.npz")
    runs = count_calls(monkeypatch, hazard, "_run_chunks")
    res = run_pipeline(sc, PipelineOptions(field_cache=cache, **opts))
    assert runs == [] and np.array_equal(res.contamination.prob, fld.prob)


def test_exact_field_cap_enforced():
    with pytest.raises(CapExceededError):
        run_pipeline(unit_scenario(), exact_options(exact_cap=4))


def test_one_failing_method_does_not_abort_the_rest():
    res = run_pipeline(unit_scenario(), exact_options(brute_cap=2))
    rep = res.report
    assert rep["methods"]["brute"]["error_kind"] == "CapExceededError"
    assert "objective" in rep["methods"]["forward"]
    assert "objective" in rep["methods"]["reverse"]
    assert rep["guarantees"]["f_star"] is None
    assert rep["guarantees"]["g_forward"] is None


def test_vacuous_guarantees_recorded_not_raised():
    # the east target sits on beta's natural lane, so it is free in small
    # contexts yet costly once reroutes pile up: curvature collapses to one
    sc = parse_scenario({
        "grid": {"width": 4, "height": 3, "obstacles": [[1, 1]]},
        "goal": [3, 0],
        "horizon": 8,
        "robots": [
            {"name": "alpha", "start": [0, 0]},
            {"name": "beta", "start": [0, 2]},
        ],
        "targets": [
            {"name": "east", "cell": [3, 2]},
            {"name": "mid", "cell": [2, 1]},
        ],
        "hazards": [{"label": "fire", "cells": [[0, 1]], "theta": 0.25}],
    })
    rep = run_pipeline(sc, exact_options()).report
    assert rep["ratios"]["exact"]["alpha"] == 1.0
    assert rep["guarantees"]["vacuous"] is True
    assert "alpha=1" in rep["guarantees"]["reason"]


def test_ratio_source_none_and_auto_selection(monkeypatch):
    bare = run_pipeline(unit_scenario(), PipelineOptions(
        field_kind="exact", ratio_source="none")).report
    assert "ratios" not in bare and "guarantees" not in bare

    auto = run_pipeline(unit_scenario(), PipelineOptions(
        field_kind="exact", ratio_source="auto")).report
    assert auto["ratios"]["auto_selected"] == "exact"

    monkeypatch.setattr(guarantees, "RATIO_ENUM_CAP", 100)
    forced = run_pipeline(unit_scenario(), PipelineOptions(
        field_kind="exact", ratio_source="auto",
        methods=("forward", "reverse"))).report
    assert forced["ratios"]["auto_selected"] == "greedy"
    assert "combined" in forced["ratios"]


def test_greedy_ratio_blocks_per_trace_and_combined():
    rep = run_pipeline(unit_scenario(), PipelineOptions(
        field_kind="exact", ratio_source="greedy",
        methods=("forward", "reverse"))).report
    ratios = rep["ratios"]
    assert set(ratios["greedy"]) == {"forward", "reverse"}
    comb = ratios["combined"]
    per = [blk for blk in ratios["greedy"].values() if "alpha" in blk]
    assert comb["alpha"] == max(blk["alpha"] for blk in per)
    assert comb["gamma"] == min(blk["gamma"] for blk in per)
    exact = run_pipeline(unit_scenario(), exact_options()).report["ratios"]["exact"]
    assert comb["alpha"] <= exact["alpha"] + 1e-12
    assert comb["gamma"] >= exact["gamma"] - 1e-12


def report_heat(rep, gm):
    """The heatmap block's value of every free cell, in index order."""
    rows = rep["heatmap"]["rows"]
    return np.array([rows[c.row][c.col] for c in gm.cells])


def test_heatmap_block_covers_grid_with_none_at_obstacles():
    sc = unit_scenario()
    res = run_pipeline(sc, exact_options(heatmap=True))
    rows = res.report["heatmap"]["rows"]
    assert len(rows) == sc.gridmap.height
    assert all(len(r) == sc.gridmap.width for r in rows)
    assert rows[1][1] is None
    flat = [v for r in rows for v in r if v is not None]
    assert len(flat) == sc.gridmap.n_free
    assert all(0.0 <= v <= 1.0 for v in flat)
    assert np.array_equal(report_heat(res.report, sc.gridmap),
                          res.contamination.marginals[sc.horizon])


def test_rollout_block_deterministic_and_sized():
    opts = exact_options(rollout_trials=60, methods=("forward",),
                         ratio_source="none")
    a = run_pipeline(unit_scenario(), opts).report
    b = run_pipeline(unit_scenario(), copy.deepcopy(opts)).report
    entries = a["rollouts"]["forward"]
    assert [e["robot"] for e in entries] == ["alpha", "beta"]
    for e in entries:
        assert e["trials"] == 60
        assert 0 <= e["successes"] <= 60
        assert 0.0 <= e["ci_low"] <= e["rate"] <= e["ci_high"] <= 1.0
    assert canonical_report_json(a) == canonical_report_json(b)


def test_region_map_attached_only_with_brute_optimum():
    with_brute = run_pipeline(unit_scenario(), exact_options(
        region_resolution=8)).report
    rm = with_brute["region_map"]
    assert len(rm["alphas"]) == 8 and len(rm["forward_better"]) == 8
    without = run_pipeline(unit_scenario(), exact_options(
        region_resolution=8, methods=("forward", "reverse"))).report
    assert "region_map" not in without


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_exact_heatmap_comes_from_the_field_pass(monkeypatch):
    sc = unit_scenario()
    passes = count_calls(monkeypatch, hazard, "_propagate_exact")
    res = run_pipeline(sc, exact_options(heatmap=True, methods=("forward",),
                                         ratio_source="none"))
    assert len(passes) == 1
    want = oracles.reference_exact_propagation(sc.gridmap, sc.hazard, sc.horizon)[2]
    assert np.array_equal(res.contamination.marginals, want)
    assert np.array_equal(report_heat(res.report, sc.gridmap), want[sc.horizon])


def test_mc_heatmap_comes_from_the_field_sampler_run(monkeypatch):
    sc = unit_scenario()
    runs = count_calls(monkeypatch, hazard, "_run_chunks")
    res = run_pipeline(sc, PipelineOptions(samples=300, seed=5, heatmap=True,
                                           methods=("forward",), ratio_source="none"))
    assert len(runs) == 1
    heat = estimate_contamination_field(sc.gridmap, sc.hazard, sc.horizon + 2,
                                        samples=300, seed=5).marginals[sc.horizon]
    assert np.array_equal(report_heat(res.report, sc.gridmap), heat)


@pytest.mark.parametrize("kind", ["exact", "estimate"])
def test_cached_field_heatmap_reads_saved_marginals(tmp_path, monkeypatch, kind):
    sc = unit_scenario()
    opts = dict(field_kind=kind, samples=300, seed=5, heatmap=True,
                methods=("forward",), ratio_source="none")
    fresh = run_pipeline(sc, PipelineOptions(**opts))
    fresh.contamination.save(tmp_path / "field.npz")
    loaded = ContaminationField.load(tmp_path / "field.npz")
    assert loaded.scenario_hash == scenario_hash(sc)
    passes = count_calls(monkeypatch, hazard, "_propagate_exact")
    runs = count_calls(monkeypatch, hazard, "_run_chunks")
    cached = run_pipeline(sc, PipelineOptions(field_cache=tmp_path / "field.npz", **opts))
    assert (passes, runs) == ([], [])
    assert canonical_report_json(cached.report) == canonical_report_json(fresh.report)


def test_longer_cached_field_heatmap_reads_the_scenario_step(tmp_path, monkeypatch):
    sc = unit_scenario()
    fresh = run_pipeline(sc, exact_options(heatmap=True, methods=("forward",),
                                           ratio_source="none"))
    longer = stamped(hazard.exact_contamination_field(sc.gridmap, sc.hazard, sc.horizon + 3), sc)
    cache = saved(tmp_path, longer)
    passes = count_calls(monkeypatch, hazard, "_propagate_exact")
    res = run_pipeline(sc, exact_options(field_cache=cache, heatmap=True, methods=("forward",),
                                         ratio_source="none"))
    assert passes == []
    assert res.report["heatmap"]["rows"] == fresh.report["heatmap"]["rows"]


def test_heatmap_of_a_field_without_marginals_is_refused(tmp_path):
    sc = unit_scenario()
    fld = stamped(estimate_contamination_field(sc.gridmap, sc.hazard, sc.horizon,
                                               samples=50, seed=1), sc)
    cache = saved(tmp_path, fld)
    with np.load(cache) as npz:
        data = {key: npz[key] for key in npz.files if key != "marginals"}
    np.savez_compressed(cache, **data)
    # every field build_field returns carries marginals: a cache without them
    # is refused whether or not a heatmap is asked for
    opts = dict(field_cache=cache, samples=50, seed=1, methods=("forward",),
                ratio_source="none")
    for heatmap in (False, True):
        with pytest.raises(ValidationError, match="lacks marginals"):
            run_pipeline(sc, PipelineOptions(heatmap=heatmap, **opts))


def test_rollouts_read_each_assigned_subsets_own_policy(monkeypatch):
    """The allocators price every subset from one value lattice for all
    robots. One policy sweep, a dp_solve over the union of the rolled-out
    masks with one start state per distinct (robot, mask), then plans every
    rollout, however many methods assign a mask: each rollout walks its own
    (robot, mask)'s plan, on the robot's start, whose planned value has the
    lattice value's bits."""
    sc = unit_scenario()
    seen, solved, priced = [], [], []
    real_rollout, real_solve, real_values = report.rollout, planner.dp_solve, planner.dp_values

    def recording(result, **kwargs):
        seen.append(result)
        return real_rollout(result, **kwargs)

    def counting(query, *rest, **kwargs):
        solved.append((query.targets, kwargs.get("starts")))
        return real_solve(query, *rest, **kwargs)

    def pricing(query, *rest):
        priced.append(query.targets)
        return real_values(query, *rest)

    monkeypatch.setattr(report, "rollout", recording)
    monkeypatch.setattr(planner, "dp_solve", counting)
    monkeypatch.setattr(planner, "dp_values", pricing)
    opts = exact_options(rollout_trials=50, methods=("forward", "reverse"),
                         ratio_source="none")
    res = run_pipeline(sc, opts)
    cache = res.cache
    pairs = [(r, res.report["methods"][name]["masks"][r])
             for name in ("forward", "reverse") for r in range(sc.n_robots)]
    assert len(seen) == len(pairs)
    assert priced == [tuple(sc.targets)]
    distinct = list(dict.fromkeys(pairs))
    assert len(distinct) < len(pairs)
    union = 0
    for _, mask in distinct:
        union |= mask
    ((targets, starts),) = solved
    assert targets == cache.query(0, union).targets
    assert [cell for cell, _ in starts] == [sc.starts[r] for r, _ in distinct]
    assert (cache.value_runs, cache.policy_runs) == (1, 1)

    def bits(v):
        return np.float64(v).view(np.int64)

    entries = [e for name in ("forward", "reverse") for e in res.report["rollouts"][name]]
    for (r, mask), result, e in zip(pairs, seen, entries, strict=True):
        assert result is cache.solve(r, mask)
        assert result.policy is seen[0].policy
        assert result.query.targets == targets and result.query.start == sc.starts[r]
        assert e["mask"] == mask
        assert bits(e["planned"]) == bits(result.success) == bits(cache.value(r, mask))
    assert cache.policy_runs == 1
