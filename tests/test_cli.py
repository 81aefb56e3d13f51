"""Command-line driver: subcommands end to end, exit codes, output routing."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hazardplan import cli, errors, guarantees, hazard, planner, report
from hazardplan.cli import entry
from hazardplan.guarantees import guarantee_values
from hazardplan.report import canonical_report_json
from hazardplan.scenario import load_scenario
from hazardplan._version import VERSION


def unit_dict():
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


def write_scenario(tmp_path, name="unit.json", **edits):
    data = unit_dict()
    data.update(edits)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def count_field_passes(monkeypatch):
    """Names of the exact propagations and sampler runs made from now on."""
    calls = []
    for name in ("_propagate_exact", "_run_chunks"):
        real = getattr(hazard, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(hazard, name, counted)
    return calls


def run_json(capsys, argv):
    code = entry(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["--version"])
    assert exc.value.code == 0
    assert VERSION in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "hazardplan", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert VERSION in done.stdout


def test_allocate_leaves_numpy_ma_and_concurrent_futures_unloaded():
    """hazard.py keeps two modules out of a run for its peak memory:
    numpy.ma, which np.unique imports on first use, and concurrent.futures,
    which only threaded runs import. In a fresh interpreter, allocate on
    paper17x13 (Monte-Carlo field, rollouts) and on small.json (exact
    field), both with --threads 1, imports neither."""
    root = Path(__file__).resolve().parent.parent
    code = (
        "import contextlib, io, sys\n"
        "from hazardplan.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['allocate', 'scenarios/paper17x13.json', '--method',\n"
        "                   'forward,reverse', '--ratios', 'greedy', '--rollout-trials',\n"
        "                   '2000', '--threads', '1']),\n"
        "             main(['allocate', 'scenarios/small.json', '--exact-field',\n"
        "                   '--threads', '1'])]\n"
        "print(*codes, 'numpy.ma' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "False", "False"]


def test_plan_by_name_and_index(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, by_name = run_json(capsys, ["plan", path, "--robot", "alpha",
                                      "--targets", "west,pocket"])
    assert code == 0
    code2, by_index = run_json(capsys, ["plan", path, "--robot", "0",
                                        "--targets", "0,1"])
    assert code2 == 0
    assert by_name == by_index
    assert by_name["robot"] == "alpha"
    assert by_name["targets"] == ["west", "pocket"]
    assert 0.0 < by_name["success"] < 1.0
    assert by_name["path"][0] == [0, 0]
    assert by_name["path"][-1] == [3, 0]


def test_plan_rejects_bad_names(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert entry(["plan", path, "--targets", "nowhere"]) == 2
    assert "unknown target" in capsys.readouterr().err
    assert entry(["plan", path, "--robot", "gamma"]) == 2
    assert "unknown robot" in capsys.readouterr().err
    assert entry(["plan", path, "--targets", "west,west"]) == 2
    assert "listed twice" in capsys.readouterr().err


def test_allocate_full_report_stdout(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, rep = run_json(capsys, ["allocate", path, "--exact-field",
                                  "--ratios", "exact"])
    assert code == 0
    assert set(rep["methods"]) == {"forward", "reverse", "brute"}
    assert rep["guarantees"]["forward_ok"] is True
    assert rep["scenario"]["name"] == "unit"


def test_allocate_method_subset_and_out_file(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "report.json"
    code = entry(["allocate", path, "--method", "forward", "--ratios", "none",
                  "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert list(rep["methods"]) == ["forward"]
    assert "ratios" not in rep


def test_failed_bound_with_skipped_exact_triples_is_reported_not_raised(tmp_path, capsys):
    # reverse greedy reaches F = 0 here, so many marginals tie at 0 and the
    # exact scan skips triples: the theorems' regime is left, the reverse
    # check fails, and the report says so instead of exiting 4
    path = write_scenario(
        tmp_path, grid={"width": 4, "height": 2, "obstacles": [[2, 1]]}, goal=[1, 0],
        horizon=3,
        robots=[{"name": "p", "start": [2, 0]}, {"name": "q", "start": [0, 1]}],
        targets=[{"name": "t0", "cell": [1, 0]}, {"name": "t1", "cell": [3, 0]},
                 {"name": "t2", "cell": [2, 0]}],
        hazards=[{"label": "fire", "cells": [[0, 0]], "theta": 0.2593}],
    )
    code, rep = run_json(capsys, ["allocate", path, "--exact-field", "--ratios", "exact"])
    assert code == 0
    assert rep["ratios"]["exact"]["skipped_alpha"] > 0
    assert rep["ratios"]["exact"]["skipped_gamma"] > 0
    assert rep["guarantees"]["reverse_ok"] is False
    assert rep["guarantees"]["forward_ok"] is True


def test_allocate_capped_brute_exits_three(tmp_path, capsys):
    path = write_scenario(tmp_path, caps={"brute_force": 2})
    code, rep = run_json(capsys, ["allocate", path, "--exact-field",
                                  "--ratios", "none"])
    assert code == 3
    assert rep["methods"]["brute"]["error_kind"] == "CapExceededError"
    assert "objective" in rep["methods"]["forward"]


def test_allocate_unknown_method_exits_two(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert entry(["allocate", path, "--method", "anneal"]) == 2
    assert "unknown methods" in capsys.readouterr().err


def test_negative_seed_exits_two(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert entry(["plan", path, "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_negative_scenario_seed_exits_two(tmp_path, capsys):
    path = write_scenario(tmp_path, monte_carlo={"samples": 400, "seed": -1})
    assert entry(["plan", path]) == 2
    assert "monte_carlo.seed: must be >= 0, got -1" in capsys.readouterr().err


def test_negative_rollout_trials_exit_two(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert entry(["allocate", path, "--exact-field", "--rollout-trials", "-5"]) == 2
    assert "rollout trial count must be >= 0, got -5" in capsys.readouterr().err


def test_negative_region_exits_two(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert entry(["allocate", path, "--exact-field", "--region", "-3"]) == 2
    assert "region resolution must be >= 0, got -3" in capsys.readouterr().err
    assert entry(["bounds", "--f-star", "0.5", "--alpha", "0.2", "--gamma", "0.9",
                  "--region", "-3"]) == 2
    assert "resolution must be >= 2" in capsys.readouterr().err


def test_region_over_the_cap_exits_three(tmp_path, capsys):
    """A region map allocates about 33 bytes per grid point, so the cap
    refuses it before its grid is built."""
    too_fine = str(guarantees.REGION_RESOLUTION_CAP + 1)
    assert entry(["bounds", "--f-star", "0.2", "--alpha", "0.3", "--gamma", "0.8",
                  "--region", too_fine]) == 3
    assert capsys.readouterr().err.startswith("error: region resolution")
    path = write_scenario(tmp_path)
    assert entry(["allocate", path, "--exact-field", "--region", too_fine]) == 3
    assert "region resolution" in capsys.readouterr().err


@pytest.mark.parametrize("kind, code", [
    ("ValidationError", 2),
    ("CapExceededError", 3),
    ("NumericViolationError", 4),
    ("VacuousBoundError", 2),
    ("InsufficientObservationsError", 2),
    ("HazardPlanError", 2),
])
def test_entry_maps_every_error_kind_to_its_exit(monkeypatch, capsys, kind, code):
    def failing(args):
        raise getattr(errors, kind)("boom")

    monkeypatch.setitem(cli._COMMANDS, "bounds", failing)
    # arguments the table passes, so the replaced command runs
    assert entry(["bounds", "--f-star", "0.5", "--alpha", "0.2", "--gamma", "0.9"]) == code
    prefix = "internal error: " if code == 4 else "error: "
    assert capsys.readouterr().err == prefix + "boom\n"


def test_field_cache_written_reused_and_guarded(tmp_path, capsys):
    path = write_scenario(tmp_path)
    cache = tmp_path / "field.npz"
    code, first = run_json(capsys, ["plan", path, "--field-cache", str(cache)])
    assert code == 0 and cache.exists()
    code, second = run_json(capsys, ["plan", path, "--field-cache", str(cache)])
    assert code == 0
    assert first == second
    moved = write_scenario(tmp_path, name="moved.json", goal=[3, 2])
    assert entry(["plan", moved, "--field-cache", str(cache)]) == 2
    assert "different scenario" in capsys.readouterr().err


def test_field_cache_of_another_kind_or_sampling_is_refused(tmp_path, capsys):
    small = str(Path(__file__).resolve().parent.parent / "scenarios" / "small.json")
    cache = str(tmp_path / "fc.npz")
    assert entry(["plan", small, "--samples", "200", "--seed", "1",
                  "--field-cache", cache]) == 0
    capsys.readouterr()
    assert entry(["allocate", small, "--exact-field", "--field-cache", cache]) == 2
    err = capsys.readouterr().err
    assert "built as monte-carlo (200 samples, seed 1)" in err
    assert "asks for exact" in err
    for argv in (["--samples", "200", "--seed", "2"], ["--samples", "300", "--seed", "1"]):
        assert entry(["plan", small, *argv, "--field-cache", cache]) == 2
        assert "(200 samples, seed 1)" in capsys.readouterr().err
    code, out = run_json(capsys, ["plan", small, "--samples", "200", "--seed", "1",
                                  "--field-cache", cache])
    assert code == 0 and out["field"] == {"kind": "monte-carlo", "samples": 200, "seed": 1}


def test_simulate_reports_calibrated_rate(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, out = run_json(capsys, ["simulate", path, "--robot", "beta",
                                  "--targets", "pocket", "--trials", "300"])
    assert code == 0
    assert out["trials"] == 300
    assert 0.0 <= out["ci_low"] <= out["rate"] <= out["ci_high"] <= 1.0
    assert isinstance(out["planned_in_ci"], bool)
    assert entry(["simulate", path, "--trials", "0"]) == 2


def test_simulate_joint_mode(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, out = run_json(capsys, ["simulate", path, "--mode", "joint",
                                  "--trials", "200"])
    assert code == 0
    assert out["mode"] == "joint" and out["trials"] == 200


def test_bounds_pure_math_mode(capsys):
    code, out = run_json(capsys, ["bounds", "--f-star", "0.6",
                                  "--alpha", "0.3", "--gamma", "0.8"])
    assert code == 0
    g_fwd, g_rev = guarantee_values(0.6, 0.3, 0.8)
    assert out["g_forward"] == pytest.approx(g_fwd)
    assert out["g_reverse"] == pytest.approx(g_rev)

    assert entry(["bounds", "--f-star", "0.6"]) == 2
    assert "needs --f-star, --alpha and --gamma" in capsys.readouterr().err

    code, out = run_json(capsys, ["bounds", "--f-star", "0.6",
                                  "--alpha", "1.0", "--gamma", "0.8"])
    assert code == 0
    assert out["vacuous"] is True

    code, out = run_json(capsys, ["bounds", "--f-star", "0.5",
                                  "--alpha", "0.2", "--gamma", "0.9",
                                  "--region", "6"])
    assert code == 0
    assert len(out["region_map"]["alphas"]) == 6


def test_bounds_from_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, out = run_json(capsys, ["bounds", path, "--exact", "--exact-field"])
    assert code == 0
    assert out["scenario"] == "unit"
    assert out["guarantees"]["forward_ok"] is True
    assert out["objectives"]["brute"] >= out["objectives"]["forward"] - 1e-12
    assert out["ratios"]["exact"]["kind"] == "exact"


def test_render_heatmap_svg_and_pgm(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert entry(["render", path, "--what", "heatmap"]) == 0
    assert capsys.readouterr().out.startswith("<svg ")

    assert entry(["render", path, "--what", "heatmap", "--format", "pgm"]) == 2
    assert "needs --out" in capsys.readouterr().err

    out = tmp_path / "heat.pgm"
    assert entry(["render", path, "--what", "heatmap", "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"P5\n4 3\n65535\n")


def test_render_paths_svg(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "paths.svg"
    code = entry(["render", path, "--what", "paths", "--method", "forward",
                  "--exact-field", "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    assert "<polyline " in svg and "forward allocation" in svg


def test_render_paths_runs_the_sampler_once(tmp_path, monkeypatch):
    path = write_scenario(tmp_path)
    runs = []
    real = hazard._run_chunks

    def counted(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hazard, "_run_chunks", counted)
    out = tmp_path / "paths.svg"
    assert entry(["render", path, "--what", "paths", "--out", str(out)]) == 0
    assert len(runs) == 1
    assert "<polyline " in out.read_text()


def test_run_that_writes_a_field_cache_builds_its_field_once(tmp_path, monkeypatch):
    path = write_scenario(tmp_path)
    calls = count_field_passes(monkeypatch)
    reports = []
    for extra in ([], ["--field-cache", str(tmp_path / "exact.npz")]):
        out = tmp_path / "report.json"
        assert entry(["allocate", path, "--exact-field", "--heatmap", "--method",
                      "forward", "--ratios", "none", "--out", str(out), *extra]) == 0
        reports.append(canonical_report_json(json.loads(out.read_text())))
    # one propagation per run: writing the cache reuses the field's marginals
    assert calls == ["_propagate_exact", "_propagate_exact"]
    assert reports[0] == reports[1]
    calls.clear()
    svg = tmp_path / "paths.svg"
    assert entry(["render", path, "--what", "paths", "--out", str(svg),
                  "--field-cache", str(tmp_path / "mc.npz")]) == 0
    assert calls == ["_run_chunks"]


def test_render_heatmap_writes_reads_and_guards_the_field_cache(tmp_path, monkeypatch, capsys):
    path = write_scenario(tmp_path)
    cache = str(tmp_path / "fc.npz")
    first, second = tmp_path / "first.svg", tmp_path / "second.svg"
    argv = ["render", path, "--what", "heatmap", "--samples", "300", "--seed", "4"]
    assert entry([*argv, "--field-cache", cache, "--out", str(first)]) == 0
    assert Path(cache).exists()
    calls = count_field_passes(monkeypatch)
    assert entry([*argv, "--field-cache", cache, "--out", str(second)]) == 0
    assert calls == []
    assert first.read_bytes() == second.read_bytes()
    for other in (["--exact-field"], ["--samples", "301", "--seed", "4"],
                  ["--samples", "300", "--seed", "5"]):
        assert entry(["render", path, "--what", "heatmap", *other,
                      "--field-cache", cache, "--out", str(second)]) == 2
        assert "monte-carlo (300 samples, seed 4)" in capsys.readouterr().err
    assert calls == []


def test_a_field_cache_path_without_the_npz_suffix_is_read_back(tmp_path, monkeypatch, capsys):
    path = write_scenario(tmp_path)
    cache = tmp_path / "field"
    calls = count_field_passes(monkeypatch)
    for _ in range(2):
        assert entry(["plan", path, "--samples", "100", "--field-cache", str(cache)]) == 0
    assert cache.exists() and not (tmp_path / "field.npz").exists()
    assert calls == ["_run_chunks"]


def test_a_broken_field_cache_exits_two(tmp_path, capsys):
    small = str(Path(__file__).resolve().parent.parent / "scenarios" / "small.json")
    cache = tmp_path / "fc.npz"
    cache.write_text("garbage")
    argv = ["plan", small, "--samples", "100", "--seed", "0", "--field-cache", str(cache)]
    assert entry(argv) == 2
    assert "not a readable npz" in capsys.readouterr().err
    # a hand-written cache without a hash whose every entry reads 2.0
    horizon, n = 16, 12
    np.savez_compressed(cache, format=hazard.FIELD_CACHE_FORMAT, horizon=horizon, n_free=n,
                        prob=np.full((horizon, n, 5), 2.0),
                        flagged=np.zeros((horizon, n), dtype=bool),
                        marginals=np.zeros((horizon + 1, n)), kind=np.array("monte-carlo"),
                        samples=100, seed=0, scenario_hash=np.array(""))
    assert entry(argv) == 2
    assert "prob entries outside [0, 1]" in capsys.readouterr().err


def test_a_field_cache_of_the_per_sample_sampler_exits_two(tmp_path, capsys):
    small = str(Path(__file__).resolve().parent.parent / "scenarios" / "small.json")
    cache = tmp_path / "fc.npz"
    argv = ["plan", small, "--samples", "100", "--seed", "0", "--field-cache", str(cache)]
    assert entry(argv) == 0
    # the cache as the per-sample sampler wrote it: no format entry
    with np.load(cache) as npz:
        data = {key: npz[key] for key in npz.files if key != "format"}
    np.savez_compressed(cache, **data)
    capsys.readouterr()
    assert entry(argv) == 2
    err = capsys.readouterr().err
    assert "lacks format" in err and "delete the cache and rebuild it" in err


def test_a_field_cache_of_the_thinning_sampler_exits_two(tmp_path, capsys):
    """Format 2 caches hold fields of the sampler that thinned every cell at
    every step: the same samples and seed give other bits under the
    first-passage walk, so such a cache is refused, not read as this one."""
    small = str(Path(__file__).resolve().parent.parent / "scenarios" / "small.json")
    cache = tmp_path / "fc.npz"
    argv = ["plan", small, "--samples", "100", "--seed", "0", "--field-cache", str(cache)]
    assert entry(argv) == 0
    with np.load(cache) as npz:
        data = {key: npz[key] for key in npz.files}
    assert int(data["format"]) == 3
    np.savez_compressed(cache, **dict(data, format=np.array(2)))
    capsys.readouterr()
    assert entry(argv) == 2
    err = capsys.readouterr().err
    assert "has format 2, not 3" in err and "delete the cache and rebuild it" in err


def test_an_unhashed_field_cache_exits_two(tmp_path, capsys):
    small = str(Path(__file__).resolve().parent.parent / "scenarios" / "small.json")
    cache = tmp_path / "fc.npz"
    argv = ["plan", small, "--samples", "100", "--seed", "0", "--field-cache", str(cache)]
    assert entry(argv) == 0
    # the cache as a version that saved no hash wrote it: valid values, empty hash
    with np.load(cache) as npz:
        data = {key: npz[key] for key in npz.files}
    np.savez_compressed(cache, **dict(data, scenario_hash=np.array("")))
    capsys.readouterr()
    assert entry(argv) == 2
    err = capsys.readouterr().err
    assert "without a scenario hash" in err and "rebuild" in err


def test_render_region_map(tmp_path, capsys):
    out = tmp_path / "region.svg"
    assert entry(["render", "--what", "region-map", "--f-star", "0.6",
                  "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg ")
    assert entry(["render", "--what", "region-map", "--f-star", "0.6",
                  "--format", "pgm"]) == 2
    assert "SVG only" in capsys.readouterr().err

    path = write_scenario(tmp_path)
    assert entry(["render", path, "--what", "region-map", "--exact-field",
                  "--out", str(out)]) == 0
    # the map is drawn at the measured optimum; the unit scenario's ratio
    # pair lies below the grid's gamma floor so no marker appears
    assert "at F* = 0." in out.read_text()


def test_exact_field_cap_exits_three(tmp_path, capsys):
    path = write_scenario(tmp_path, caps={"exact_hazard_cells": 4})
    assert entry(["allocate", path, "--exact-field"]) == 3
    assert "error" in capsys.readouterr().err


def test_exact_field_cap_message_reads_cells_over_the_cap(capsys):
    assert entry(["plan", PAPER, "--exact-field", "--targets", "none"]) == 3
    assert capsys.readouterr().err == "error: exact field needs 199 free cells > cap 12\n"


def paper_with_targets(tmp_path, n_targets=20):
    """paper17x13 with more targets, n_targets in all: at 20, one value
    lattice over all of them would need ~3.6 GB, while a policy DP's bounds
    need ~0.16 GB and its sweep a few MB."""
    paper = Path(__file__).resolve().parent.parent / "scenarios" / "paper17x13.json"
    data = json.loads(paper.read_text())
    sc = load_scenario(str(paper))
    taken = set(sc.starts) | {sc.gridmap.goal} | set(sc.targets) | set(sc.hazard.initial_cells)
    extra = [c for c in sc.gridmap.cells if c not in taken][:n_targets - sc.n_tasks]
    data["targets"] += [{"name": f"x{i}", "cell": list(c)} for i, c in enumerate(extra)]
    path = tmp_path / f"paper{n_targets}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_plan_over_the_dp_table_cap_exits_three(tmp_path, monkeypatch, capsys):
    """A policy DP whose bounds fit the cap, but not with its sweep, exits 3
    once its bounds are known."""
    path = paper_with_targets(tmp_path, 17)
    monkeypatch.setattr(planner, "DP_TABLE_CAP", planner.dp_bounds_bytes(17, 199))
    assert entry(["plan", path, "--targets", "all", "--samples", "50"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: planning 17 targets over 199 cells and 75 steps")
    assert "> cap" in err


def test_plan_of_17_targets_sweeps_within_the_cap(tmp_path, capsys):
    """A policy DP's memory follows the columns it sweeps, so one over 17
    targets plans, where the dense layers and row index would not fit."""
    path = paper_with_targets(tmp_path, 17)
    code, out = run_json(capsys, ["plan", path, "--targets", "all", "--samples", "50"])
    assert code == 0 and len(out["targets"]) == 17 and 0.0 <= out["success"] <= 1.0


SMALL = str(Path(__file__).resolve().parent.parent / "scenarios" / "small.json")
PAPER = str(Path(__file__).resolve().parent.parent / "scenarios" / "paper17x13.json")
# every command that builds a field from a scenario, by label: its
# subcommand and the flags it needs
FIELD_COMMANDS = {
    "plan": ["plan", "--robot", "a", "--targets", "all"],
    "allocate": ["allocate"],
    "simulate": ["simulate", "--robot", "a"],
    "bounds": ["bounds"],
    "heatmap": ["render", "--what", "heatmap"],
    "paths": ["render", "--what", "paths"],
    "region-map": ["render", "--what", "region-map"],
}


# (flag, its arguments) of the scenario flags that --f-star leaves unread; the
# refusal test gives every command --field-cache, so that one needs no more
F_STAR_FLAGS = [("--seed", ["--seed", "3"]), ("--samples", ["--samples", "100"]),
                ("--exact-field", ["--exact-field"]), ("--field-cache", [])]
F_STAR_COMMANDS = {
    "bounds": (["bounds", "--alpha", "0.3", "--gamma", "0.8"],
               F_STAR_FLAGS + [("--exact", ["--exact"]), ("--greedy", ["--greedy"])]),
    "region-map": (["render", "--what", "region-map"], F_STAR_FLAGS),
}


@pytest.mark.parametrize("argv, code, message", [
    (["allocate", SMALL, "--exact-field", "--region", "1001"], 3,
     "error: region resolution 1001 > cap 1000"),
    (["allocate", SMALL, "--exact-field", "--region", "1"], 2,
     "error: resolution must be >= 2"),
    (["bounds", SMALL, "--exact-field", "--region", "1001"], 3,
     "error: region resolution 1001 > cap 1000"),
    (["plan", SMALL, "--exact-field", "--robot", "zzz"], 2, "error: unknown robot 'zzz'"),
    (["plan", SMALL, "--exact-field", "--targets", "nowhere"], 2,
     "error: unknown target 'nowhere'"),
    (["simulate", SMALL, "--exact-field", "--robot", "zzz"], 2, "error: unknown robot 'zzz'"),
    (["render", SMALL, "--exact-field", "--what", "region-map", "--format", "pgm"], 2,
     "error: --what region-map renders as SVG only"),
    (["render", SMALL, "--exact-field", "--what", "paths", "--format", "pgm"], 2,
     "error: --what paths renders as SVG only"),
    (["render", SMALL, "--exact-field", "--what", "heatmap", "--format", "pgm"], 2,
     "error: binary output needs --out FILE"),
    (["bounds", SMALL, "--exact-field", "--f-star", "0.1", "--alpha", "0.5", "--gamma", "0.5"],
     2, "error: bounds with a scenario computes F*, alpha and gamma from it; "
        "drop --f-star, --alpha, --gamma or the scenario"),
    (["bounds", SMALL, "--exact-field", "--gamma", "0.5"], 2,
     "error: bounds with a scenario computes F*, alpha and gamma from it; drop --gamma"),
    (["render", SMALL, "--exact-field", "--what", "region-map", "--f-star", "0.3"], 2,
     "error: render --what region-map draws either the given --f-star or the scenario's"),
    (["render", SMALL, "--exact-field", "--what", "heatmap", "--f-star", "0.3"], 2,
     "error: --f-star applies to --what region-map, not heatmap"),
    (["render", SMALL, "--exact-field", "--what", "paths", "--f-star", "0.3"], 2,
     "error: --f-star applies to --what region-map, not paths"),
    *[([command, SMALL, *rest, "--exact-field", "--samples", "7"], 2,
       "error: --samples sizes a Monte-Carlo field, but --exact-field builds an exact one")
      for command, *rest in FIELD_COMMANDS.values()],
    (["allocate", SMALL, "--exact-field", "--rollout-mode", "joint"], 2,
     "error: --rollout-mode picks how --rollout-trials are run, and no trials were asked"),
    (["allocate", SMALL, "--exact-field", "--rollout-mode", "model", "--rollout-trials", "0"],
     2, "error: --rollout-mode picks how --rollout-trials are run"),
    (["allocate", SMALL, "--exact-field", "--region", "10", "--method", "forward"], 2,
     "error: --region maps the guarantees at brute force's optimum, and --method runs no"),
    (["render", SMALL, "--exact-field", "--what", "heatmap", "--method", "reverse"], 2,
     "error: --method picks whose paths render --what paths draws, not heatmap"),
    (["render", SMALL, "--exact-field", "--what", "region-map", "--method", "brute"], 2,
     "error: --method picks whose paths render --what paths draws, not region-map"),
    (["allocate", SMALL, "--exact-field", "--region", "10", "--ratios", "none"], 2,
     "error: --region maps the guarantees, and --ratios none computes none"),
    (["allocate", SMALL, "--exact-field", "--rollout-trials", "10", "--method", "brute"], 2,
     "error: --rollout-trials rolls out the forward and reverse allocations, and --method"),
    *[([*command, "--f-star", "0.2", *rest], 2,
       f"error: --f-star reads no scenario, so nothing uses {flag}")
      for command, flags in F_STAR_COMMANDS.values() for flag, rest in flags],
    *[([command, SMALL, *rest, "--exact-field", "--seed", "5"], 2,
       "error: --seed seeds a Monte-Carlo field and rollouts, and with --exact-field this "
       "run draws neither; drop --seed")
      for label, (command, *rest) in FIELD_COMMANDS.items() if label != "simulate"],
    (["allocate", SMALL, "--exact-field", "--ratios", "greedy", "--method", "brute"], 2,
     "error: --ratios greedy estimates the ratios from the forward and reverse traces, and "
     "--method runs neither"),
], ids=["allocate-region-over-cap", "allocate-region-1", "bounds-region-over-cap",
        "plan-robot", "plan-targets", "simulate-robot", "region-map-pgm", "paths-pgm",
        "heatmap-pgm-stdout", "bounds-scenario-and-numbers", "bounds-scenario-and-gamma",
        "region-map-scenario-and-f-star", "heatmap-f-star", "paths-f-star",
        *[f"{label}-exact-field-and-samples" for label in FIELD_COMMANDS],
        "rollout-mode-without-trials", "rollout-mode-with-zero-trials",
        "region-without-brute", "heatmap-method", "region-map-method",
        "region-without-ratios", "rollouts-without-greedy",
        *[f"{label}-f-star-and{flag}" for label, (_, flags) in F_STAR_COMMANDS.items()
          for flag, _ in flags],
        *[f"{label}-exact-field-and-seed" for label in FIELD_COMMANDS if label != "simulate"],
        "greedy-ratios-without-greedy"])
def test_refusals_the_arguments_decide_build_no_field(tmp_path, monkeypatch, capsys,
                                                      argv, code, message):
    calls = count_field_passes(monkeypatch)
    cache = tmp_path / "field.npz"
    assert entry([*argv, "--field-cache", str(cache)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert calls == [] and not cache.exists()


@pytest.mark.parametrize("command", [["allocate"], ["plan", "--targets", "all"], ["bounds"]],
                         ids=["allocate", "plan", "bounds"])
def test_dp_over_the_cap_is_refused_before_the_field(tmp_path, monkeypatch, capsys, command):
    path = paper_with_targets(tmp_path)
    if command[0] == "plan":
        # a policy DP prices its bounds before the field, ~0.16 GB here
        monkeypatch.setattr(planner, "DP_TABLE_CAP", 1 << 27)
    calls = count_field_passes(monkeypatch)
    cache = tmp_path / "field.npz"
    assert entry([command[0], path, *command[1:], "--samples", "50",
                  "--field-cache", str(cache)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: planning 20 targets over ")
    assert f"> cap {planner.DP_TABLE_CAP / 2**30:.1f} GiB" in err
    assert calls == [] and not cache.exists()


class FieldReached(Exception):
    """Raised in place of building a field: the cap checks before it passed."""


def test_a_value_lattice_of_18_targets_passes_the_check_before_the_field(
        tmp_path, monkeypatch, capsys):
    """allocate prices value lattices, which keep no policy: at 18 targets on
    paper17x13's 199 cells it needs about 0.85 GB and reaches the field (it
    exited 3 while the check priced a policy over 75 steps, ~2.5 GB at 17
    targets). A policy DP over the same 18 targets, as plan runs, prices
    its bounds, ~60 MB, and reaches the field too; under a cap below them it
    exits 3 before the field. A value lattice of 19, about 1.7 GiB, reaches
    the field; one of 20 exits 3 before it."""

    def reached(*args, **kwargs):
        raise FieldReached

    monkeypatch.setattr(cli, "build_field", reached)
    monkeypatch.setattr(report, "build_field", reached)
    path = paper_with_targets(tmp_path, 18)
    for command in (["allocate"], ["bounds"], ["plan", "--targets", "all"]):
        with pytest.raises(FieldReached):
            entry([command[0], path, *command[1:], "--samples", "50"])
    with monkeypatch.context() as mp:
        mp.setattr(planner, "DP_TABLE_CAP", planner.dp_bounds_bytes(18, 199) - 1)
        assert entry(["plan", path, "--targets", "all", "--samples", "50"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: planning 18 targets over 199 cells and 75 steps needs")
    with pytest.raises(FieldReached):
        entry(["allocate", paper_with_targets(tmp_path, 19), "--samples", "50"])
    assert entry(["allocate", paper_with_targets(tmp_path, 20), "--samples", "50"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: planning 20 targets over 199 cells needs about 3.4 GiB")


def test_paper_allocate_runs_one_value_lattice_and_one_policy_sweep(
        tmp_path, monkeypatch):
    """The benchmark's paper17x13 allocate with rollouts: one value lattice,
    read from every robot's start, prices every subset, and one policy
    sweep plans every distinct (robot, mask) that the two allocators roll
    out, five of their six. The reported counters still count values
    priced and repeat lookups."""
    results = []
    real = cli.run_pipeline

    def keeping(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_pipeline", keeping)
    paper = Path(__file__).resolve().parent.parent / "scenarios" / "paper17x13.json"
    out = tmp_path / "report.json"
    assert entry(["allocate", str(paper), "--method", "forward,reverse", "--ratios", "greedy",
                  "--rollout-trials", "100000", "--seed", "0", "--threads", "1",
                  "--out", str(out)]) == 0
    (result,) = results
    rep = json.loads(out.read_text())
    rolled = {(r, e["mask"]) for name in ("forward", "reverse")
              for r, e in enumerate(rep["rollouts"][name])}
    cache = result.cache
    assert len(rolled) == 5
    assert (cache.value_runs, cache.policy_runs) == (1, 1)
    # repeat lookups follow which bids each round re-prices, so they move
    # with the field's bits even where the allocations do not
    assert rep["cache"] == {"plan_solves_total": 60, "cache_hits": 33}


def test_seed_beside_an_exact_field_still_seeds_rollouts(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, _ = run_json(capsys, ["simulate", path, "--exact-field", "--seed", "5",
                                "--trials", "50"])
    assert code == 0
    code, rep = run_json(capsys, ["allocate", path, "--exact-field", "--seed", "5",
                                  "--rollout-trials", "50"])
    assert code == 0 and rep["determinism"]["seed"] == 5


# flags that no other flag given makes a run ignore, so no rule names them
ALWAYS_READ = {"--out", "--threads", "--robot", "--targets", "--heatmap", "--mode"}


def test_every_flag_is_named_by_a_rule_or_always_read():
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    flags = {
        command: {flag for action in parser._actions
                  if not isinstance(action, argparse._HelpAction)
                  for flag in action.option_strings}
        for command, parser in sub.choices.items()
    }
    named = {flag for rule in cli._RULES for flag in rule.flags}
    for command, given in flags.items():
        assert given <= named | ALWAYS_READ, (command, given - named - ALWAYS_READ)
    for rule in cli._RULES:
        assert set(rule.commands) <= set(flags), rule.message
        assert set(rule.flags) <= set().union(*(flags[c] for c in rule.commands)), rule.message


def test_a_capped_ratio_scan_exits_three(capsys):
    # 5 targets and 3 robots: the exact scan would take 215233605 triples
    code, out = run_json(capsys, ["bounds", PAPER, "--exact", "--samples", "200"])
    assert code == 3
    assert out["ratios"]["error_kind"] == "CapExceededError"
    assert out["guarantees"] is None


def test_ratios_without_a_greedy_trace_exit_two(capsys):
    # the scan is over the cap, so auto falls back to greedy ratios, and
    # brute force leaves no greedy trace to read them from
    code, rep = run_json(capsys, ["allocate", PAPER, "--method", "brute", "--samples", "200"])
    assert code == 2
    assert rep["ratios"]["error_kind"] == "InsufficientObservationsError"
    assert "objective" in rep["methods"]["brute"]
