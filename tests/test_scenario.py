"""Scenario file parsing, validation diagnostics, and canonical hashing."""

import copy
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hazardplan.errors import ValidationError
from hazardplan.grid import Cell, MoveAction
from hazardplan.scenario import (
    MAX_TARGETS,
    expand_obstacles,
    load_scenario,
    parse_scenario,
    scenario_hash,
)

from oracles import motion_prob

ROOT = Path(__file__).resolve().parent.parent


def base_dict():
    return {
        "version": 1,
        "name": "unit",
        "grid": {
            "width": 4,
            "height": 3,
            "obstacles": [[1, 1]],
        },
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
        "hazards": [
            {"label": "fire", "cells": [[0, 1]], "theta": 0.25},
        ],
        "motion": {"kind": "deterministic"},
        "monte_carlo": {"samples": 500, "seed": 11},
        "caps": {"exact_hazard_cells": 12, "brute_force": 100000},
    }


def test_parse_well_formed_document():
    sc = parse_scenario(base_dict())
    assert sc.name == "unit"
    assert sc.gridmap.width == 4 and sc.gridmap.height == 3
    assert sc.gridmap.goal == Cell(3, 0)
    assert sc.horizon == 8
    assert sc.starts == (Cell(0, 0), Cell(0, 2))
    assert sc.robot_names == ("alpha", "beta")
    assert sc.targets == (Cell(3, 2), Cell(2, 1))
    assert sc.target_names == ("east", "mid")
    assert sc.n_robots == 2 and sc.n_tasks == 2
    assert len(sc.hazard.sources) == 1
    assert sc.hazard.sources[0].theta == 0.25
    assert sc.hazard.sources[0].label == "fire"
    assert sc.motion_kind == "deterministic"
    assert sc.mc_samples == 500 and sc.mc_seed == 11
    assert sc.cap_exact_hazard == 12 and sc.cap_brute == 100000
    kern = sc.kernel()
    assert motion_prob(kern, Cell(0, 1), Cell(0, 0), MoveAction.NORTH) == 1.0


def test_defaults_fill_in_names_and_optional_blocks():
    data = {
        "grid": {"width": 3, "height": 2},
        "goal": [2, 0],
        "horizon": 4,
        "robots": [{"start": [0, 0]}],
        "targets": [{"cell": [1, 1]}],
    }
    sc = parse_scenario(data)
    assert sc.name == "scenario"
    assert sc.robot_names == ("r0",)
    assert sc.target_names == ("t0",)
    assert sc.hazard.sources == ()
    assert sc.motion_kind == "deterministic"
    assert sc.mc_samples is None and sc.mc_seed is None
    assert sc.cap_exact_hazard is None and sc.cap_brute is None


def test_empty_target_list_is_allowed():
    data = base_dict()
    data["targets"] = []
    sc = parse_scenario(data)
    assert sc.n_tasks == 0


def test_round_trip_through_dict_and_file(tmp_path):
    sc = parse_scenario(base_dict())
    again = parse_scenario(sc.to_dict())
    assert again.to_dict() == sc.to_dict()
    assert scenario_hash(again) == scenario_hash(sc)

    path = tmp_path / "mission.json"
    sc.save(path)
    loaded = load_scenario(path)
    assert loaded.to_dict() == sc.to_dict()
    assert scenario_hash(loaded) == scenario_hash(sc)


def test_canonical_json_is_key_sorted_and_compact():
    sc = parse_scenario(base_dict())
    text = sc.canonical_json()
    assert ": " not in text and ", " not in text
    assert json.loads(text) == json.loads(json.dumps(sc.to_dict()))


def test_hash_tracks_content_not_formatting():
    a = parse_scenario(base_dict())
    shuffled = dict(reversed(list(base_dict().items())))
    b = parse_scenario(shuffled)
    assert scenario_hash(a) == scenario_hash(b)

    data = base_dict()
    data["hazards"][0]["theta"] = 0.26
    c = parse_scenario(data)
    assert scenario_hash(c) != scenario_hash(a)

    data = base_dict()
    data["horizon"] = 9
    d = parse_scenario(data)
    assert scenario_hash(d) != scenario_hash(a)


def test_rect_obstacle_expansion():
    cells = expand_obstacles([{"rect": [1, 0, 2, 1]}, [3, 2]], "grid.obstacles")
    assert set(cells) == {Cell(1, 0), Cell(1, 1), Cell(2, 0), Cell(2, 1), Cell(3, 2)}


def test_rect_obstacle_in_scenario():
    data = base_dict()
    data["grid"]["obstacles"] = [{"rect": [1, 0, 2, 0]}]
    sc = parse_scenario(data)
    assert Cell(1, 0) in sc.gridmap.obstacles
    assert Cell(2, 0) in sc.gridmap.obstacles
    # round trip flattens the rect into plain cells
    again = parse_scenario(sc.to_dict())
    assert again.gridmap.obstacles == sc.gridmap.obstacles


def test_rect_with_swapped_corners_names_the_entry():
    data = base_dict()
    data["grid"]["obstacles"] = [{"rect": [2, 1, 1, 1]}]
    with pytest.raises(ValidationError, match=r"grid\.obstacles\[0\]\.rect"):
        parse_scenario(data)


@pytest.mark.parametrize(
    "mutate, pattern",
    [
        (lambda d: d.pop("grid"), "missing required field 'grid'"),
        (lambda d: d["grid"].pop("width"), "grid.*width"),
        (lambda d: d["grid"].update(width=0), r"grid\.width"),
        (lambda d: d.pop("goal"), "missing required field 'goal'"),
        (lambda d: d.update(goal=[1, 1]), "grid"),
        (lambda d: d.update(goal=[9, 9]), "grid"),
        (lambda d: d.pop("horizon"), "missing required field 'horizon'"),
        (lambda d: d.update(horizon=0), "horizon"),
        (lambda d: d.update(horizon=2.5), "horizon"),
        (lambda d: d.update(robots=[]), "robots"),
        (lambda d: d["robots"][0].update(start=[1, 1]), r"robots\[0\]\.start"),
        (lambda d: d["robots"][0].update(start=[0]), r"robots\[0\]\.start"),
        (lambda d: d["robots"][1].update(name="alpha"), "unique"),
        (lambda d: d["targets"][0].update(cell=[1, 1]), r"targets\[0\]\.cell"),
        (lambda d: d["targets"][1].update(cell=[3, 2]), "distinct"),
        (lambda d: d["targets"][1].update(name="east"), "unique"),
        (lambda d: d["hazards"][0].update(theta=1.5), r"hazards\[0\]\.theta"),
        (lambda d: d["hazards"][0].update(theta="hot"), r"hazards\[0\]\.theta"),
        (lambda d: d["hazards"][0].update(cells=[[1, 1]]), r"hazards\[0\]\.cells"),
        (lambda d: d["hazards"][0].update(cells=[]), r"hazards\[0\]\.cells"),
        (lambda d: d.update(version=99), "version"),
        (lambda d: d.update(name=""), "name"),
        (lambda d: d["grid"]["obstacles"].append([7, 7]), r"grid\.obstacles"),
        (lambda d: d.update(monte_carlo={"samples": 0}), r"monte_carlo\.samples"),
        (lambda d: d.update(caps={"brute_force": 0}), r"caps\.brute_force"),
    ],
)
def test_validation_names_the_offending_path(mutate, pattern):
    data = copy.deepcopy(base_dict())
    mutate(data)
    with pytest.raises(ValidationError, match=pattern):
        parse_scenario(data)


def test_target_count_cap():
    data = base_dict()
    data["grid"] = {"width": 8, "height": 4, "obstacles": []}
    data["goal"] = [0, 0]
    data["robots"] = [{"start": [0, 0]}]
    cells = [[c, r] for r in range(4) for c in range(8)][1:]
    data["targets"] = [
        {"name": f"t{i}", "cell": cells[i]} for i in range(MAX_TARGETS)
    ]
    del data["hazards"]
    assert parse_scenario(data).n_tasks == MAX_TARGETS
    data["targets"].append({"name": "extra", "cell": cells[MAX_TARGETS]})
    with pytest.raises(ValidationError, match="at most"):
        parse_scenario(data)


def test_tabular_motion_round_trip():
    data = base_dict()
    data["motion"] = {
        "kind": "tabular",
        "rows": [
            {
                "cell": [0, 0],
                "action": "NORTH",
                "next": [[0, 1, 0.9], [0, 0, 0.1]],
            }
        ],
    }
    sc = parse_scenario(data)
    assert sc.motion_kind == "tabular"
    kern = sc.kernel()
    assert motion_prob(kern, Cell(0, 1), Cell(0, 0), MoveAction.NORTH) == pytest.approx(0.9)
    assert motion_prob(kern, Cell(0, 0), Cell(0, 0), MoveAction.NORTH) == pytest.approx(0.1)
    # unlisted rows stay deterministic
    assert motion_prob(kern, Cell(1, 2), Cell(0, 2), MoveAction.EAST) == 1.0
    again = parse_scenario(sc.to_dict())
    assert again.to_dict() == sc.to_dict()


def test_tabular_motion_validation_paths():
    data = base_dict()
    data["motion"] = {"kind": "tabular"}
    with pytest.raises(ValidationError, match="motion"):
        parse_scenario(data)

    data["motion"] = {
        "kind": "tabular",
        "rows": [{"cell": [0, 0], "action": "JUMP", "next": [[0, 1, 1.0]]}],
    }
    with pytest.raises(ValidationError, match=r"motion\.rows\[0\]\.action"):
        parse_scenario(data)

    row = {"cell": [0, 0], "action": "NORTH", "next": [[0, 1, 1.0]]}
    data["motion"] = {"kind": "tabular", "rows": [row, dict(row)]}
    with pytest.raises(ValidationError, match="duplicate row"):
        parse_scenario(data)

    data["motion"] = {
        "kind": "tabular",
        "rows": [{"cell": [0, 0], "action": "NORTH", "next": [[0, 1, 0.5]]}],
    }
    with pytest.raises(ValidationError, match=r"motion\.rows"):
        parse_scenario(data)

    data["motion"] = {"kind": "warp"}
    with pytest.raises(ValidationError, match=r"motion\.kind"):
        parse_scenario(data)


def test_load_scenario_error_mapping(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_scenario(tmp_path / "absent.json")
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_scenario(bad)
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    with pytest.raises(ValidationError, match="JSON object"):
        load_scenario(not_object)


@pytest.mark.parametrize("name", ["small.json", "paper17x13.json"])
def test_scenario_hash_is_the_sha256_of_the_canonical_json(name):
    sc = load_scenario(ROOT / "scenarios" / name)
    assert scenario_hash(sc) == hashlib.sha256(sc.canonical_json().encode()).hexdigest()


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None,
                    reason="this Python has no built-in _sha256, so hashlib is the fallback")
def test_exact_allocate_leaves_openssl_unloaded():
    # hashlib loads OpenSSL (_hashlib), a few MB resident, for one digest
    code = (
        "import contextlib, io, sys\n"
        "from hazardplan.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['allocate', 'scenarios/small.json', '--exact-field'])\n"
        "print(code, '_hashlib' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]
