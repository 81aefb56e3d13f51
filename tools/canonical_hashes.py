"""sha256 of the outputs that must stay byte-identical across refactors.

    python3 tools/canonical_hashes.py

Runs, in one process and with the program imported from this checkout's
``src/``:

- the two README ``allocate`` reports (small.json with the exact field and
  exact ratios, paper17x13.json with both greedy allocators, greedy ratios
  and 100,000 rollout trials) and a small.json report with 20,000 joint-mode
  rollout trials, each fresh, writing a ``--field-cache`` and reading it
  back; a report is hashed as ``canonical_report_json``, which leaves out
  the wall-clock ``seconds`` keys;
- the ``render --what heatmap|paths`` SVGs on both scenarios;
- a small.json report (exact field, exact ratios) on a copy of the scenario
  with target ``i`` moved onto the fire source (3, 3), where the target is
  contaminated at step 0 and every method's F is 0;
- on that copy, on one with robot ``b`` starting on the fire source and on
  one with the goal moved there too: robot ``b``'s ``plan`` with
  ``--targets all`` and ``none`` on both field kinds, its ``simulate`` in
  model and joint mode and an ``allocate`` report with rollouts;
- on a copy of small.json with four slippery (tabular) motion rows along
  its corridor: robot ``b``'s ``simulate`` in model and joint mode and an
  ``allocate`` report with 5,000 rollout trials. Every other rollout here
  has deterministic motion, where a chunk of either mode prices the plan's
  one walk; these are the ones that walk trial by trial;
- the README ``plan`` and ``simulate`` outputs, a joint-mode ``simulate``
  and a ``plan`` on every paper17x13.json target;
- a ``plan`` and an ``allocate`` report on 10 targets, on a copy of
  paper17x13.json with five more targets at free cells drawn by
  ``random.Random(0)``: the plan's DP works over 1,024 visited sets, where
  every other ``plan`` here has at most 32, and the report's value lattice
  over 1,024 sets spans eight blocks of visited sets, where every other
  ``allocate`` here fits in one;
- a region-map SVG and a ``bounds`` output, which print the guarantee floors;
- the ``prob``, ``flagged`` and ``marginals`` bytes of two fields built
  through the library: paper17x13.json's Monte-Carlo field (10,000 samples,
  seed 0) and small.json's exact field. These show any bit a field builder
  moves, even one that no report or image reads.

It prints one ``<sha256>  <command>`` line per output, 53 in all. Run the
same file in two checkouts and diff what they print. Outputs and caches go to a temporary
directory that is removed at the end. The whole run takes under a minute.

    python3 tools/canonical_hashes.py --compare BASE HEAD

compares two such printouts instead. A change names the outputs it moves on
purpose in ``tools/expected_hash_changes.txt``: one command per line, as
printed after the digest, with ``#`` starting a comment. The comparison
exits 1 if a command changed that the file does not list, or if a listed
command did not change, and 0 otherwise. A command printed by only one of
the two counts as changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_CHANGES = ROOT / "tools" / "expected_hash_changes.txt"
sys.path.insert(0, str(ROOT / "src"))

from hazardplan import cli  # noqa: E402
from hazardplan.hazard import (  # noqa: E402
    estimate_contamination_field,
    exact_contamination_field,
)
from hazardplan.report import canonical_report_json  # noqa: E402
from hazardplan.scenario import load_scenario  # noqa: E402

SMALL = str(ROOT / "scenarios" / "small.json")
PAPER = str(ROOT / "scenarios" / "paper17x13.json")
ALLOCATE = {
    "small": ["allocate", SMALL, "--exact-field", "--ratios", "exact", "--heatmap"],
    "paper": ["allocate", PAPER, "--method", "forward,reverse", "--ratios", "greedy",
              "--rollout-trials", "100000"],
    "small joint": ["allocate", SMALL, "--exact-field", "--rollout-trials", "20000",
                    "--rollout-mode", "joint"],
}
RENDER = [
    ["render", SMALL, "--what", "heatmap", "--exact-field"],
    ["render", PAPER, "--what", "heatmap", "--samples", "2000"],
    ["render", SMALL, "--what", "paths", "--method", "forward", "--exact-field"],
    ["render", SMALL, "--what", "paths", "--method", "reverse", "--exact-field"],
    ["render", PAPER, "--what", "paths", "--method", "reverse", "--samples", "2000"],
]
OTHER = [
    ["plan", SMALL, "--robot", "b", "--targets", "i,iii"],
    ["simulate", SMALL, "--robot", "b", "--targets", "i", "--trials", "20000"],
    ["simulate", SMALL, "--robot", "b", "--targets", "i", "--mode", "joint",
     "--trials", "20000"],
    ["plan", PAPER, "--targets", "all", "--samples", "2000"],
    ["render", "--what", "region-map", "--f-star", "0.2"],
    ["bounds", "--f-star", "0.2", "--alpha", "0.3", "--gamma", "0.8", "--region", "40"],
]
FIRE = [3, 3]  # small.json's fire source
# small.json copies with a cell contaminated at step 0 where the planner needs
# it clear: (label, target moved onto the fire, robot whose start moves onto
# it, whether the goal moves onto it)
ON_FIRE = [
    ("target i", "i", None, False),
    ("robot b", None, "b", False),
    ("robot b and goal", None, "b", True),
]
ON_FIRE_COMMANDS = [
    ["plan", "--robot", "b", "--targets", "all", "--exact-field"],
    ["plan", "--robot", "b", "--targets", "none", "--exact-field"],
    ["plan", "--robot", "b", "--targets", "all", "--samples", "2000"],
    ["plan", "--robot", "b", "--targets", "none", "--samples", "2000"],
    ["simulate", "--robot", "b", "--targets", "all", "--exact-field", "--trials", "5000"],
    ["simulate", "--robot", "b", "--targets", "all", "--exact-field", "--trials", "5000",
     "--mode", "joint"],
    ["allocate", "--exact-field", "--rollout-trials", "5000"],
]

# small.json's motion with slippery rows along the corridor, as scenario
# "motion.rows" entries: a move east may stay put or slide into a tooth
SLIPPERY_ROWS = [
    {"cell": [1, 2], "action": "EAST", "next": [[2, 2, 0.9], [1, 3, 0.1]]},
    {"cell": [2, 2], "action": "EAST", "next": [[3, 2, 0.8], [2, 2, 0.2]]},
    {"cell": [3, 2], "action": "EAST", "next": [[4, 2, 0.85], [3, 1, 0.05], [3, 3, 0.1]]},
    {"cell": [5, 2], "action": "EAST", "next": [[6, 2, 0.9], [5, 2, 0.1]]},
]
# a plan over paper17x13.json's five targets and EXTRA_TARGETS more
EXTRA_TARGETS = 5
MORE_TARGETS_PLAN = ["--targets", "all", "--samples", "2000"]
MORE_TARGETS_ALLOCATE = ["--method", "forward,reverse", "--ratios", "greedy",
                         "--samples", "2000"]
SLIPPERY_COMMANDS = [
    ["simulate", "--robot", "b", "--targets", "all", "--exact-field", "--trials", "5000"],
    ["simulate", "--robot", "b", "--targets", "all", "--exact-field", "--trials", "5000",
     "--mode", "joint"],
    ["allocate", "--exact-field", "--rollout-trials", "5000"],
]


def _run(argv, out: Path) -> bytes:
    code = cli.main([*argv, "--out", str(out)])
    if code != 0:
        raise SystemExit(f"exit {code}: {' '.join(argv)}")
    return out.read_bytes()


def _shown(argv) -> str:
    return " ".join(Path(a).name if a in (SMALL, PAPER) else a for a in argv)


def _on_fire_scenario(work: Path, target, robot, goal: bool) -> Path:
    """small.json with a target, a robot's start and/or the goal moved onto
    the fire source."""
    data = json.loads(Path(SMALL).read_text())
    for entry in data["targets"]:
        if entry["name"] == target:
            entry["cell"] = FIRE
    for entry in data["robots"]:
        if entry["name"] == robot:
            entry["start"] = FIRE
    if goal:
        data["goal"] = FIRE
    path = work / f"small-on-fire-{target}-{robot}-{goal}.json"
    path.write_text(json.dumps(data))
    return path


def _slippery_scenario(work: Path) -> Path:
    """small.json with the SLIPPERY_ROWS tabular motion."""
    data = json.loads(Path(SMALL).read_text())
    data["motion"] = {"kind": "tabular", "rows": SLIPPERY_ROWS}
    path = work / "small-slippery.json"
    path.write_text(json.dumps(data))
    return path


def _more_targets_scenario(work: Path) -> Path:
    """paper17x13.json with EXTRA_TARGETS more targets at seeded free cells
    away from the robot starts, the goal, the targets and the fire."""
    data = json.loads(Path(PAPER).read_text())
    scenario = load_scenario(PAPER)
    gm = scenario.gridmap
    taken = ({*scenario.starts, gm.goal, *scenario.targets}
             | set(scenario.hazard.initial_cells))
    cells = random.Random(0).sample([c for c in gm.cells if c not in taken], EXTRA_TARGETS)
    data["targets"] += [{"name": f"x{i + 1}", "cell": list(c)} for i, c in enumerate(cells)]
    path = work / "paper17x13-more-targets.json"
    path.write_text(json.dumps(data))
    return path


def _report_digest(argv, out: Path) -> str:
    report = json.loads(_run(argv, out))
    return hashlib.sha256(canonical_report_json(report).encode()).hexdigest()


def _command_digest(argv, out: Path) -> str:
    """An ``allocate`` report's digest, or the sha256 of any other output."""
    if argv[0] == "allocate":
        return _report_digest(argv, out)
    return hashlib.sha256(_run(argv, out)).hexdigest()


def _fields():
    """(label, field) of the two fields whose bytes are hashed."""
    paper = load_scenario(PAPER)
    yield "paper17x13.json monte-carlo 10000 samples seed 0", estimate_contamination_field(
        paper.gridmap, paper.hazard, paper.horizon, samples=10_000, seed=0)
    small = load_scenario(SMALL)
    yield "small.json exact", exact_contamination_field(small.gridmap, small.hazard,
                                                        small.horizon)


def read_digests(path: Path) -> Dict[str, str]:
    """{command: digest} of a printout of this tool."""
    digests = {}
    for line in path.read_text().splitlines():
        if line.strip():
            digest, command = line.split("  ", 1)
            digests[command.strip()] = digest
    return digests


def read_expected(path: Path) -> Set[str]:
    """The commands an expected-changes file lists, comments dropped."""
    lines = (line.split("#", 1)[0].strip() for line in path.read_text().splitlines())
    return {line for line in lines if line}


def compare(base: Dict[str, str], head: Dict[str, str], expected: Set[str]) -> List[str]:
    """One complaint per changed command not in expected and per command in
    expected that did not change; none when the two sets agree."""
    changed = {c for c in base.keys() | head.keys() if base.get(c) != head.get(c)}
    return ([f"changed but not listed: {c}" for c in sorted(changed - expected)]
            + [f"listed but unchanged: {c}" for c in sorted(expected - changed)])


def print_hashes() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "out"
        for name, argv in ALLOCATE.items():
            cache = ["--field-cache", str(work / f"{name.replace(' ', '_')}.npz")]
            for label, extra in (("fresh", []), ("cache written", cache), ("cache read", cache)):
                print(f"{_report_digest(argv + extra, out)}  {_shown(argv)}  [{label}]",
                      flush=True)
        for label, target, robot, goal in ON_FIRE:
            path = str(_on_fire_scenario(work, target, robot, goal))
            where = f"small.json with {label} at {tuple(FIRE)}"
            if target is not None:
                flagged = ["allocate", path, "--exact-field", "--ratios", "exact"]
                print(f"{_report_digest(flagged, out)}  allocate {where} "
                      f"{' '.join(flagged[2:])}", flush=True)
            for command, *rest in ON_FIRE_COMMANDS:
                digest = _command_digest([command, path, *rest], out)
                print(f"{digest}  {command} {where} {' '.join(rest)}", flush=True)
        path = str(_slippery_scenario(work))
        for command, *rest in SLIPPERY_COMMANDS:
            digest = _command_digest([command, path, *rest], out)
            print(f"{digest}  {command} small.json with slippery motion {' '.join(rest)}",
                  flush=True)
        for argv in RENDER + OTHER:
            print(f"{hashlib.sha256(_run(argv, out)).hexdigest()}  {_shown(argv)}", flush=True)
        path = str(_more_targets_scenario(work))
        where = f"paper17x13.json with {EXTRA_TARGETS} seeded targets more"
        plan = _run(["plan", path, *MORE_TARGETS_PLAN], out)
        print(f"{hashlib.sha256(plan).hexdigest()}  plan {where} {' '.join(MORE_TARGETS_PLAN)}",
              flush=True)
        digest = _report_digest(["allocate", path, *MORE_TARGETS_ALLOCATE], out)
        print(f"{digest}  allocate {where} {' '.join(MORE_TARGETS_ALLOCATE)}", flush=True)
    for label, field in _fields():
        for name in ("prob", "flagged", "marginals"):
            digest = hashlib.sha256(getattr(field, name).tobytes()).hexdigest()
            print(f"{digest}  field {label}  [{name}]", flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sha256 of the canonical outputs")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"), type=Path,
                    help="compare two printouts against tools/expected_hash_changes.txt")
    args = ap.parse_args(argv)
    if args.compare is None:
        return print_hashes()
    base, head = (read_digests(path) for path in args.compare)
    expected = read_expected(EXPECTED_CHANGES)
    problems = compare(base, head, expected)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"{len(expected)} of {len(head)} commands changed, as listed in {EXPECTED_CHANGES.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
