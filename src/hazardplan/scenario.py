"""Mission scenario files.

A scenario is one JSON document naming the grid, the exit cell, the mission
horizon, the robot starts, the shared target list, the initial hazard regions
with their spread speeds, and the motion model. Validation reports the JSON
path of the offending field so files can be fixed without reading tracebacks.

Hazard source order matters: when several sources could claim the same cell's
spread speed, the earlier entry wins. Robot and target indices used everywhere
else in the package are positions in the arrays here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

# CPython's built-in _sha256 gives hashlib.sha256's digest without loading
# OpenSSL, which costs a few MB resident; Python 3.12 and later lack it
try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .errors import ValidationError
from .grid import Cell, GridMap, MotionKernel, MoveAction
from .hazard import HazardModel, HazardSource
from .planner import MAX_TARGETS

FORMAT_VERSION = 1


def _fail(path: str, msg: str) -> None:
    raise ValidationError(f"{path}: {msg}")


def _get(data: Dict, key: str, path: str, required: bool = True, default=None):
    if key not in data:
        if required:
            _fail(path, f"missing required field '{key}'")
        return default
    return data[key]


def _as_int(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return int(value)


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    return float(value)


def _as_cell(value, path: str) -> Cell:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
    ):
        _fail(path, f"expected a [col, row] pair of integers, got {value!r}")
    return Cell(int(value[0]), int(value[1]))


def _as_list(value, path: str, allow_empty: bool = False) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    if not value and not allow_empty:
        _fail(path, "must be nonempty")
    return value


def expand_obstacles(entries: Sequence, path: str) -> List[Cell]:
    """Obstacle entries are [col, row] cells or {"rect": [c0, r0, c1, r1]} runs."""
    out: List[Cell] = []
    for i, entry in enumerate(entries):
        here = f"{path}[{i}]"
        if isinstance(entry, dict):
            rect = _get(entry, "rect", here)
            if (
                not isinstance(rect, list)
                or len(rect) != 4
                or any(isinstance(v, bool) or not isinstance(v, int) for v in rect)
            ):
                _fail(f"{here}.rect", f"expected [c0, r0, c1, r1], got {rect!r}")
            c0, r0, c1, r1 = rect
            if c1 < c0 or r1 < r0:
                _fail(f"{here}.rect", "corners must satisfy c0 <= c1 and r0 <= r1")
            for c in range(c0, c1 + 1):
                for r in range(r0, r1 + 1):
                    out.append(Cell(c, r))
        else:
            out.append(_as_cell(entry, here))
    return out


@dataclass
class Scenario:
    """Parsed, validated mission description."""

    name: str
    gridmap: GridMap
    horizon: int
    starts: Tuple[Cell, ...]
    robot_names: Tuple[str, ...]
    targets: Tuple[Cell, ...]
    target_names: Tuple[str, ...]
    hazard: HazardModel
    motion_kind: str = "deterministic"
    motion_rows: Tuple[Tuple[Cell, MoveAction, Tuple[Tuple[Cell, float], ...]], ...] = field(
        default_factory=tuple
    )
    # Optional defaults a file may carry for the pipeline; None means "unset".
    mc_samples: Optional[int] = None
    mc_seed: Optional[int] = None
    cap_exact_hazard: Optional[int] = None
    cap_brute: Optional[int] = None

    @property
    def n_robots(self) -> int:
        return len(self.starts)

    @property
    def n_tasks(self) -> int:
        return len(self.targets)

    def kernel(self) -> MotionKernel:
        if self.motion_kind == "deterministic":
            return MotionKernel.deterministic(self.gridmap)
        table = {
            (cell, action): dict(row) for cell, action, row in self.motion_rows
        }
        return MotionKernel.tabular(self.gridmap, table)

    def to_dict(self) -> Dict:
        """Canonical plain-dict form; load(save(s)) round-trips exactly."""
        data: Dict = {
            "version": FORMAT_VERSION,
            "name": self.name,
            "grid": {
                "width": self.gridmap.width,
                "height": self.gridmap.height,
                "obstacles": [list(c) for c in sorted(self.gridmap.obstacles)],
            },
            "goal": list(self.gridmap.goal),
            "horizon": self.horizon,
            "robots": [
                {"name": nm, "start": list(c)}
                for nm, c in zip(self.robot_names, self.starts)
            ],
            "targets": [
                {"name": nm, "cell": list(c)}
                for nm, c in zip(self.target_names, self.targets)
            ],
            "hazards": [
                {
                    "label": src.label,
                    "cells": [list(c) for c in sorted(src.cells)],
                    "theta": src.theta,
                }
                for src in self.hazard.sources
            ],
            "motion": {"kind": self.motion_kind},
        }
        if self.motion_kind == "tabular":
            data["motion"]["rows"] = [
                {
                    "cell": list(cell),
                    "action": action.name,
                    "next": [[c.col, c.row, p] for c, p in row],
                }
                for cell, action, row in self.motion_rows
            ]
        if self.mc_samples is not None or self.mc_seed is not None:
            mc: Dict = {}
            if self.mc_samples is not None:
                mc["samples"] = self.mc_samples
            if self.mc_seed is not None:
                mc["seed"] = self.mc_seed
            data["monte_carlo"] = mc
        if self.cap_exact_hazard is not None or self.cap_brute is not None:
            caps: Dict = {}
            if self.cap_exact_hazard is not None:
                caps["exact_hazard_cells"] = self.cap_exact_hazard
            if self.cap_brute is not None:
                caps["brute_force"] = self.cap_brute
            data["caps"] = caps
        return data

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def scenario_hash(scenario: Scenario) -> str:
    """Stable content hash used to tie reports and cached fields to inputs."""
    return sha256(scenario.canonical_json().encode()).hexdigest()


def parse_scenario(data: Dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError("scenario document must be a JSON object")
    version = _as_int(data.get("version", FORMAT_VERSION), "version", minimum=1)
    if version != FORMAT_VERSION:
        _fail("version", f"unsupported format version {version}, expected {FORMAT_VERSION}")
    name = data.get("name", "scenario")
    if not isinstance(name, str) or not name:
        _fail("name", "must be a nonempty string")

    grid = _get(data, "grid", "")
    if not isinstance(grid, dict):
        _fail("grid", "must be an object")
    width = _as_int(_get(grid, "width", "grid"), "grid.width", minimum=1)
    height = _as_int(_get(grid, "height", "grid"), "grid.height", minimum=1)
    raw_obstacles = grid.get("obstacles", [])
    obstacles = expand_obstacles(
        _as_list(raw_obstacles, "grid.obstacles", allow_empty=True), "grid.obstacles"
    )
    for i, c in enumerate(obstacles):
        if not (0 <= c.col < width and 0 <= c.row < height):
            _fail("grid.obstacles", f"cell {list(c)} outside the {width}x{height} grid")

    goal = _as_cell(_get(data, "goal", ""), "goal")
    try:
        gridmap = GridMap(width, height, obstacles, goal)
    except ValidationError as exc:
        raise ValidationError(f"grid: {exc}") from None

    horizon = _as_int(_get(data, "horizon", ""), "horizon", minimum=1)

    robots = _as_list(_get(data, "robots", ""), "robots")
    starts: List[Cell] = []
    robot_names: List[str] = []
    for i, rb in enumerate(robots):
        here = f"robots[{i}]"
        if not isinstance(rb, dict):
            _fail(here, "must be an object with a 'start' field")
        cell = _as_cell(_get(rb, "start", here), f"{here}.start")
        if not gridmap.is_free(cell):
            _fail(f"{here}.start", f"{list(cell)} is not a free cell")
        nm = rb.get("name", f"r{i}")
        if not isinstance(nm, str) or not nm:
            _fail(f"{here}.name", "must be a nonempty string")
        starts.append(cell)
        robot_names.append(nm)
    if len(set(robot_names)) != len(robot_names):
        _fail("robots", "robot names must be unique")

    targets_raw = _as_list(_get(data, "targets", ""), "targets", allow_empty=True)
    if len(targets_raw) > MAX_TARGETS:
        _fail("targets", f"at most {MAX_TARGETS} targets are supported")
    targets: List[Cell] = []
    target_names: List[str] = []
    for i, tg in enumerate(targets_raw):
        here = f"targets[{i}]"
        if not isinstance(tg, dict):
            _fail(here, "must be an object with a 'cell' field")
        cell = _as_cell(_get(tg, "cell", here), f"{here}.cell")
        if not gridmap.is_free(cell):
            _fail(f"{here}.cell", f"{list(cell)} is not a free cell")
        nm = tg.get("name", f"t{i}")
        if not isinstance(nm, str) or not nm:
            _fail(f"{here}.name", "must be a nonempty string")
        targets.append(cell)
        target_names.append(nm)
    if len(set(targets)) != len(targets):
        _fail("targets", "target cells must be distinct")
    if len(set(target_names)) != len(target_names):
        _fail("targets", "target names must be unique")

    hazards_raw = _as_list(
        _get(data, "hazards", "", required=False, default=[]),
        "hazards",
        allow_empty=True,
    )
    sources: List[HazardSource] = []
    for i, hz in enumerate(hazards_raw):
        here = f"hazards[{i}]"
        if not isinstance(hz, dict):
            _fail(here, "must be an object with 'cells' and 'theta'")
        cells = [
            _as_cell(c, f"{here}.cells[{j}]")
            for j, c in enumerate(_as_list(_get(hz, "cells", here), f"{here}.cells"))
        ]
        for c in cells:
            if not gridmap.is_free(c):
                _fail(f"{here}.cells", f"{list(c)} is not a free cell")
        theta = _as_number(_get(hz, "theta", here), f"{here}.theta")
        if not 0.0 <= theta <= 1.0:
            _fail(f"{here}.theta", f"must lie in [0, 1], got {theta}")
        label = hz.get("label", f"h{i}")
        if not isinstance(label, str) or not label:
            _fail(f"{here}.label", "must be a nonempty string")
        sources.append(HazardSource(cells=frozenset(cells), theta=theta, label=label))
    try:
        hazard = HazardModel(sources=tuple(sources))
    except ValidationError as exc:
        raise ValidationError(f"hazards: {exc}") from None

    motion = _get(data, "motion", "", required=False, default={"kind": "deterministic"})
    if not isinstance(motion, dict):
        _fail("motion", "must be an object")
    kind = motion.get("kind", "deterministic")
    if kind not in ("deterministic", "tabular"):
        _fail("motion.kind", f"must be 'deterministic' or 'tabular', got {kind!r}")
    motion_rows: List[Tuple[Cell, MoveAction, Tuple[Tuple[Cell, float], ...]]] = []
    if kind == "tabular":
        rows = _as_list(_get(motion, "rows", "motion"), "motion.rows")
        seen = set()
        for i, row in enumerate(rows):
            here = f"motion.rows[{i}]"
            if not isinstance(row, dict):
                _fail(here, "must be an object with 'cell', 'action', 'next'")
            cell = _as_cell(_get(row, "cell", here), f"{here}.cell")
            act_name = _get(row, "action", here)
            try:
                action = MoveAction[act_name]
            except (KeyError, TypeError):
                names = ", ".join(a.name for a in MoveAction)
                _fail(f"{here}.action", f"must be one of {names}, got {act_name!r}")
            if (cell, action) in seen:
                _fail(here, f"duplicate row for {list(cell)} {action.name}")
            seen.add((cell, action))
            nxt = _as_list(_get(row, "next", here), f"{here}.next")
            terms: List[Tuple[Cell, float]] = []
            for j, term in enumerate(nxt):
                tp = f"{here}.next[{j}]"
                if not isinstance(term, list) or len(term) != 3:
                    _fail(tp, f"expected [col, row, prob], got {term!r}")
                dest = _as_cell(term[:2], tp)
                prob = _as_number(term[2], tp)
                if not 0.0 <= prob <= 1.0:
                    _fail(tp, f"probability must lie in [0, 1], got {prob}")
                terms.append((dest, prob))
            motion_rows.append((cell, action, tuple(terms)))

    mc = data.get("monte_carlo", {})
    if not isinstance(mc, dict):
        _fail("monte_carlo", "must be an object")
    mc_samples = (
        _as_int(mc["samples"], "monte_carlo.samples", minimum=1)
        if "samples" in mc
        else None
    )
    mc_seed = _as_int(mc["seed"], "monte_carlo.seed", minimum=0) if "seed" in mc else None
    caps = data.get("caps", {})
    if not isinstance(caps, dict):
        _fail("caps", "must be an object")
    cap_exact = (
        _as_int(caps["exact_hazard_cells"], "caps.exact_hazard_cells", minimum=1)
        if "exact_hazard_cells" in caps
        else None
    )
    cap_brute = (
        _as_int(caps["brute_force"], "caps.brute_force", minimum=1)
        if "brute_force" in caps
        else None
    )

    scenario = Scenario(
        name=name,
        gridmap=gridmap,
        horizon=horizon,
        starts=tuple(starts),
        robot_names=tuple(robot_names),
        targets=tuple(targets),
        target_names=tuple(target_names),
        hazard=hazard,
        motion_kind=kind,
        motion_rows=tuple(motion_rows),
        mc_samples=mc_samples,
        mc_seed=mc_seed,
        cap_exact_hazard=cap_exact,
        cap_brute=cap_brute,
    )
    if kind == "tabular":
        try:
            scenario.kernel()
        except ValidationError as exc:
            raise ValidationError(f"motion.rows: {exc}") from None
    return scenario


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario file is not valid JSON: {exc}") from None
    return parse_scenario(data)
