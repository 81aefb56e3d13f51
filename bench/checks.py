"""Output checks, run after the operations and after peak memory is read.

Each check compares against a computation made apart from the program (the
scalar oracles in ``tests/oracles.py``) or against a property the method
must have. None compares against a stored copy of an earlier output. The
oracles take the program's parsed scenario, grid indexing and field
container as conventions, as the test suite does.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

REL_TOL = 1e-12
ORACLE_TOL = 1e-9
ROLLOUT_SIGMAS = 4.0


class Checker:
    def __init__(self):
        self.count = 0
        self.failures = []

    def __call__(self, ok, message):
        self.count += 1
        if not ok:
            self.failures.append(message)


def free_cells(data):
    """Free cells of a scenario JSON object, expanded from its obstacle list."""
    grid = data["grid"]
    blocked = set()
    for entry in grid.get("obstacles", []):
        if isinstance(entry, dict):
            c0, r0, c1, r1 = entry["rect"]
            blocked.update((c, r) for c in range(c0, c1 + 1) for r in range(r0, r1 + 1))
        else:
            blocked.add(tuple(entry))
    return {(c, r) for c in range(grid["width"]) for r in range(grid["height"])} - blocked


def strip_seconds(value):
    if isinstance(value, dict):
        return {k: strip_seconds(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [strip_seconds(v) for v in value]
    return value


def _close(a, b, tol=REL_TOL):
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _product(values):
    out = 1.0
    for v in values:
        out *= v
    return out


def _is_partition(masks, n_tasks):
    union = 0
    for m in masks:
        if union & m:
            return False
        union |= m
    return union == (1 << n_tasks) - 1


def _load_program(root: Path):
    for path in (root / "src", root / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import oracles
    from hazardplan.hazard import ContaminationField
    from hazardplan.planner import PlanQuery
    from hazardplan.scenario import load_scenario

    return oracles, ContaminationField, PlanQuery, load_scenario


def check_outputs(workload, outputs, inputs, root: Path):
    """Checks for one run; ``outputs`` holds each operation's parsed outputs."""
    check = Checker()
    first = strip_seconds(outputs[0])
    check(all(strip_seconds(o) == first for o in outputs[1:]),
          "operations of one run gave different outputs")
    CHECKS[workload](check, outputs[0], inputs, root)
    return check


def _check_allocation_blocks(check, report, n_tasks, methods):
    for name in methods:
        block = report["methods"][name]
        check(_is_partition(block["masks"], n_tasks), f"{name} allocation is not a partition")
        if "per_robot" in block:
            check(_close(block["objective"], _product(block["per_robot"])),
                  f"{name} objective is not the product of its per-robot values")


def check_small_exact(check, outputs, inputs, root):
    (report,) = outputs
    oracles, ContaminationField, PlanQuery, load_scenario = _load_program(root)
    sc = load_scenario(inputs["scenario"])
    gm = sc.gridmap
    sources = sc.hazard.sources

    heat = oracles.contamination_marginals_oracle(gm, sources, sc.horizon)
    rows = report["heatmap"]["rows"]
    check(all(abs(rows[cell.row][cell.col] - heat[i]) <= ORACLE_TOL for i, cell in enumerate(gm.cells)),
          "heatmap differs from contamination_marginals_oracle")

    prob, flagged = oracles.exact_field_oracle(gm, sources, sc.horizon)
    field = ContaminationField(horizon=sc.horizon, n_free=gm.n_free, prob=prob,
                               flagged=flagged, kind="exact")
    n_robots, n_tasks = sc.n_robots, sc.n_tasks
    f = {}
    for r in range(n_robots):
        for mask in range(1 << n_tasks):
            targets = tuple(sc.targets[t] for t in range(n_tasks) if mask >> t & 1)
            query = PlanQuery(gridmap=gm, kernel=sc.kernel(), field=field, start=sc.starts[r],
                              targets=targets, horizon=sc.horizon)
            f[r, mask] = oracles.value_recursion_oracle(query)

    methods = report["methods"]
    _check_allocation_blocks(check, report, n_tasks, ("forward", "reverse", "brute"))
    for name in ("forward", "reverse"):
        block = methods[name]
        check(all(abs(v - f[r, m]) <= ORACLE_TOL
                  for r, (v, m) in enumerate(zip(block["per_robot"], block["masks"]))),
              f"{name} per-robot values differ from value_recursion_oracle")
    brute = methods["brute"]
    check(abs(brute["objective"] - _product(f[r, m] for r, m in enumerate(brute["masks"]))) <= ORACLE_TOL,
          "brute objective is not the product of its per-robot oracle values")
    _, best = oracles.brute_force_partitions(lambda r, m: f[r, m], n_robots, n_tasks)
    check(abs(brute["objective"] - best) <= ORACLE_TOL, "brute objective is not the oracle optimum")
    check(brute["objective"] >= methods["forward"]["objective"] - REL_TOL, "brute < forward")
    check(brute["objective"] >= methods["reverse"]["objective"] - REL_TOL, "brute < reverse")

    # Ground set: pair (task t, robot r) is bit t * n_robots + r.
    n = n_tasks * n_robots
    ground = []
    for wm in range(1 << n):
        masks = [0] * n_robots
        for bit in range(n):
            if wm >> bit & 1:
                masks[bit % n_robots] |= 1 << (bit // n_robots)
        ground.append(_product(f[r, m] for r, m in enumerate(masks)))
    alpha, gamma, _, _ = oracles.naive_ratios(ground, n)
    ratios = report["ratios"]["exact"]
    check(abs(ratios["alpha"] - alpha) <= ORACLE_TOL, "alpha differs from naive_ratios")
    check(abs(ratios["gamma"] - gamma) <= ORACLE_TOL, "gamma differs from naive_ratios")

    g = report["guarantees"]
    check(g["forward_ok"] is True and g["reverse_ok"] is True, "a theorem check failed")
    check(g["g_forward"] <= methods["forward"]["objective"] + REL_TOL, "forward floor above forward objective")
    check(g["g_reverse"] <= methods["reverse"]["objective"] + REL_TOL, "reverse floor above reverse objective")


def check_paper_mc(check, outputs, inputs, root):
    (report,) = outputs
    n_tasks = len(report["scenario"]["targets"])
    _check_allocation_blocks(check, report, n_tasks, ("forward", "reverse"))
    for name in ("forward", "reverse"):
        check(all(0.0 < v < 1.0 for v in report["methods"][name]["per_robot"]),
              f"{name} per-robot value outside (0, 1)")
    det, fld = report["determinism"], report["field"]
    check(det["seed"] == fld["seed"] == inputs["seed"], "determinism seed disagrees with the field")
    check(det["samples"] == fld["samples"] == inputs["samples"], "determinism samples disagree with the field")
    check(det["field_kind"] == "estimate" and fld["kind"] == "monte-carlo",
          "determinism field kind disagrees with the field")
    for name in ("forward", "reverse"):
        entries = report["rollouts"][name]
        masks = report["methods"][name]["masks"]
        check([e["mask"] for e in entries] == masks, f"{name} rollouts ran other masks")
        for e in entries:
            p, n = e["planned"], e["trials"]
            sigma = math.sqrt(p * (1.0 - p) / n)
            check(n == inputs["rollout_trials"] and abs(e["rate"] - p) <= ROLLOUT_SIGMAS * sigma,
                  f"{name} rollout of {e['robot']}: rate {e['rate']} vs planned {p}")


def check_plan_sweep(check, outputs, inputs, root):
    free = free_cells(inputs["scenario_data"])
    goal = tuple(inputs["scenario_data"]["goal"])
    successes = []
    for out, names in zip(outputs, inputs["target_sets"]):
        s = out["success"]
        successes.append(s)
        check(0.0 <= s <= 1.0, f"success {s} outside [0, 1]")
        check(out["targets"] == names, "plan solved other targets than requested")
        check(out["field"] == {"kind": "monte-carlo", "samples": inputs["samples"], "seed": inputs["seed"]},
              f"field block {out['field']} does not echo the requested samples and seed")
        if s > 0.0:
            path = [tuple(c) for c in out["path"]]
            steps_ok = all(abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1 for a, b in zip(path, path[1:]))
            cells = {tuple(t["cell"]) for t in inputs["scenario_data"]["targets"] if t["name"] in names}
            check(steps_ok and set(path) <= free, "path leaves the free cells or takes a non-orthogonal step")
            check(cells <= set(path) and path[-1] == goal, "path misses a target or does not end at the goal")
    check(all(a >= b - REL_TOL for a, b in zip(successes, successes[1:])),
          f"success rises as targets are added: {successes}")

    oracles, ContaminationField, PlanQuery, load_scenario = _load_program(root)
    sc = load_scenario(inputs["scenario"])
    field = ContaminationField.load(inputs["cache"])
    first = set(inputs["target_sets"][0])
    robot = sc.robot_names.index(inputs["robot"])
    targets = tuple(c for c, nm in zip(sc.targets, sc.target_names) if nm in first)
    query = PlanQuery(gridmap=sc.gridmap, kernel=sc.kernel(), field=field, start=sc.starts[robot],
                      targets=targets, horizon=sc.horizon)
    want = oracles.value_recursion_oracle(query)
    check(abs(successes[0] - want) <= ORACLE_TOL,
          f"{len(first)}-target success {successes[0]} differs from value_recursion_oracle {want}")


CHECKS = {
    "small-exact": check_small_exact,
    "paper-mc": check_paper_mc,
    "plan-sweep": check_plan_sweep,
}
