"""Benchmark of the hazardplan pipeline: three workloads, end to end and per layer.

    python3 bench/run.py --workload {small-exact,paper-mc,plan-sweep,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from its
``src/``. Every workload runs in fresh single-threaded Python processes, one
at a time: a warm-up set-up, several timed set-ups, then one process that
repeats the operation for ``--seconds`` seconds. The outputs are checked
after the timed processes have ended. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Run outputs go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_outputs, free_cells  # noqa: E402
from tracing import layer_metrics  # noqa: E402

REQUIRED = ("src/hazardplan/cli.py", "tests/oracles.py",
            "scenarios/small.json", "scenarios/paper17x13.json")
DEADLINE_S = 150.0
# One BLAS thread, and a fixed string-hash seed so every process lays out alike.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

PAPER = "scenarios/paper17x13.json"
PLAN_SWEEP_SAMPLES = 1000
PLAN_SWEEP_EXTRA_TARGETS = 5
PLAN_SWEEP_SIZES = (5, 8, 10)
ROLLOUT_TRIALS = 100_000


class Workload:
    """Inputs of one run: the scenario, the set-up argv and the operation."""

    def __init__(self, scenario, op, setups, cache_argv=None, check_inputs=None):
        self.scenario = scenario
        self.op = op
        self.setups = setups
        self.cache_argv = cache_argv  # set-up index -> argv that builds the field cache
        self.check_inputs = dict(check_inputs or {}, scenario=str(ROOT / scenario))


def small_exact(work: Path, seed: int) -> Workload:
    # Exact propagation and enumeration: the inputs do not depend on the seed.
    scenario = "scenarios/small.json"
    op = [["allocate", scenario, "--exact-field", "--ratios", "exact", "--heatmap",
           "--threads", "1", "--out", str(work / "report.json")]]
    return Workload(scenario, op, setups=7)


def paper_mc(work: Path, seed: int) -> Workload:
    samples = json.loads((ROOT / PAPER).read_text())["monte_carlo"]["samples"]
    op = [["allocate", PAPER, "--method", "forward,reverse", "--ratios", "greedy",
           "--rollout-trials", str(ROLLOUT_TRIALS), "--seed", str(seed), "--threads", "1",
           "--out", str(work / "report.json")]]
    return Workload(PAPER, op, setups=7, check_inputs={
        "seed": seed, "samples": samples, "rollout_trials": ROLLOUT_TRIALS})


def plan_sweep_scenario(seed: int):
    """paper17x13 plus five targets at seeded free cells.

    The extra targets avoid the robot starts, the goal, the existing targets
    and the initially contaminated cells.
    """
    data = json.loads((ROOT / PAPER).read_text())
    taken = {tuple(r["start"]) for r in data["robots"]} | {tuple(data["goal"])}
    taken |= {tuple(t["cell"]) for t in data["targets"]}
    taken |= {tuple(c) for h in data["hazards"] for c in h["cells"]}
    cells = random.Random(seed).sample(sorted(free_cells(data) - taken), PLAN_SWEEP_EXTRA_TARGETS)
    data["name"] = f"{data['name']}-sweep{seed}"
    data["targets"] += [{"name": f"x{i + 1}", "cell": list(c)} for i, c in enumerate(cells)]
    return data


def plan_sweep(work: Path, seed: int) -> Workload:
    data = plan_sweep_scenario(seed)
    scenario = str(work / "plan-sweep.json")
    Path(scenario).write_text(json.dumps(data, indent=1))
    names = [t["name"] for t in data["targets"]]
    robot = data["robots"][0]["name"]
    target_sets = [names[:k] for k in PLAN_SWEEP_SIZES]
    setups = 5

    def plan(targets, out, i):
        # Set-up i builds the cache at a fresh path; the operations read the last one.
        return ["plan", scenario, "--robot", robot, "--targets", targets,
                "--samples", str(PLAN_SWEEP_SAMPLES), "--seed", str(seed), "--threads", "1",
                "--field-cache", str(work / f"field-{i}.npz"), "--out", str(work / out)]

    op = [plan(",".join(t), f"plan-t{len(t)}.json", setups) for t in target_sets]
    return Workload(
        scenario, op, setups,
        cache_argv=lambda i: plan("none", "setup-plan.json", i),
        check_inputs={"scenario_data": data, "target_sets": target_sets, "robot": robot,
                      "samples": PLAN_SWEEP_SAMPLES, "seed": seed,
                      "cache": str(work / f"field-{setups}.npz")},
    )


WORKLOADS = {"small-exact": small_exact, "paper-mc": paper_mc, "plan-sweep": plan_sweep}


class BenchError(RuntimeError):
    pass


def run_child(spec, work: Path, label: str, deadline: float):
    """Run worker.py on one spec in a fresh interpreter and return its result."""
    spec_path = work / f"{label}.spec.json"
    result_path = work / f"{label}.result.json"
    spec_path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")} | CHILD_ENV
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), str(spec_path), str(result_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{label} did not finish before the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{label} exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def write_spans(path: Path, processes):
    with open(path, "w") as fh:
        for process, spans in processes:
            for s in spans:
                fh.write(json.dumps({"process": process, "id": s[0], "name": s[1], "op": s[2],
                                     "parent": s[3], "start": s[4], "end": s[5], "attrs": s[6]}) + "\n")


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float):
    work = ROOT / ".bench_out" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[name](work, seed)

    setups = []
    for i in range(wl.setups + 1):
        spec = {"mode": "setup", "root": str(ROOT), "scenario": wl.scenario, "trace": trace,
                "cache_argv": wl.cache_argv(i) if wl.cache_argv else None}
        result = run_child(spec, work, f"setup-{i}", deadline)
        if i:  # set-up 0 only warms the bytecode and file caches
            setups.append(result)

    spec = {"mode": "ops", "root": str(ROOT), "op": wl.op, "seconds": seconds, "trace": trace}
    ops = run_child(spec, work, "ops", deadline)

    if not ops["op_s"] or (trace and not ops["traced_op_s"]):
        raise BenchError(f"{name}: no operation succeeded")
    check = check_outputs(name, ops["outputs"], wl.check_inputs, ROOT)

    if trace:
        metrics = layer_metrics(setups, ops["spans"], ops["op_s"], ops["traced_op_s"])
        processes = [(f"setup-{i + 1}", r["spans"]) for i, r in enumerate(setups)] + [("ops", ops["spans"])]
        write_spans(work / "spans.jsonl", processes)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setups), "unit": "s"},
            "op_s": {"value": statistics.median(ops["op_s"]), "unit": "s"},
            "peak_rss_mb": {"value": ops["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not check.failures, "attempted": ops["attempted"], "failed": ops["failed"], "metrics": metrics}

    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    if not trace:
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s   (median of {len(setups)} fresh set-ups)")
        print(f"  op_s         {metrics['op_s']['value']:.4f} s   (median of {len(ops['op_s'])} operations)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"  operations   attempted {ops['attempted']}  failed {ops['failed']}")
    print(f"  checks       {check.count - len(check.failures)}/{check.count} passed")
    for failure in check.failures:
        print(f"    FAILED: {failure}")

    (work / "result.json").write_text(json.dumps(dict(result, setup_s=[r["setup_s"] for r in setups],
                                                      op_s=ops["op_s"], op=wl.op), indent=1))
    for path in work.iterdir():  # keep the result and the spans, drop caches and outputs
        if path.name not in ("result.json", "spans.jsonl"):
            path.unlink()
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a hazardplan checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), deadline) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
