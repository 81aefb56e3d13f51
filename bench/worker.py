"""One fresh process of a benchmark run: the set-up, or the operations.

    python3 worker.py SPEC.json RESULT.json

SPEC (written by run.py) holds ``mode`` ("setup" or "ops"), ``root`` (the
checkout), ``scenario``, ``cache_argv`` (set-up only: the hazardplan argv that
builds the field cache, or null), ``op`` (one operation: a list of hazardplan
argv lists, each with its own ``--out`` file), ``seconds`` and ``trace``.
The program is driven in-process through ``hazardplan.cli.main``.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import hazardplan
    import hazardplan.cli
    import hazardplan.scenario

    if not Path(hazardplan.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"hazardplan imported from {hazardplan.__file__}, not {root / 'src'}")
    return hazardplan.cli, hazardplan.scenario


def _tracer(spec):
    if not spec["trace"]:
        return None
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _call(tracer, name, fn, *args):
    return tracer.call(name, fn, *args) if tracer else fn(*args)


def setup(spec, root: Path):
    """Import hazardplan, load and validate the scenario, build the field cache."""
    gc.collect()
    t0 = time.perf_counter()
    cli, scenario = _import_program(root)
    t_import = time.perf_counter()
    tracer = _tracer(spec)
    t1 = time.perf_counter()
    _call(tracer, "scenario.load_scenario", scenario.load_scenario, spec["scenario"])
    if spec["cache_argv"]:
        code = _call(tracer, "cli.main", cli.main, spec["cache_argv"])
        if code != 0:
            raise RuntimeError(f"field-cache build exited {code}")
    t2 = time.perf_counter()
    return {
        "setup_s": (t_import - t0) + (t2 - t1),
        "import_s": t_import - t0,
        "spans": tracer.spans if tracer else [],
    }


def _run_ops(cli, op, seconds, tracer, first_index):
    """Run whole operations until ``seconds`` have passed; at least one."""
    times, outputs, failed = [], [], 0
    start = time.perf_counter()
    index = first_index
    while True:
        if tracer:
            tracer.op = index
        gc.collect()
        t0 = time.perf_counter()
        ok = True
        for argv in op:
            try:
                code = _call(tracer, "cli.main", cli.main, argv)
            except Exception:  # a failing operation is counted, the run goes on
                traceback.print_exc()
                code = None
            if code != 0:
                print(f"operation failed (exit {code}): hazardplan {' '.join(argv)}", file=sys.stderr)
                ok = False
        dt = time.perf_counter() - t0
        index += 1
        if ok:
            times.append(dt)
            outputs.append([json.loads(Path(argv[argv.index("--out") + 1]).read_text()) for argv in op])
        else:
            failed += 1
        if time.perf_counter() - start >= seconds:
            return times, outputs, failed, index


def operations(spec, root: Path):
    cli, _ = _import_program(root)
    seconds = spec["seconds"]
    if not spec["trace"]:
        times, outputs, failed, n = _run_ops(cli, spec["op"], seconds, None, 0)
        # Peak memory is read here, before any output check runs.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"op_s": times, "outputs": outputs, "failed": failed, "attempted": n,
                "peak_rss_mb": peak_kb / 1024.0}
    # Traced run: half the time untraced, then the same operations traced.
    times, outputs, failed, n = _run_ops(cli, spec["op"], seconds / 2, None, 0)
    tracer = _tracer(spec)
    traced, traced_outputs, traced_failed, n2 = _run_ops(cli, spec["op"], seconds / 2, tracer, n)
    return {"op_s": times, "traced_op_s": traced, "outputs": outputs + traced_outputs,
            "failed": failed + traced_failed, "attempted": n2, "spans": tracer.spans}


def main(argv):
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"]).resolve()
    result = (setup if spec["mode"] == "setup" else operations)(spec, root)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
