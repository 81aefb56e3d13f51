"""Command-line driver.

Subcommands:
  plan      value and policy for one robot on an explicit target list
  allocate  full pipeline: field, allocators, ratios, guarantees, rollouts
  simulate  Monte-Carlo policy rollouts against the planned success value
  bounds    guarantee floors and theorem checks, from a scenario or raw numbers
  render    SVG or PGM drawings: heatmap, paths, region-map

Exit codes: 0 success, 2 validation error, 3 cap exceeded, 4 numeric
invariant violation. All randomness is seeded; --threads never changes any
reported number.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from ._version import VERSION
from .errors import HazardPlanError, ValidationError, VacuousBoundError
from .guarantees import guarantee_values, region_map
from .planner import require_dp_table_fits, rollout
from .render import heat_pgm, region_svg, scenario_svg
from .report import (
    DEFAULT_SAMPLES,
    PipelineOptions,
    build_field,
    derive_seed,
    objective_cache,
    run_pipeline,
)
from .scenario import Scenario, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_NUMERIC = 4

_ERROR_EXITS = {
    "ValidationError": EXIT_VALIDATION,
    "CapExceededError": EXIT_CAP,
    "NumericViolationError": EXIT_NUMERIC,
}


def _exit_code(kind: str) -> int:
    """The exit code of an error kind, a HazardPlanError class name."""
    return _ERROR_EXITS.get(kind, EXIT_VALIDATION)


def _add_common(p: argparse.ArgumentParser, scenario_optional: bool = False) -> None:
    if scenario_optional:
        p.add_argument("scenario", nargs="?", help="scenario JSON file")
    else:
        p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: scenario monte_carlo.seed or 0)")
    p.add_argument("--samples", type=int, default=None,
                   help="Monte-Carlo field samples (default: scenario value or "
                        f"{DEFAULT_SAMPLES})")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads; results never depend on this")
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    p.add_argument("--exact-field", action="store_true",
                   help="propagate the hazard distribution exactly (small grids)")
    p.add_argument("--field-cache", default=None,
                   help="npz path: reuse the contamination field if present, "
                        "else compute and store it")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hazardplan",
        description="Mission planning under a spreading hazard: single-robot "
                    "success-probability policies and multi-robot task allocation "
                    "with suboptimality guarantees.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve one robot's plan on listed targets")
    _add_common(p)
    p.add_argument("--robot", default="0", help="robot name or index (default 0)")
    p.add_argument("--targets", default="all",
                   help="comma-separated target names/indices, or all/none")

    p = sub.add_parser("allocate", help="run the allocation pipeline")
    _add_common(p)
    p.add_argument("--method", default="all",
                   help="comma list from forward,reverse,brute or 'all'")
    p.add_argument("--ratios", default="auto",
                   choices=("auto", "exact", "greedy", "none"),
                   help="how to obtain curvature/submodularity ratios")
    p.add_argument("--rollout-trials", type=int, default=0,
                   help="validate each allocation with this many rollouts")
    p.add_argument("--rollout-mode", default=None, choices=("model", "joint"),
                   help="model (default) or joint; needs --rollout-trials")
    p.add_argument("--region", type=int, default=0, metavar="RES",
                   help="attach a RES x RES guarantee region map")
    p.add_argument("--heatmap", action="store_true",
                   help="attach a contamination heatmap to the report")

    p = sub.add_parser("simulate", help="roll out one robot's policy")
    _add_common(p)
    p.add_argument("--robot", default="0", help="robot name or index")
    p.add_argument("--targets", default="all",
                   help="comma-separated target names/indices, or all/none")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--mode", default="model", choices=("model", "joint"),
                   help="model: per-step hazard field; joint: full hazard paths")

    p = sub.add_parser("bounds", help="guarantee floors and theorem checks")
    _add_common(p, scenario_optional=True)
    flavor = p.add_mutually_exclusive_group()
    flavor.add_argument("--exact", action="store_true",
                        help="exact ratios by enumeration (capped)")
    flavor.add_argument("--greedy", action="store_true",
                        help="one-sided ratio estimates from greedy traces")
    p.add_argument("--f-star", type=float, default=None,
                   help="evaluate floors for this optimum without a scenario")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--region", type=int, default=0, metavar="RES")

    p = sub.add_parser("render", help="draw the scenario, heat, paths, or region map")
    _add_common(p, scenario_optional=True)
    p.add_argument("--what", required=True,
                   choices=("heatmap", "paths", "region-map"))
    p.add_argument("--format", default=None, choices=("svg", "pgm"),
                   help="output format (default: from --out suffix, else svg)")
    p.add_argument("--method", default=None,
                   choices=("forward", "reverse", "brute"),
                   help="whose allocation to draw for --what paths (default forward)")
    p.add_argument("--f-star", type=float, default=None,
                   help="draw the region map for this optimum directly")
    return ap


def _pipeline_options(scenario: Scenario, args, **extra) -> PipelineOptions:
    samples = args.samples if args.samples is not None else scenario.mc_samples
    seed = args.seed if args.seed is not None else scenario.mc_seed
    base = dict(
        samples=samples if samples is not None else DEFAULT_SAMPLES,
        seed=seed if seed is not None else 0,
        threads=args.threads,
        field_kind="exact" if args.exact_field else "estimate",
        field_cache=args.field_cache,
    )
    if scenario.cap_brute is not None:
        base["brute_cap"] = scenario.cap_brute
    if scenario.cap_exact_hazard is not None:
        base["exact_cap"] = scenario.cap_exact_hazard
    base.update(extra)
    return PipelineOptions(**base)


def _parse_target_list(scenario: Scenario, text: str) -> int:
    """Comma list of target names or indices to a bitmask; all/none keywords."""
    text = text.strip()
    if text.lower() == "all":
        return (1 << scenario.n_tasks) - 1
    if text.lower() == "none" or text == "":
        return 0
    mask = 0
    by_name = {nm: i for i, nm in enumerate(scenario.target_names)}
    for raw in text.split(","):
        token = raw.strip()
        if token in by_name:
            b = by_name[token]
        elif token.isdigit() and int(token) < scenario.n_tasks:
            b = int(token)
        else:
            raise ValidationError(
                f"unknown target {token!r}; names are "
                f"{', '.join(scenario.target_names)}"
            )
        if mask >> b & 1:
            raise ValidationError(f"target {token!r} listed twice")
        mask |= 1 << b
    return mask


def _parse_robot(scenario: Scenario, text: str) -> int:
    token = text.strip()
    if token in scenario.robot_names:
        return scenario.robot_names.index(token)
    if token.isdigit() and int(token) < scenario.n_robots:
        return int(token)
    raise ValidationError(
        f"unknown robot {token!r}; names are {', '.join(scenario.robot_names)}"
    )


def _emit(payload, out: Optional[str]) -> None:
    if isinstance(payload, (dict, list)):
        payload = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        mode = "wb" if isinstance(payload, bytes) else "w"
        with open(out, mode) as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _report_exit(report: Dict) -> int:
    """The exit code of the worst error the report records: a method's or
    the ratios'."""
    blocks = [*report["methods"].values(), report.get("ratios", {})]
    return max(
        (_exit_code(block["error_kind"]) for block in blocks if "error_kind" in block),
        default=EXIT_OK,
    )


def _subset_plan(args):
    """Scenario, options and --robot index, the plan of the --targets subset
    (its own dp_solve), and the output's head: robot name and target names."""
    scenario = load_scenario(args.scenario)
    robot = _parse_robot(scenario, args.robot)
    mask = _parse_target_list(scenario, args.targets)
    # the subset's policy DP: refuse it before the field
    require_dp_table_fits(mask.bit_count(), scenario.gridmap.n_free, scenario.horizon)
    opts = _pipeline_options(scenario, args)
    cache = objective_cache(scenario, build_field(scenario, opts))
    result = cache.solve(robot, mask)
    head = {
        "robot": scenario.robot_names[robot],
        "targets": [scenario.target_names[t]
                    for t in range(scenario.n_tasks) if mask >> t & 1],
    }
    return scenario, opts, robot, result, head


def _cmd_plan(args) -> int:
    _, _, _, result, head = _subset_plan(args)
    query = result.query
    fld = query.field
    out = {
        **head,
        "start": list(query.start),
        "horizon": query.horizon,
        "field": {"kind": fld.kind, "samples": fld.samples, "seed": fld.seed},
        "success": result.success,
        "diagnostics": list(result.diagnostics),
        "path": [list(c) for c in result.greedy_path()],
    }
    _emit(out, args.out)
    return EXIT_OK


def _allocate_methods(args) -> Tuple[str, ...]:
    if args.method == "all":
        return ("forward", "reverse", "brute")
    return tuple(m.strip() for m in args.method.split(",") if m.strip())


def _cmd_allocate(args) -> int:
    scenario = load_scenario(args.scenario)
    methods = _allocate_methods(args)
    opts = _pipeline_options(
        scenario, args,
        methods=methods,
        ratio_source=args.ratios,
        rollout_trials=args.rollout_trials,
        rollout_mode=args.rollout_mode or "model",
        region_resolution=args.region,
        heatmap=args.heatmap,
    )
    result = run_pipeline(scenario, opts)
    _emit(result.report, args.out)
    return _report_exit(result.report)


def _cmd_simulate(args) -> int:
    scenario, opts, robot, result, head = _subset_plan(args)
    rr = rollout(
        result, trials=args.trials, seed=derive_seed(opts.seed, 0, robot),
        model=scenario.hazard if args.mode == "joint" else None,
    )
    _emit({**head, **rr.to_dict()}, args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.scenario is None:
        out: Dict = {"alpha": args.alpha, "gamma": args.gamma, "f_star": args.f_star}
        try:
            g_fwd, g_rev = guarantee_values(args.f_star, args.alpha, args.gamma)
            out["g_forward"] = g_fwd
            out["g_reverse"] = g_rev
        except VacuousBoundError as exc:
            out["vacuous"] = True
            out["reason"] = str(exc)
        if args.region:
            out["region_map"] = region_map(args.f_star, args.region).to_dict()
        _emit(out, args.out)
        return EXIT_OK

    scenario = load_scenario(args.scenario)
    source = "exact" if args.exact else "greedy" if args.greedy else "auto"
    opts = _pipeline_options(
        scenario, args,
        methods=("forward", "reverse", "brute"),
        ratio_source=source,
        region_resolution=args.region,
    )
    result = run_pipeline(scenario, opts)
    rep = result.report
    out = {
        "scenario": rep["scenario"]["name"],
        "baselines": rep["baselines"],
        "objectives": {
            name: block.get("objective")
            for name, block in rep["methods"].items()
        },
        "ratios": rep.get("ratios"),
        "guarantees": rep.get("guarantees"),
    }
    if "region_map" in rep:
        out["region_map"] = rep["region_map"]
    _emit(out, args.out)
    return _report_exit(rep)


def _render_format(args) -> str:
    if args.format:
        return args.format
    if args.out and args.out.lower().endswith(".pgm"):
        return "pgm"
    return "svg"


def _cmd_render(args) -> int:
    if args.what == "region-map":
        if args.f_star is not None:
            rm = region_map(args.f_star, 100)
            mark = None
        else:
            scenario = load_scenario(args.scenario)
            opts = _pipeline_options(
                scenario, args, methods=("forward", "reverse", "brute"),
                ratio_source="auto",
            )
            result = run_pipeline(scenario, opts)
            f_star = result.report["methods"].get("brute", {}).get("objective")
            if f_star is None:
                raise ValidationError(
                    "region map needs the optimum; brute force failed or was capped"
                )
            rm = region_map(f_star, 100)
            g = result.report.get("guarantees", {})
            mark = (
                (g["alpha"], g["gamma"]) if "alpha" in g and "gamma" in g else None
            )
        _emit(region_svg(rm, mark=mark), args.out)
        return EXIT_OK

    scenario = load_scenario(args.scenario)
    if args.what == "heatmap":
        fld = build_field(scenario, _pipeline_options(scenario, args))
        heat = fld.marginals[scenario.horizon]
        if _render_format(args) == "pgm":
            _emit(heat_pgm(scenario.gridmap, heat), args.out)
        else:
            _emit(scenario_svg(scenario, heat=heat,
                               title=f"{scenario.name}: contamination by step "
                                     f"{scenario.horizon}"), args.out)
        return EXIT_OK

    # paths: draw the chosen allocator's greedy trajectories over the heat.
    method = args.method or "forward"
    opts = _pipeline_options(scenario, args, methods=(method,), ratio_source="none")
    result = run_pipeline(scenario, opts)
    block = result.report["methods"][method]
    if "error" in block:
        raise ValidationError(
            f"{method} allocation failed: {block['error']}"
        )
    paths = []
    for r in range(scenario.n_robots):
        plan = result.cache.solve(r, block["masks"][r])
        paths.append((scenario.robot_names[r], plan.greedy_path()))
    title = (
        f"{scenario.name}: {method} allocation, F = {block['objective']:.3f}"
    )
    heat = result.contamination.marginals[scenario.horizon]
    _emit(scenario_svg(scenario, heat=heat, paths=paths, title=title), args.out)
    return EXIT_OK


_COMMANDS = {
    "plan": _cmd_plan,
    "allocate": _cmd_allocate,
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "render": _cmd_render,
}


class _Rule(NamedTuple):
    """One refusal the arguments alone decide. A run of a subcommand in
    commands for which hit(args) is truthy exits 2 with message, formatted
    with the args as a and hit's value as hit. flags names the options hit
    reads."""

    commands: Tuple[str, ...]
    flags: Tuple[str, ...]
    hit: Callable
    message: str


_EVERY_COMMAND = tuple(_COMMANDS)
_GREEDY = {"forward", "reverse"}


def _given(*pairs) -> str:
    """The flags of the (flag, given) pairs that were given, comma-separated."""
    return ", ".join(flag for flag, given in pairs if given)


def _unread_by_f_star(a) -> str:
    if a.f_star is None or a.scenario or not (a.command == "bounds" or a.what == "region-map"):
        return ""
    return _given(("--seed", a.seed is not None), ("--samples", a.samples is not None),
                  ("--exact-field", a.exact_field), ("--exact", getattr(a, "exact", False)),
                  ("--greedy", getattr(a, "greedy", False)), ("--field-cache", a.field_cache))


# Checked in this order before anything loads: the first rule that hits wins.
_RULES = (
    _Rule(_EVERY_COMMAND, ("--samples", "--exact-field"),
          lambda a: a.exact_field and a.samples is not None,
          "--samples sizes a Monte-Carlo field, but --exact-field builds an exact one; "
          "drop one of them"),
    _Rule(("allocate",), ("--rollout-mode", "--rollout-trials"),
          lambda a: a.rollout_mode is not None and not a.rollout_trials,
          "--rollout-mode picks how --rollout-trials are run, and no trials were asked "
          "for; add --rollout-trials N or drop --rollout-mode"),
    _Rule(("allocate",), ("--region", "--method"),
          lambda a: a.region and "brute" not in _allocate_methods(a),
          "--region maps the guarantees at brute force's optimum, and --method runs no "
          "brute; add brute to --method or drop --region"),
    _Rule(("allocate",), ("--region", "--ratios"), lambda a: a.region and a.ratios == "none",
          "--region maps the guarantees, and --ratios none computes none; pick a "
          "--ratios source or drop --region"),
    _Rule(("allocate",), ("--rollout-trials", "--method"),
          lambda a: a.rollout_trials > 0 and not _GREEDY & set(_allocate_methods(a)),
          "--rollout-trials rolls out the forward and reverse allocations, and --method "
          "runs neither; add one of them or drop --rollout-trials"),
    _Rule(("bounds", "render"), ("--f-star", "--seed", "--samples", "--exact-field",
                                 "--exact", "--greedy", "--field-cache"),
          _unread_by_f_star, "--f-star reads no scenario, so nothing uses {hit}; drop them"),
    _Rule(("render",), ("--method", "--what"),
          lambda a: a.method is not None and a.what != "paths",
          "--method picks whose paths render --what paths draws, not {a.what}; drop --method"),
    _Rule(("render",), ("--format", "--out", "--what"),
          lambda a: _render_format(a) != "svg" and a.what != "heatmap",
          "--what {a.what} renders as SVG only"),
    _Rule(("render",), ("--format", "--out"), lambda a: _render_format(a) == "pgm" and not a.out,
          "binary output needs --out FILE"),
    _Rule(("render",), ("--f-star", "--what"),
          lambda a: a.f_star is not None and a.what != "region-map",
          "--f-star applies to --what region-map, not {a.what}"),
    _Rule(("render",), ("--f-star",), lambda a: a.f_star is not None and a.scenario,
          "render --what region-map draws either the given --f-star or the scenario's "
          "optimum; drop one of them"),
    _Rule(("bounds",), ("--f-star", "--alpha", "--gamma"),
          lambda a: a.scenario is not None and _given(
              ("--f-star", a.f_star is not None), ("--alpha", a.alpha is not None),
              ("--gamma", a.gamma is not None)),
          "bounds with a scenario computes F*, alpha and gamma from it; drop {hit} or "
          "the scenario"),
    _Rule(("bounds",), ("--f-star", "--alpha", "--gamma"),
          lambda a: a.scenario is None and None in (a.f_star, a.alpha, a.gamma),
          "bounds without a scenario needs --f-star, --alpha and --gamma"),
    _Rule(("simulate",), ("--trials",), lambda a: a.trials < 1,
          "trial count must be >= 1, got {a.trials}"),
    _Rule(_EVERY_COMMAND, ("--f-star",),
          lambda a: not a.scenario and getattr(a, "f_star", None) is None,
          "this command needs a scenario file"),
    _Rule(("plan", "allocate", "bounds", "render"),
          ("--seed", "--exact-field", "--rollout-trials"),
          lambda a: a.exact_field and a.seed is not None and not getattr(a, "rollout_trials", 0),
          "--seed seeds a Monte-Carlo field and rollouts, and with --exact-field this run "
          "draws neither; drop --seed"),
    _Rule(("allocate",), ("--ratios", "--method"),
          lambda a: a.ratios == "greedy" and not _GREEDY & set(_allocate_methods(a)),
          "--ratios greedy estimates the ratios from the forward and reverse traces, and "
          "--method runs neither; add one of them or pick another --ratios source"),
)


def _refuse(args) -> None:
    """Raise ValidationError with the message of the first rule that hits."""
    for rule in _RULES:
        hit = args.command in rule.commands and rule.hit(args)
        if hit:
            raise ValidationError(rule.message.format(a=args, hit=hit))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _refuse(args)
    return _COMMANDS[args.command](args)


def entry(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return main(argv)
    except HazardPlanError as exc:
        code = _exit_code(type(exc).__name__)
        prefix = "internal error" if code == EXIT_NUMERIC else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(entry())
