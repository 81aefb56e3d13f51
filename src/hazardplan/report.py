"""End-to-end pipeline: hazard field, per-robot planning, allocation,
guarantees, rollouts, all folded into one plain-dict report.

Reports are deterministic for a fixed (seed, samples) pair: Monte-Carlo draws
come from seeded streams in a fixed order, methods always run in the
canonical order forward, reverse, brute so cache-hit patterns are
reproducible, and the only nondeterministic entries are wall-clock
"seconds" fields, which canonical_report_json strips before serializing.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .allocation import (
    BRUTE_FORCE_CAP,
    GreedyTrace,
    brute_force_optimal,
    forward_greedy,
    group_success,
    reverse_greedy,
)
from ._version import VERSION
from .errors import (
    CapExceededError,
    HazardPlanError,
    InsufficientObservationsError,
    NumericViolationError,
    ValidationError,
    VacuousBoundError,
)
from .grid import Cell
from .guarantees import (
    RatioReport,
    combine_ratio_reports,
    exact_ratios,
    exact_ratios_fit,
    greedy_ratios,
    region_map,
    require_region_resolution,
    theorem_bounds,
)
from .hazard import (
    EXACT_HAZARD_CELL_CAP,
    ContaminationField,
    estimate_contamination_field,
    exact_contamination_field,
)
from .planner import ObjectiveCache, require_dp_table_fits, rollout
from .scenario import Scenario, scenario_hash

METHOD_ORDER = ("forward", "reverse", "brute")
DEFAULT_SAMPLES = 10_000


@dataclass
class PipelineOptions:
    """Knobs for one pipeline run; defaults favor the Monte-Carlo field."""

    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    field_kind: str = "estimate"  # "estimate" or "exact"
    methods: Tuple[str, ...] = METHOD_ORDER
    rollout_trials: int = 0
    rollout_mode: str = "model"  # "model" or "joint"
    ratio_source: str = "auto"  # "auto", "exact", "greedy", "none"
    brute_cap: int = BRUTE_FORCE_CAP
    exact_cap: int = EXACT_HAZARD_CELL_CAP
    region_resolution: int = 0
    heatmap: bool = False
    field_cache: Optional[str] = None  # npz path of the field, read or written

    def __post_init__(self):
        if self.samples < 1:
            raise ValidationError(f"sample count must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.rollout_trials < 0:
            raise ValidationError(f"rollout trial count must be >= 0, got {self.rollout_trials}")
        if self.region_resolution < 0:
            raise ValidationError(
                f"region resolution must be >= 0, got {self.region_resolution}"
            )
        if self.region_resolution > 0:
            require_region_resolution(self.region_resolution)
        if self.exact_cap < 1:
            raise ValidationError(f"exact cell cap must be >= 1, got {self.exact_cap}")
        if self.field_kind not in ("estimate", "exact"):
            raise ValidationError(f"unknown field kind {self.field_kind!r}")
        if self.rollout_mode not in ("model", "joint"):
            raise ValidationError(f"unknown rollout mode {self.rollout_mode!r}")
        if self.ratio_source not in ("auto", "exact", "greedy", "none"):
            raise ValidationError(f"unknown ratio source {self.ratio_source!r}")
        bad = [m for m in self.methods if m not in METHOD_ORDER]
        if bad:
            raise ValidationError(f"unknown methods: {', '.join(bad)}")
        self.methods = tuple(m for m in METHOD_ORDER if m in self.methods)


@dataclass
class PipelineResult:
    """Report plus the live objects tests and renderers may want to reuse."""

    report: Dict
    scenario: Scenario
    cache: ObjectiveCache
    contamination: ContaminationField
    traces: Dict[str, GreedyTrace] = field(default_factory=dict)


def derive_seed(*parts: int) -> int:
    """Stable 63-bit stream seed from integer coordinates."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0] & np.uint64(0x7FFFFFFFFFFFFFFF))


def _provenance(kind: str, samples: int, seed: int) -> str:
    """What identifies a field: its kind, plus samples and seed if sampled."""
    if kind == "exact":
        return "exact"
    return f"{kind} ({samples} samples, seed {seed})"


def build_field(scenario: Scenario, options: PipelineOptions) -> ContaminationField:
    """The contamination field the planner conditions on.

    If options.field_cache names a file, the field it holds is returned, but
    only if it is the field the options ask for on this scenario: the same
    kind (and, if sampled, samples and seed), cell count and scenario hash,
    and a horizon at least the scenario's. Anything else raises
    ValidationError. The exact cap is not compared: it never changes a
    field's bits. Otherwise a new field is built, stamped with the
    scenario's hash and, if options.field_cache is given, saved there.
    """
    path = options.field_cache
    if path and os.path.exists(path):
        fld = ContaminationField.load(path)
        have = _provenance(fld.kind, fld.samples, fld.seed)
        want = _provenance(
            "exact" if options.field_kind == "exact" else "monte-carlo",
            options.samples, options.seed,
        )
        n_free, horizon = scenario.gridmap.n_free, scenario.horizon
        for bad, why in (
            (have != want, f"was built as {have}, but this run asks for {want}; "
                           "rebuild it or match its options"),
            (fld.n_free != n_free, f"covers {fld.n_free} cells, scenario has {n_free}"),
            (fld.horizon < horizon, f"horizon {fld.horizon} < scenario horizon {horizon}"),
            (fld.scenario_hash != scenario_hash(scenario), "was built for a different scenario"),
        ):
            if bad:
                raise ValidationError(f"cached field {why}")
        return fld
    model = (scenario.gridmap, scenario.hazard, scenario.horizon)
    if options.field_kind == "exact":
        fld = exact_contamination_field(*model, cell_cap=options.exact_cap)
    else:
        fld = estimate_contamination_field(*model, samples=options.samples, seed=options.seed)
    fld.scenario_hash = scenario_hash(scenario)
    if path:
        fld.save(path)
    return fld


def objective_cache(scenario: Scenario, contamination: ContaminationField) -> ObjectiveCache:
    """The memoized per-robot values of the scenario's robots and targets."""
    return ObjectiveCache(
        scenario.gridmap,
        scenario.kernel(),
        contamination,
        scenario.starts,
        scenario.targets,
        scenario.horizon,
    )


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def strip_timing(report):
    """Copy of the report without wall-clock fields (keys named 'seconds')."""
    if isinstance(report, dict):
        return {k: strip_timing(v) for k, v in report.items() if k != "seconds"}
    if isinstance(report, list):
        return [strip_timing(v) for v in report]
    return report


def canonical_report_json(report: Dict) -> str:
    """Canonical serialization without timings: identical runs, identical bytes."""
    return json.dumps(_jsonable(strip_timing(report)), sort_keys=True, separators=(",", ":"))


def _scenario_block(scenario: Scenario) -> Dict:
    return {
        "name": scenario.name,
        "hash": scenario_hash(scenario),
        "grid": {
            "width": scenario.gridmap.width,
            "height": scenario.gridmap.height,
            "free_cells": scenario.gridmap.n_free,
            "obstacles": len(scenario.gridmap.obstacles),
        },
        "goal": list(scenario.gridmap.goal),
        "horizon": scenario.horizon,
        "robots": [
            {"name": nm, "start": list(c)}
            for nm, c in zip(scenario.robot_names, scenario.starts)
        ],
        "targets": [
            {"name": nm, "cell": list(c)}
            for nm, c in zip(scenario.target_names, scenario.targets)
        ],
        "hazards": [
            {"label": s.label, "cells": len(s.cells), "theta": s.theta}
            for s in scenario.hazard.sources
        ],
        "motion": scenario.motion_kind,
    }


def _named_allocation(scenario: Scenario, masks: Tuple[int, ...]) -> Dict[str, List[str]]:
    return {
        scenario.robot_names[r]: [
            scenario.target_names[t]
            for t in range(scenario.n_tasks)
            if masks[r] >> t & 1
        ]
        for r in range(scenario.n_robots)
    }


def _greedy_block(
    scenario: Scenario,
    cache: ObjectiveCache,
    masks: Tuple[int, ...],
    trace: GreedyTrace,
    seconds: float,
) -> Dict:
    return {
        "masks": list(masks),
        "allocation": _named_allocation(scenario, masks),
        "objective": group_success(cache, masks),
        "per_robot": [cache.value(r, masks[r]) for r in range(cache.n_robots)],
        "plan_solves": trace.plan_solves,
        "iterations": len(trace.iterations),
        "excluded": list(trace.excluded),
        "notes": list(trace.notes),
        "seconds": seconds,
    }


def _ratio_blocks(
    options: PipelineOptions,
    cache: ObjectiveCache,
    traces: Dict[str, GreedyTrace],
) -> Tuple[RatioReport, Dict]:
    """Pick the "auto", "exact" or "greedy" ratios the guarantees will use, plus raw data."""
    raw: Dict = {}
    want = options.ratio_source
    if want == "auto":
        want = "exact" if exact_ratios_fit(cache.n_tasks * cache.n_robots) else "greedy"
        raw["auto_selected"] = want
    if want == "exact":
        chosen = exact_ratios(cache)
        raw["exact"] = chosen.to_dict()
        return chosen, raw
    per_trace = {}
    reports = []
    for name in ("forward", "reverse"):
        trace = traces.get(name)
        if trace is None or trace.degenerate:
            continue
        try:
            rep = greedy_ratios(trace)
        except InsufficientObservationsError as exc:
            per_trace[name] = {"error": str(exc)}
            continue
        per_trace[name] = rep.to_dict()
        reports.append(rep)
    raw["greedy"] = per_trace
    if not reports:
        raise InsufficientObservationsError(
            "no greedy trace yields ratio observations; run forward or reverse"
        )
    chosen = combine_ratio_reports(reports)
    raw["combined"] = chosen.to_dict()
    return chosen, raw


def run_pipeline(scenario: Scenario, options: PipelineOptions) -> PipelineResult:
    """Execute the requested stages and assemble the report.

    With exact ratios that skipped no triple, a violated guarantee inequality
    is an implementation fault and raises NumericViolationError. Otherwise a
    violated check is recorded in the report and does not raise: greedy
    (one-sided) estimates may undershoot the true curvature, and a skipped
    triple (a pair whose marginal at B is 0) puts the objective outside the
    regime the theorems are stated in.
    """
    report: Dict = {"scenario": _scenario_block(scenario), "version": VERSION}

    # the baselines price each robot's value lattice over every target:
    # refuse it before the field
    require_dp_table_fits(scenario.n_tasks, scenario.gridmap.n_free)
    t0 = time.perf_counter()
    contamination = build_field(scenario, options)
    # samples are the field's own: an exact field draws none.
    report["determinism"] = {
        "seed": options.seed,
        "samples": contamination.samples,
        "field_kind": options.field_kind,
    }
    report["field"] = {
        "kind": contamination.kind,
        "samples": contamination.samples,
        "seed": contamination.seed,
        "horizon": contamination.horizon,
        "flagged_entries": int(contamination.flagged.sum()),
        "seconds": time.perf_counter() - t0,
    }

    cache = objective_cache(scenario, contamination)
    full = (1 << scenario.n_tasks) - 1
    baselines = {
        "f_empty": group_success(cache, [0] * scenario.n_robots),
        "f_full": group_success(cache, [full] * scenario.n_robots),
    }
    report["baselines"] = baselines

    traces: Dict[str, GreedyTrace] = {}
    methods: Dict[str, Dict] = {}
    objectives: Dict[str, float] = {}
    # looked up at call time, so a wrapped module attribute is the one called
    greedy = {"forward": forward_greedy, "reverse": reverse_greedy}
    for name in options.methods:
        t0 = time.perf_counter()
        try:
            if name in greedy:
                masks, trace = greedy[name](cache)
                traces[name] = trace
                methods[name] = _greedy_block(
                    scenario, cache, masks, trace, time.perf_counter() - t0
                )
            else:
                solves0 = cache.solve_count
                masks, f_star = brute_force_optimal(cache, cap=options.brute_cap)
                methods[name] = {
                    "masks": list(masks),
                    "allocation": _named_allocation(scenario, masks),
                    "objective": f_star,
                    "plan_solves": cache.solve_count - solves0,
                    "seconds": time.perf_counter() - t0,
                }
            objectives[name] = methods[name]["objective"]
        except HazardPlanError as exc:
            # One failing method must not abort the others; the CLI maps the
            # recorded kind back to an exit code.
            methods[name] = {
                "error": str(exc),
                "error_kind": type(exc).__name__,
                "seconds": time.perf_counter() - t0,
            }
    report["methods"] = methods

    ratio_report: Optional[RatioReport] = None
    if (
        options.ratio_source != "none"
        and cache.n_tasks > 0
        and (traces or "brute" in methods)
    ):
        t0 = time.perf_counter()
        try:
            ratio_report, raw = _ratio_blocks(options, cache, traces)
        except (CapExceededError, InsufficientObservationsError) as exc:
            raw = {"error": str(exc), "error_kind": type(exc).__name__}
        raw["seconds"] = time.perf_counter() - t0
        report["ratios"] = raw

    if ratio_report is not None:
        try:
            bounds = theorem_bounds(
                f_empty=baselines["f_empty"],
                f_full=baselines["f_full"],
                f_star=objectives.get("brute"),
                f_forward=objectives.get("forward"),
                f_reverse=objectives.get("reverse"),
                alpha=ratio_report.alpha,
                gamma=ratio_report.gamma,
                ratio_kind=ratio_report.kind,
            )
            report["guarantees"] = bounds.to_dict()
            # the theorems are stated for objectives where every added pair
            # changes F; a skipped (tied) triple leaves that regime
            strict = ratio_report.skipped_alpha == 0 and ratio_report.skipped_gamma == 0
            if ratio_report.kind.startswith("exact") and strict:
                for side in ("forward", "reverse"):
                    ok = getattr(bounds, f"{side}_ok")
                    if ok is False:
                        raise NumericViolationError(
                            f"{side} guarantee violated with exact ratios: "
                            f"lhs={getattr(bounds, side + '_lhs')} "
                            f"rhs={getattr(bounds, side + '_rhs')}"
                        )
        except VacuousBoundError as exc:
            report["guarantees"] = {
                "vacuous": True,
                "reason": str(exc),
                "alpha": ratio_report.alpha,
                "gamma": ratio_report.gamma,
                "ratio_kind": ratio_report.kind,
            }
        if options.region_resolution > 0 and objectives.get("brute") is not None:
            rm = region_map(objectives["brute"], options.region_resolution)
            report["region_map"] = rm.to_dict()

    if options.rollout_trials > 0:
        report["rollouts"] = {}
        rolled = [name for name in ("forward", "reverse")
                  if name in methods and "error" not in methods[name]]
        # one policy sweep plans every (robot, mask) the loop rolls out
        cache.plans([(r, methods[name]["masks"][r])
                     for name in rolled for r in range(scenario.n_robots)])
        for mi, name in enumerate(("forward", "reverse")):
            if name not in rolled:
                continue
            entries = []
            for r in range(scenario.n_robots):
                mask = methods[name]["masks"][r]
                result = cache.solve(r, mask)
                rr = rollout(
                    result,
                    trials=options.rollout_trials,
                    seed=derive_seed(options.seed, mi, r),
                    model=scenario.hazard if options.rollout_mode == "joint" else None,
                )
                entries.append({"robot": scenario.robot_names[r], "mask": mask, **rr.to_dict()})
            report["rollouts"][name] = entries

    if options.heatmap:
        t0 = time.perf_counter()
        heat = contamination.marginals[scenario.horizon]
        grid_rows: List[List[Optional[float]]] = []
        gm = scenario.gridmap
        for row in range(gm.height):
            line: List[Optional[float]] = []
            for col in range(gm.width):
                c = Cell(col, row)
                line.append(float(heat[gm.index(c)]) if gm.is_free(c) else None)
            grid_rows.append(line)
        report["heatmap"] = {
            "rows": grid_rows,
            "horizon": scenario.horizon,
            "seconds": time.perf_counter() - t0,
        }

    report["cache"] = {
        "plan_solves_total": cache.solve_count,
        "cache_hits": cache.hit_count,
    }
    return PipelineResult(
        report=_jsonable(report),
        scenario=scenario,
        cache=cache,
        contamination=contamination,
        traces=traces,
    )
