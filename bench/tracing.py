"""Spans around the calls into each hazardplan layer, recorded from outside.

The program binds many names with ``from ... import``, so each hook patches
the attribute where the caller looks the name up: ``run_pipeline`` reaches
the field builder through ``hazardplan.report.build_field`` and the CLI
through ``hazardplan.cli.build_field``. Spans are kept in memory as
``[id, name, op, parent, start, end, attrs]`` and written out when the run
ends; ``op`` is the operation index, or -1 during set-up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

# (module, attribute, span name). "Class.method" patches the class attribute.
HOOKS = (
    ("hazardplan.cli", "load_scenario", "scenario.load_scenario"),
    ("hazardplan.cli", "build_field", "report.build_field"),
    ("hazardplan.cli", "run_pipeline", "report.run_pipeline"),
    ("hazardplan.report", "build_field", "report.build_field"),
    ("hazardplan.report", "estimate_contamination_field", "hazard.estimate_contamination_field"),
    ("hazardplan.report", "exact_contamination_field", "hazard.exact_contamination_field"),
    ("hazardplan.report", "exact_contamination_marginals", "hazard.exact_contamination_marginals"),
    ("hazardplan.report", "contamination_heatmap", "hazard.contamination_heatmap"),
    ("hazardplan.hazard", "ContaminationField.save", "hazard.ContaminationField.save"),
    ("hazardplan.hazard", "ContaminationField.load", "hazard.ContaminationField.load"),
    ("hazardplan.planner", "dp_solve", "planner.dp_solve"),
    ("hazardplan.planner", "ObjectiveCache.value", "planner.ObjectiveCache.value"),
    ("hazardplan.report", "rollout", "planner.rollout"),
    ("hazardplan.report", "forward_greedy", "allocation.forward_greedy"),
    ("hazardplan.report", "reverse_greedy", "allocation.reverse_greedy"),
    ("hazardplan.report", "brute_force_optimal", "allocation.brute_force_optimal"),
    ("hazardplan.report", "exact_ratios", "guarantees.exact_ratios"),
    ("hazardplan.report", "greedy_ratios", "guarantees.greedy_ratios"),
    ("hazardplan.report", "combine_ratio_reports", "guarantees.combine_ratio_reports"),
    ("hazardplan.report", "theorem_bounds", "guarantees.theorem_bounds"),
)

MC_FIELD = "hazard.estimate_contamination_field"
FIELD_BUILDS = (MC_FIELD, "hazard.exact_contamination_field")
HEATMAPS = ("hazard.exact_contamination_marginals", "hazard.contamination_heatmap")
VALUE = "planner.ObjectiveCache.value"
DP = "planner.dp_solve"
ALLOCATORS = {
    "forward": "allocation.forward_greedy",
    "reverse": "allocation.reverse_greedy",
    "brute": "allocation.brute_force_optimal",
}
DP_TARGET_BUCKETS = (0, 1, 2, 3, 4, 5, 8, 10)
MB = float(1 << 20)

# Every per-layer metric and its unit, in the order they are reported.
PER_LAYER = {
    "import_s": "s",
    "scenario.load_s": "s",
    "field.build_s": "s",
    "field.cell_steps_per_s": "1/s",
    "field.heatmap_s": "s",
    "field.cache_save_s": "s",
    "field.cache_load_s": "s",
    "dp.solves": "count",
    "dp.value_solves": "count",
    "dp.policy_solves": "count",
    "dp.value_s": "s",
    "dp.policy_s": "s",
    **{f"dp.solve_s.t{k}": "s" for k in DP_TARGET_BUCKETS},
    "dp.state_steps": "count",
    "dp.state_steps_per_s": "1/s",
    "dp.table_mb_max": "MB",
    "cache.hit_ratio": "ratio",
    "cache.hits": "count",
    "cache.solves": "count",
    "alloc.forward_s": "s",
    "alloc.reverse_s": "s",
    "alloc.brute_s": "s",
    "alloc.forward_self_s": "s",
    "alloc.reverse_self_s": "s",
    "alloc.forward_solves": "count",
    "alloc.reverse_solves": "count",
    "ratios.exact_s": "s",
    "ratios.exact_self_s": "s",
    "ratios.greedy_s": "s",
    "rollout_s": "s",
    "rollout.trials_per_s": "1/s",
    "report.pipeline_self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _dp_work(args):
    query = args["query"]
    return {"t": len(query.targets), "horizon": query.horizon, "n": query.gridmap.n_free}


def _mc_work(args):
    return {"samples": args["samples"], "horizon": args["horizon"], "n": args["gridmap"].n_free}


def _rollout_work(args):
    return {"trials": args["trials"]}


def _greedy_solves(result):
    return {"plan_solves": result[1].plan_solves}


# Work counts computed from a call's arguments (before) or its result (after).
BEFORE = {DP: _dp_work, MC_FIELD: _mc_work, "planner.rollout": _rollout_work}
AFTER = {"allocation.forward_greedy": _greedy_solves, "allocation.reverse_greedy": _greedy_solves}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn):
        before = BEFORE.get(name)
        after = AFTER.get(name)
        signature = inspect.signature(fn) if before else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if before:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = before(bound.arguments)
            span = [len(self.spans), name, self.op,
                    self._stack[-1] if self._stack else -1, 0.0, 0.0, attrs]
            self.spans.append(span)
            self._stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if after:
                attrs.update(after(result))
            return result

        return traced

    def install(self):
        """Patch every hook; a hook whose target is gone is reported, not fatal."""
        missing = []
        for module_name, attr, name in HOOKS:
            owner = importlib.import_module(module_name)
            *cls, attr_name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            raw = inspect.getattr_static(owner, attr_name, None) if owner else None
            if raw is None:
                missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr_name, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr_name, self.wrap(name, raw))
        if missing:
            print("trace: hooks not found: " + ", ".join(missing), file=sys.stderr)


def _median(values):
    return statistics.median(values) if values else 0.0


class SpanIndex:
    """Durations, self times and ancestry over one list of spans."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.child_time = {}
        for s in spans:
            if s[3] >= 0:
                self.child_time[s[3]] = self.child_time.get(s[3], 0.0) + s[5] - s[4]

    @staticmethod
    def duration(span):
        return span[5] - span[4]

    def self_time(self, span):
        # Children run nested and one at a time, so their union is their sum.
        return self.duration(span) - self.child_time.get(span[0], 0.0)

    def under(self, span, name):
        parent = span[3]
        while parent >= 0:
            ancestor = self.by_id[parent]
            if ancestor[1] == name:
                return True
            parent = ancestor[3]
        return False


def _state_steps(work):
    return work["horizon"] * (1 << work["t"]) * work["n"]


def _table_bytes(work):
    # value table (horizon+1)·2^t·n float64 plus policy table horizon·2^t·n int8
    return ((work["horizon"] + 1) * 8 + work["horizon"]) * (1 << work["t"]) * work["n"]


def layer_metrics(setups, op_spans, untraced_op_s, traced_op_s):
    """Per-layer metrics of one workload.

    ``setups`` are the traced set-up results (import time plus spans),
    ``op_spans`` the spans of the traced operations. Sums and counts are per
    operation, then the median over operations; a layer a workload never
    calls reads 0.
    """
    setup_spans = [s for r in setups for s in r["spans"]]
    every = setup_spans + op_spans
    ops = SpanIndex(op_spans)
    by_op = {}
    for s in op_spans:
        by_op.setdefault(s[2], []).append(s)
    duration = SpanIndex.duration

    def one(span):
        return 1

    def per_op(pred, measure=duration):
        return _median([sum(measure(s) for s in spans if pred(s)) for spans in by_op.values()])

    def named(*names):
        return lambda s: s[1] in names

    def median_duration(spans, *names):
        return _median([duration(s) for s in spans if s[1] in names])

    def rate(spans, work):
        busy = sum(duration(s) for s in spans)
        return sum(work(s[6]) for s in spans) / busy if busy else 0.0

    dp = [s for s in op_spans if s[1] == DP]
    value_dp = {s[0] for s in dp if ops.under(s, VALUE)}
    solved = {s[3] for s in dp}  # value lookups that ran a solve

    def is_value(s):
        return s[1] == DP and s[0] in value_dp

    def is_policy(s):
        return s[1] == DP and s[0] not in value_dp

    def is_hit(s):
        return s[1] == VALUE and s[0] not in solved

    lookups = sum(1 for s in op_spans if s[1] == VALUE)
    hits = sum(1 for s in op_spans if is_hit(s))
    m = {
        "import_s": _median([r["import_s"] for r in setups]),
        "scenario.load_s": median_duration(setup_spans, "scenario.load_scenario"),
        "field.build_s": median_duration(every, *FIELD_BUILDS),
        "field.cell_steps_per_s": rate([s for s in every if s[1] == MC_FIELD],
                                       lambda w: w["samples"] * w["horizon"] * w["n"]),
        "field.heatmap_s": per_op(named(*HEATMAPS)),
        "field.cache_save_s": median_duration(every, "hazard.ContaminationField.save"),
        "field.cache_load_s": median_duration(every, "hazard.ContaminationField.load"),
        "dp.solves": per_op(named(DP), one),
        "dp.value_solves": per_op(is_value, one),
        "dp.policy_solves": per_op(is_policy, one),
        "dp.value_s": per_op(is_value),
        "dp.policy_s": per_op(is_policy),
        **{f"dp.solve_s.t{k}": _median([duration(s) for s in dp if s[6]["t"] == k])
           for k in DP_TARGET_BUCKETS},
        "dp.state_steps": per_op(named(DP), lambda s: _state_steps(s[6])),
        "dp.state_steps_per_s": rate(dp, _state_steps),
        "dp.table_mb_max": max((_table_bytes(s[6]) for s in dp), default=0) / MB,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.hits": per_op(is_hit, one),
        "cache.solves": per_op(lambda s: s[1] == VALUE and not is_hit(s), one),
        "ratios.exact_s": per_op(named("guarantees.exact_ratios")),
        "ratios.exact_self_s": per_op(named("guarantees.exact_ratios"), ops.self_time),
        "ratios.greedy_s": per_op(named("guarantees.greedy_ratios", "guarantees.combine_ratio_reports")),
        "rollout_s": per_op(named("planner.rollout")),
        "rollout.trials_per_s": rate([s for s in op_spans if s[1] == "planner.rollout"], lambda w: w["trials"]),
        "report.pipeline_self_s": per_op(named("report.run_pipeline"), ops.self_time),
        "cli.self_s": per_op(named("cli.main"), ops.self_time),
        "trace.overhead_s": _median(traced_op_s) - _median(untraced_op_s),
    }
    for side, name in ALLOCATORS.items():
        m[f"alloc.{side}_s"] = per_op(named(name))
    for side in ("forward", "reverse"):
        name = ALLOCATORS[side]
        m[f"alloc.{side}_self_s"] = per_op(named(name), ops.self_time)
        m[f"alloc.{side}_solves"] = per_op(named(name), lambda s: s[6].get("plan_solves", 0))
    return {name: {"value": float(m[name]), "unit": unit} for name, unit in PER_LAYER.items()}
