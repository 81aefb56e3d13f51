"""Mission planning on grid maps under a stochastically spreading hazard.

Two layers: a single-robot finite-horizon planner that maximizes the
probability of visiting assigned targets and exiting before contamination,
and multi-robot task allocation by forward or reverse auction-style greedy
with computable suboptimality guarantees.
"""

from ._version import VERSION as __version__
from .allocation import (
    Bid,
    GreedyTrace,
    IterationRecord,
    ObjectiveSource,
    auction_round,
    brute_force_optimal,
    forward_greedy,
    group_success,
    is_partition,
    pair_bit,
    reverse_greedy,
)
from .errors import (
    CapExceededError,
    HazardPlanError,
    InsufficientObservationsError,
    NumericViolationError,
    ValidationError,
    VacuousBoundError,
)
from .grid import Cell, GridMap, MotionKernel, MoveAction
from .guarantees import (
    GuaranteeReport,
    RatioReport,
    RegionMap,
    exact_ratios,
    greedy_ratios,
    guarantee_values,
    region_map,
    theorem_bounds,
)
from .hazard import (
    ContaminationField,
    HazardModel,
    HazardSource,
    estimate_contamination_field,
    exact_contamination_field,
)
from .planner import (
    ObjectiveCache,
    PlanQuery,
    PlanResult,
    RolloutResult,
    dp_solve,
    dp_values,
    rollout,
    wilson_interval,
)
from .report import (
    PipelineOptions,
    PipelineResult,
    build_field,
    canonical_report_json,
    run_pipeline,
    strip_timing,
)
from .scenario import Scenario, load_scenario, parse_scenario, scenario_hash

__all__ = [
    "__version__",
    "Bid",
    "CapExceededError",
    "Cell",
    "ContaminationField",
    "GreedyTrace",
    "GridMap",
    "GuaranteeReport",
    "HazardModel",
    "HazardPlanError",
    "HazardSource",
    "InsufficientObservationsError",
    "IterationRecord",
    "MotionKernel",
    "MoveAction",
    "NumericViolationError",
    "ObjectiveCache",
    "ObjectiveSource",
    "PipelineOptions",
    "PipelineResult",
    "PlanQuery",
    "PlanResult",
    "RatioReport",
    "RegionMap",
    "RolloutResult",
    "Scenario",
    "ValidationError",
    "VacuousBoundError",
    "auction_round",
    "brute_force_optimal",
    "build_field",
    "canonical_report_json",
    "dp_solve",
    "dp_values",
    "estimate_contamination_field",
    "exact_contamination_field",
    "exact_ratios",
    "forward_greedy",
    "greedy_ratios",
    "group_success",
    "guarantee_values",
    "is_partition",
    "load_scenario",
    "pair_bit",
    "parse_scenario",
    "region_map",
    "reverse_greedy",
    "rollout",
    "run_pipeline",
    "scenario_hash",
    "strip_timing",
    "theorem_bounds",
    "wilson_interval",
]
