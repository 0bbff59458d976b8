"""Online multiple knapsacks with departing items.

Instance validation (whose report carries each knapsack's observed
ranges), a threshold-based admission engine, an exact offline solver,
seeded instance generators, and an empirical competitive-ratio benchmark
harness with a band-constrained gamma tuner.
"""

from .core import (
    Decision,
    Instance,
    Item,
    ItemOption,
    KnapsackSpec,
    SchemaError,
    SlotInterval,
    UtilizationState,
    ValidationReport,
    assignment_violations,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    validate_instance,
)
from .threshold import (
    ExponentialThreshold,
    TableThreshold,
    ThresholdFn,
    default_gamma,
    size_precondition,
)
from .engine import RunResult, run, step
from .oracle import OfflineSolution, solve_bruteforce, solve_exact, upper_bound
from .instances import GenSpec, TraceMapping, gen_staircase, gen_uniform, ingest_trace
from .bench import BenchConfig, BenchReport, TuneSpec, bench_suite, tune_gamma

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "BenchReport",
    "Decision",
    "ExponentialThreshold",
    "GenSpec",
    "Instance",
    "Item",
    "ItemOption",
    "KnapsackSpec",
    "OfflineSolution",
    "RunResult",
    "SchemaError",
    "SlotInterval",
    "TableThreshold",
    "ThresholdFn",
    "TraceMapping",
    "TuneSpec",
    "UtilizationState",
    "ValidationReport",
    "assignment_violations",
    "bench_suite",
    "default_gamma",
    "dumps_instance",
    "gen_staircase",
    "gen_uniform",
    "ingest_trace",
    "instance_from_dict",
    "instance_to_dict",
    "loads_instance",
    "run",
    "size_precondition",
    "solve_bruteforce",
    "solve_exact",
    "step",
    "tune_gamma",
    "upper_bound",
    "validate_instance",
    "__version__",
]
