"""Online multiple knapsacks with departing items.

Instance validation (whose report carries each knapsack's observed
ranges), a threshold-based admission engine, an exact offline solver,
seeded instance generators, and an empirical competitive-ratio benchmark
harness with a band-constrained gamma tuner.

Each public name loads its module on first access (PEP 562), so a
process imports only the layers it uses.
"""

import importlib

# Public name -> the submodule that defines it.
_MODULE_OF = {
    name: module
    for module, names in {
        "core": (
            "Instance",
            "Item",
            "ItemOption",
            "KnapsackSpec",
            "SchemaError",
            "UtilizationState",
            "ValidationReport",
            "assignment_violations",
            "dumps_instance",
            "instance_from_dict",
            "instance_to_dict",
            "loads_instance",
            "validate_instance",
        ),
        "threshold": (
            "ExponentialThreshold",
            "TableThreshold",
            "ThresholdFn",
            "default_gamma",
            "size_precondition",
        ),
        "engine": ("Decision", "RunResult", "run", "step"),
        "oracle": ("OfflineSolution", "solve_bruteforce", "solve_exact", "upper_bound"),
        "instances": ("GenSpec", "TraceMapping", "gen_staircase", "gen_uniform", "ingest_trace"),
        "bench": ("BenchConfig", "BenchReport", "TuneSpec", "bench_suite", "tune_gamma"),
    }.items()
    for name in names
}

__version__ = "0.1.0"

# The instance families ``gen`` draws from: ``instances.FAMILIES``, defined
# here so that the CLI parser reads them without loading ``instances``.
FAMILIES = ("uniform", "staircase", "burst")

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # Also how ``from knapdep import cli`` falls back to the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
