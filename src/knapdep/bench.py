"""Benchmark harness: online engine vs offline optimum over suites.

Each instance contributes one row (online profit, offline optimum or a
bound, their ratio); the suite's empirical competitive ratio is the
maximum ratio over rows with a proven optimum.  A grid tuner searches the
threshold curvature inside a safety band around the analytic default, so
tuned parameters keep a worst-case anchor.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Iterator, Mapping, Optional, Sequence

from . import oracle, threshold
from .core import Instance, check_count
from .engine import run

RATIO_TOL = 1e-9


@dataclass(frozen=True)
class BenchConfig:
    """Harness knobs; all defaults are overridable per run.

    Instances with at most ``exact_cutoff`` items get a proven optimum
    (branch-and-bound); at most ``crosscheck_cutoff`` items additionally
    get an exhaustive-enumeration cross-check, when the enumerator takes
    the instance's size ((K+1)^N at most 1e8; a proven row it refuses
    stays ``exact``, unchecked); larger instances are scored against the
    cheap upper bound only and flagged.  Each value is checked
    when the config is made (ValueError otherwise): ``threshold`` is a
    mapping that holds no NaN or infinity, and whose exponential gamma, if
    a number, is > 0 (``threshold.check_gamma``); the cutoffs are integers >= 0,
    ``node_budget`` is None or an integer >= 0, and ``jobs`` is an
    integer >= 1.
    """

    threshold: Mapping = field(default_factory=lambda: {"kind": "exponential", "gamma": "auto"})
    exact_cutoff: int = 18
    crosscheck_cutoff: int = 10
    node_budget: Optional[int] = 5_000_000
    jobs: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.threshold, Mapping):
            raise ValueError(f"threshold must be an object, got {self.threshold!r}")
        threshold.check_finite(self.threshold)  # the report echoes it as JSON
        # A numeric gamma is refused here, or every row would be an error row.
        kind, gamma = self.threshold.get("kind", "exponential"), self.threshold.get("gamma")
        if kind == "exponential" and type(gamma) in (int, float):
            threshold.check_gamma(gamma)
        # A plain dict pickles to the worker processes of a parallel run.
        object.__setattr__(self, "threshold", dict(self.threshold))
        check_count("exact_cutoff", self.exact_cutoff, 0)
        check_count("crosscheck_cutoff", self.crosscheck_cutoff, 0)
        if self.node_budget is not None:
            check_count("node_budget", self.node_budget, 0, " or null")
        check_count("jobs", self.jobs, 1)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BenchRow:
    instance_id: str
    n_items: int
    alg: float
    opt: float
    opt_tag: str      # "exact" | "bound"
    ratio: float      # may be math.inf; NaN on an error row
    error: Optional[str] = None

    @property
    def infinite(self) -> bool:
        """ALG = 0 < OPT, or OPT/ALG overflowed."""
        return math.isinf(self.ratio)

    def to_dict(self) -> dict:
        ratio: object = self.ratio
        if self.error is not None:
            ratio = None  # an error row's ratio is NaN, which JSON cannot hold
        elif self.infinite:
            ratio = "inf"
        return {
            "instance_id": self.instance_id,
            "n_items": self.n_items,
            "alg": self.alg,
            "opt": self.opt,
            "opt_tag": self.opt_tag,
            "ratio": ratio,
            "infinite": self.infinite,
            "error": self.error,
        }


@dataclass
class BenchReport:
    """Suite result: rows sorted by ratio descending, then instance id."""

    rows: list[BenchRow]
    cr: Optional[float]   # empirical competitive ratio over exact rows
    mean_ratio: Optional[float]  # mean over finite exact rows
    config: dict

    @property
    def cr_infinite(self) -> bool:
        return self.cr is not None and math.isinf(self.cr)

    def to_dict(self) -> dict:
        return {
            "empirical_cr": "inf" if self.cr_infinite else self.cr,
            "cr_infinite": self.cr_infinite,
            "mean_ratio": self.mean_ratio,
            "rows": [r.to_dict() for r in self.rows],
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["instance_id", "n_items", "alg", "opt", "opt_tag", "ratio", "infinite", "error"]
        )
        for r in self.rows:
            writer.writerow(
                [
                    r.instance_id,
                    r.n_items,
                    repr(r.alg),
                    repr(r.opt),
                    r.opt_tag,
                    repr(r.ratio),
                    str(r.infinite).lower(),
                    r.error or "",
                ]
            )
        return out.getvalue()


def _shared_knapsack_echo(
    instances: Sequence[tuple[str, Instance]], cfg: "BenchConfig"
) -> Optional[list[dict]]:
    """Effective per-knapsack (gamma, theta, alpha, size cap) for the echo.

    Only well-defined when every instance shares the same knapsack specs;
    heterogeneous suites echo None and rely on per-instance sources.
    """
    if not instances:
        return None
    first = instances[0][1]
    if any(inst.knapsacks != first.knapsacks for _, inst in instances):
        return None
    try:
        fns = threshold.for_instance(first, cfg.threshold)
    except ValueError:
        return None
    return [
        {
            "gamma": getattr(fn, "gamma", None),
            "theta": spec.theta,
            "alpha": spec.alpha,
            "size_cap": spec.size_cap,
        }
        for fn, spec in zip(fns, first.knapsacks)
    ]


def _ratio(alg: float, opt: float) -> float:
    """OPT/ALG with the 0/0 := 1 convention; ALG=0 < OPT is infinite."""
    if alg == 0.0:
        return 1.0 if opt == 0.0 else math.inf
    return opt / alg


def _evaluate(instance_id: str, inst: Instance, cfg: BenchConfig) -> BenchRow:
    try:
        fns = threshold.for_instance(inst, cfg.threshold)
        result = run(inst, fns)
        if inst.num_items <= cfg.exact_cutoff:
            sol = oracle.solve_exact(inst, node_budget=cfg.node_budget)
            if sol.proof == "exact":
                opt, tag = sol.objective, "exact"
                if inst.num_items <= cfg.crosscheck_cutoff and oracle.bruteforce_accepts(inst):
                    check = oracle.solve_bruteforce(inst)
                    if check.objective != sol.objective:
                        raise AssertionError(
                            f"oracle mismatch: branch-and-bound {sol.objective} "
                            f"vs enumeration {check.objective}"
                        )
            else:
                opt, tag = sol.bound, "bound"
        else:
            opt, tag = oracle.upper_bound(inst), "bound"
        return BenchRow(
            instance_id=instance_id,
            n_items=inst.num_items,
            alg=result.profit,
            opt=opt,
            opt_tag=tag,
            ratio=_ratio(result.profit, opt),
        )
    except Exception as exc:  # isolate per-instance failures into error rows
        # A MemoryError carries no message; name it as ``cli.main`` does.
        text = "out of memory" if isinstance(exc, MemoryError) else exc
        return BenchRow(
            instance_id=instance_id,
            n_items=inst.num_items,
            alg=0.0,
            opt=0.0,
            opt_tag="error",
            ratio=math.nan,
            error=f"{type(exc).__name__}: {text}",
        )


def bench_suite(
    instances: Sequence[tuple[str, Instance]],
    config: Optional[BenchConfig] = None,
) -> BenchReport:
    """Run engine and oracle over a suite and assemble the report.

    ``instances`` pairs a stable id (e.g. filename) with each instance.
    With ``config.jobs > 1`` instances are evaluated in parallel, by at
    most one worker process per instance; rows are reassembled in
    submission order before sorting, so reports are byte-reproducible
    either way.
    """
    cfg = config or BenchConfig()
    echo = cfg.to_dict()
    echo["knapsacks"] = _shared_knapsack_echo(instances, cfg)
    if cfg.jobs > 1 and len(instances) > 1:
        # Imported here, so that a serial run and every other command start
        # without the pool's modules (multiprocessing, logging, pickle).
        from concurrent.futures import ProcessPoolExecutor

        # No more workers than instances: a fork pool starts them all at once.
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(instances))) as pool:
            rows = list(pool.map(_evaluate, *zip(*instances), repeat(cfg)))
    else:
        rows = [_evaluate(iid, inst, cfg) for iid, inst in instances]

    exact_rows = [r for r in rows if r.opt_tag == "exact"]
    cr = max((r.ratio for r in exact_rows), default=None)
    finite = [r.ratio for r in exact_rows if not r.infinite]
    # Left to right, as ``ThresholdFn.charge`` sums: builtin ``sum`` of
    # floats compensates from Python 3.12 on, so its bytes vary by version.
    total = 0.0
    for ratio in finite:
        total += ratio
    mean_ratio = total / len(finite) if finite else None

    def sort_key(r: BenchRow):
        primary = -r.ratio if not math.isnan(r.ratio) else math.inf
        return (primary, r.instance_id)

    rows.sort(key=sort_key)
    return BenchReport(
        rows=rows,
        cr=cr,
        mean_ratio=mean_ratio,
        config=echo,
    )


# ---------------------------------------------------------------------------
# Gamma tuner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuneSpec:
    """Band-constrained grid search over the threshold curvature.

    The grid is ``grid_points`` multipliers spanning [1-delta, 1+delta],
    applied to each knapsack's default gamma, so every candidate stays
    inside the safety band [gamma_lo, gamma_hi] per knapsack.  An odd
    ``grid_points`` puts the default itself on the grid.  Each value is
    checked when the spec is made (ValueError otherwise): ``delta`` is a
    number in (0, 1) and ``grid_points`` an integer in [1, 2**53], where
    every grid index is a float exactly.
    """

    delta: float = 0.5
    grid_points: int = 11

    def __post_init__(self) -> None:
        delta = self.delta
        if isinstance(delta, bool) or not isinstance(delta, (int, float)) or not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be a number in (0, 1), got {delta!r}")
        check_count("grid_points", self.grid_points, 1)
        if self.grid_points > 2**53:
            raise ValueError(f"grid_points must be at most 2**53, got {self.grid_points}")

    def multipliers(self) -> Iterator[float]:
        """The grid in ascending order, each multiplier made as it is drawn."""
        if self.grid_points == 1:
            return iter((1.0,))
        lo, hi = 1.0 - self.delta, 1.0 + self.delta
        step = (hi - lo) / (self.grid_points - 1)
        return (lo + i * step for i in range(self.grid_points))


@dataclass
class TuneResult:
    """Tuned curvature with its full profit-vs-multiplier curve.

    Plain grid search over mean training profit, not a learned policy;
    the band keeps every candidate anchored to the analytic default.
    """

    gammas: tuple[float, ...]
    multiplier: float
    defaults: tuple[float, ...]
    bands: tuple[tuple[float, float], ...]
    curve: list[tuple[float, float]]  # (multiplier, mean profit)

    def to_dict(self) -> dict:
        return {
            "method": "band-constrained-grid-search",
            "gammas": list(self.gammas),
            "multiplier": self.multiplier,
            "default_gammas": list(self.defaults),
            "bands": [list(b) for b in self.bands],
            "curve": [{"multiplier": m, "mean_profit": p} for m, p in self.curve],
        }

    def curve_csv(self) -> str:
        out = io.StringIO()
        out.write("multiplier,mean_profit\n")
        for m, p in self.curve:
            out.write(f"{m!r},{p!r}\n")
        return out.getvalue()


def tune_gamma(training: Sequence[Instance], spec: Optional[TuneSpec] = None) -> TuneResult:
    """Pick the grid multiplier maximizing mean profit over ``training``.

    The training instances must share their knapsack specs.  Ties resolve
    toward the multiplier closest to 1 (the analytic default), then toward
    the smaller multiplier; the returned gammas are always inside each
    knapsack's safety band.
    """
    spec = spec or TuneSpec()
    if not training:
        raise ValueError("training set must be nonempty")
    shared = training[0]
    if any(inst.knapsacks != shared.knapsacks for inst in training):
        raise ValueError("training instances must share knapsack specs")
    defaults = tuple(threshold.default_gamma(ks.theta, ks.alpha) for ks in shared.knapsacks)
    curve: list[tuple[float, float]] = []
    best: Optional[tuple[float, float]] = None  # (mean profit, multiplier)
    for mult in spec.multipliers():
        fns = [
            threshold.ExponentialThreshold(gamma=mult * g, capacity=ks.capacity)
            for g, ks in zip(defaults, shared.knapsacks)
        ]
        total = 0.0
        for inst in training:
            total += run(inst, fns).profit
        mean_profit = total / len(training)
        curve.append((mult, mean_profit))
        if (
            best is None
            or mean_profit > best[0] + RATIO_TOL
            or (
                abs(mean_profit - best[0]) <= RATIO_TOL
                and (abs(mult - 1.0), mult) < (abs(best[1] - 1.0), best[1])
            )
        ):
            best = (mean_profit, mult)
    assert best is not None
    mult = best[1]
    bands = tuple((g * (1.0 - spec.delta), g * (1.0 + spec.delta)) for g in defaults)
    return TuneResult(
        gammas=tuple(mult * g for g in defaults),
        multiplier=mult,
        defaults=defaults,
        bands=bands,
        curve=curve,
    )
