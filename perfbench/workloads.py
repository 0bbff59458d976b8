"""The benchmark's workloads: seeded inputs, CLI calls per pass, output checks.

Each workload is a list of instance files generated from the seed and a
list of ``knapdep`` CLI invocations that read them.  One pass runs every
invocation once; the checks read what the last pass wrote.  Sizes are set
so that one pass takes a few seconds on one core and that the work per pass
varies little between seeds (see README.md for the measurements).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from knapdep import engine, instances, threshold
from knapdep.bench import RATIO_TOL
from knapdep.core import Instance, KnapsackSpec, assignment_violations

# Relative tolerance for re-summed objective values; every sum is formed
# in item order, so equal values are expected to match to the last bit.
SUM_TOL = 1e-9

WORKLOADS = ("stream-dense", "stream-sparse", "suite-proof", "oracle-budget")

# Durations 4..16 and sizes up to 2 on capacity 10: many items fit per slot.
STREAM_KNAPSACK = KnapsackSpec(
    capacity=10.0, theta=8.0, duration_lo=4, duration_hi=16, size_cap=2.0
)
# Sizes up to the full capacity of 4: few items fit, so search is deep.
ORACLE_KNAPSACK = KnapsackSpec(
    capacity=4.0, theta=8.0, duration_lo=2, duration_hi=6, size_cap=4.0
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass.

    ``argv`` holds ``{in}`` and ``{out}`` placeholders for the workload's
    input and output directories; ``outputs`` are the files it writes under
    ``{out}``; ``reads`` the input files whose items it processes.
    """

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    reads: tuple[str, ...]

    def resolved(self, in_dir: Path, out_dir: Path) -> list[str]:
        return [a.format(**{"in": in_dir, "out": out_dir}) for a in self.argv]


@dataclass(frozen=True)
class Plan:
    name: str
    inputs: dict[str, instances.GenSpec]  # file under {in} -> generator spec
    calls: tuple[Call, ...]


def _instance_seed(seed: int, index: int) -> int:
    """Distinct generator seed per input file, so files are independent draws."""
    return seed * 1000 + index


def _stream(name: str, k: int, n: int, horizon: int, seed: int) -> Plan:
    spec = instances.GenSpec(
        family="uniform",
        n=n,
        horizon=horizon,
        knapsacks=(STREAM_KNAPSACK,) * k,
        seed=_instance_seed(seed, 0),
    )
    reads = ("instance.json",)
    return Plan(
        name=name,
        inputs={"instance.json": spec},
        calls=(
            Call(
                "validate",
                ("validate", "--input", "{in}/instance.json", "--strict",
                 "--out", "{out}/validate.json"),
                ("validate.json",),
                reads,
            ),
            Call(
                "run",
                ("run", "--input", "{in}/instance.json", "--out", "{out}/run.json"),
                ("run.json",),
                reads,
            ),
        ),
    )


def _suite_proof(seed: int, tiny: bool) -> Plan:
    # Every instance has n = 9 items, so each gets a branch-and-bound proof
    # and the brute-force cross-check.  Search cost is heavy-tailed across
    # random instances; many small instances keep the per-pass total steady
    # from seed to seed, where a few large ones do not.  The suite sits in
    # several directories, one bench call each, so that each timed call is
    # short next to the host's slow phases.
    parts = 2 if tiny else 4
    per_part = 2 if tiny else 15  # instances per family and directory
    n = 6 if tiny else 9
    inputs = {}
    calls = []
    for part in range(parts):
        files = []
        for family in ("uniform", "burst"):
            for j in range(per_part):
                fname = f"suite/part{part}/{family}-{j:02d}.json"
                inputs[fname] = instances.GenSpec(
                    family=family,
                    n=n,
                    horizon=20,
                    knapsacks=(ORACLE_KNAPSACK,) * 2,
                    seed=_instance_seed(seed, len(inputs)),
                )
                files.append(fname)
        calls.append(
            Call(
                f"bench-part{part}",
                ("bench", "--input", f"{{in}}/suite/part{part}", "--jobs", "1",
                 "--out", f"{{out}}/bench-part{part}"),
                (f"bench-part{part}.json", f"bench-part{part}.csv"),
                tuple(files),
            )
        )
    return Plan(name="suite-proof", inputs=inputs, calls=tuple(calls))


def _oracle_budget(seed: int, tiny: bool) -> Plan:
    # Each instance is far too large to prove within the budget, so every
    # solve expands exactly ``budget`` nodes.  Cost per node differs between
    # instances of one shape by about a tenth, so each shape has several
    # instances to keep the per-pass total steady from seed to seed.
    budget = 2_000 if tiny else 15_000
    per_shape = 1 if tiny else 3
    shapes = (("uniform", 24, 20), ("burst", 32, 20), ("uniform", 60, 40))
    inputs = {}
    calls = []
    for family, n, horizon in shapes:
        for j in range(per_shape):
            stem = f"{family}-n{n}-{j}"
            inputs[f"{stem}.json"] = instances.GenSpec(
                family=family,
                n=n,
                horizon=horizon,
                knapsacks=(ORACLE_KNAPSACK,) * 2,
                seed=_instance_seed(seed, len(inputs)),
            )
            calls.append(
                Call(
                    f"opt-{stem}",
                    ("opt", "--input", f"{{in}}/{stem}.json", "--node-budget", str(budget),
                     "--out", f"{{out}}/opt-{stem}.json"),
                    (f"opt-{stem}.json",),
                    (f"{stem}.json",),
                )
            )
    return Plan(name="oracle-budget", inputs=inputs, calls=tuple(calls))


def build(name: str, seed: int, tiny: bool = False) -> Plan:
    """The workload's plan for ``seed``; ``tiny`` shrinks it for smoke tests."""
    if name == "stream-dense":
        return _stream(name, 4, 300 if tiny else 10_000, 200 if tiny else 2_000, seed)
    if name == "stream-sparse":
        return _stream(name, 1, 300 if tiny else 20_000, 5_000 if tiny else 500_000, seed)
    if name == "suite-proof":
        return _suite_proof(seed, tiny)
    if name == "oracle-budget":
        return _oracle_budget(seed, tiny)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _same_sum(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SUM_TOL, abs_tol=0.0)


def _assignment_value(inst: Instance, assignment: list) -> float:
    total = 0.0
    for item, k in zip(inst.items, assignment):
        if k is not None:
            total += item.options[k].value
    return total


def check_validate(report: dict) -> list[str]:
    if report.get("ok") is not True:
        return [f"validate reported ok={report.get('ok')!r}: {report.get('errors')}"]
    return []


def check_run(inst: Instance, result: dict) -> list[str]:
    """Feasible decisions in item order whose admitted values sum to the profit."""
    decisions = result["decisions"]
    if [d["id"] for d in decisions] != [item.id for item in inst.items]:
        return ["run decisions do not list the items in input order"]
    assignment = [d["knapsack"] for d in decisions]
    problems = assignment_violations(inst, assignment)
    value = _assignment_value(inst, assignment)
    if not _same_sum(value, result["profit"]):
        problems.append(f"run profit {result['profit']!r} != admitted value {value!r}")
    return problems


def check_bench(report: dict, suite_size: int) -> list[str]:
    """Every instance has a row, no row is an error, and ALG <= OPT on exact rows."""
    rows = report["rows"]
    problems = []
    if len(rows) != suite_size:
        problems.append(f"bench has {len(rows)} rows for {suite_size} instances")
    for row in rows:
        if row["error"] is not None or row["opt_tag"] == "error":
            problems.append(f"bench error row {row['instance_id']}: {row['error']}")
        elif row["opt_tag"] == "exact" and not row["infinite"]:
            if row["ratio"] < 1.0 - RATIO_TOL:
                problems.append(
                    f"bench row {row['instance_id']}: ratio {row['ratio']} < 1 (ALG > OPT)"
                )
    return problems


def check_opt(inst: Instance, sol: dict, engine_profit: float) -> list[str]:
    """A feasible assignment worth the objective, under a bound that covers ALG."""
    problems = list(assignment_violations(inst, sol["assignment"]))
    value = _assignment_value(inst, sol["assignment"])
    if not _same_sum(value, sol["objective"]):
        problems.append(f"opt objective {sol['objective']!r} != assignment value {value!r}")
    if sol["objective"] > sol["bound"]:
        problems.append(f"opt objective {sol['objective']!r} > bound {sol['bound']!r}")
    if sol["bound"] < engine_profit * (1.0 - SUM_TOL):
        problems.append(f"opt bound {sol['bound']!r} < engine profit {engine_profit!r}")
    return problems


def _engine_profit(inst: Instance) -> float:
    return engine.run(inst, threshold.for_instance(inst)).profit


def check_outputs(
    plan: Plan, inputs: dict[str, Instance], out_dir: Path
) -> tuple[dict[str, list[str]], dict[str, float]]:
    """Check each call's outputs; returns problems per call and quality figures.

    Quality figures: ``proven_frac`` (share of bench rows with a proven
    optimum) and ``bound_gap`` (mean (bound - objective) / objective over
    opt outputs), each present only when the workload has such outputs.
    """
    problems: dict[str, list[str]] = {}
    quality: dict[str, float] = {}
    gaps = []
    bench_rows = []
    for call in plan.calls:
        try:
            docs = [json.loads((out_dir / o).read_text()) for o in call.outputs if o.endswith(".json")]
        except (OSError, ValueError) as exc:
            problems[call.label] = [f"unreadable output: {exc}"]
            continue
        kind = call.argv[0]
        if kind == "validate":
            problems[call.label] = check_validate(docs[0])
        elif kind == "run":
            problems[call.label] = check_run(inputs[call.reads[0]], docs[0])
        elif kind == "bench":
            problems[call.label] = check_bench(docs[0], len(call.reads))
            bench_rows.extend(docs[0]["rows"])
        elif kind == "opt":
            inst = inputs[call.reads[0]]
            sol = docs[0]
            problems[call.label] = check_opt(inst, sol, _engine_profit(inst))
            gaps.append((sol["bound"] - sol["objective"]) / sol["objective"])
    if bench_rows:
        exact = sum(r["opt_tag"] == "exact" for r in bench_rows)
        quality["proven_frac"] = exact / len(bench_rows)
    if gaps:
        quality["bound_gap"] = sum(gaps) / len(gaps)
    return problems, quality

