"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import math
import random
import time

import pytest

from knapdep.bench import BenchConfig, TuneSpec, bench_suite, tune_gamma
from knapdep.core import (
    Instance,
    Item,
    ItemOption,
    KnapsackSpec,
    SlotInterval,
    UtilizationState,
    assignment_violations,
)
from knapdep.engine import run, step
from knapdep.instances import GenSpec, gen_staircase, gen_uniform
from knapdep.oracle import solve_bruteforce, solve_exact
from knapdep.threshold import (
    ExponentialThreshold,
    default_gamma,
    for_instance,
    size_precondition,
)


def report_line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}{' - ' if detail else ''}{detail}")


# ---------------------------------------------------------------------------
# Shared suites
# ---------------------------------------------------------------------------

CRIT1_MASTER_SEED = 77
CRIT2_MASTER_SEED = 2024


def build_feasibility_suite():
    """1000 mixed uniform instances, N <= 50, K <= 4, plus their runs.

    Returns the wall time of generation plus runs so criterion 1 can
    charge itself the full cost even though the suite is cached.
    """
    start = time.perf_counter()
    rng = random.Random(CRIT1_MASTER_SEED)
    instances = []
    for _ in range(1000):
        n = rng.randint(0, 50)
        k = rng.randint(1, 4)
        theta = rng.choice([1.0, 2.0, 4.0, 8.0])
        cap = rng.choice([1.0, 5.0, 10.0])
        dhi = rng.randint(1, 5)
        eps = cap * rng.choice([0.25, 0.5, 1.0])
        ks = tuple(KnapsackSpec(cap, theta, 1, dhi, eps) for _ in range(k))
        horizon = rng.randint(dhi + 1, 40)
        seed = rng.randint(0, 2**63 - 1)
        instances.append(gen_uniform(GenSpec("uniform", n, horizon, ks, seed)))

    results = [run(inst, for_instance(inst)) for inst in instances]
    rows = [
        {"index": i, "profit": res.profit, "assignment": res.assignment()}
        for i, res in enumerate(results)
    ]
    report_bytes = json.dumps(rows).encode()
    return instances, results, report_bytes, time.perf_counter() - start


def build_oracle_suite():
    """220 random instances with N <= 10, K <= 3 for oracle equivalence."""
    start = time.perf_counter()
    rng = random.Random(CRIT2_MASTER_SEED)
    instances = []
    for _ in range(220):
        n = rng.randint(0, 10)
        k = rng.randint(1, 3)
        theta = rng.choice([2.0, 4.0, 8.0])
        cap = rng.choice([2.0, 4.0, 8.0])
        dhi = rng.randint(1, 4)
        eps = cap * rng.choice([0.3, 0.5, 1.0])
        ks = KnapsackSpec(cap, theta, 1, dhi, eps)
        horizon = rng.randint(dhi + 1, 15)
        seed = rng.randint(0, 2**63 - 1)
        instances.append(gen_uniform(GenSpec("uniform", n, horizon, (ks,) * k, seed)))
    return instances, time.perf_counter() - start


def staircase_suite(theta: float, levels: int = 4):
    """K=1, alpha=1 ladder with size cap at the guarantee precondition."""
    gamma = default_gamma(theta, 1.0)
    eps = size_precondition(1.0, gamma)  # capacity * ln2 / gamma, exactly
    ks = KnapsackSpec(1.0, theta, 2, 2, eps)
    prefixes = gen_staircase(GenSpec("staircase", 0, 10, (ks,), seed=0), levels)
    return [(f"stair-t{theta:g}-p{i}", inst) for i, inst in enumerate(prefixes, 1)]


def staircase_reports():
    reports = {}
    for theta in (2.0, 8.0, 64.0):
        report = bench_suite(
            staircase_suite(theta),
            BenchConfig(exact_cutoff=40, crosscheck_cutoff=10),
        )
        reports[theta] = report
    return reports


@pytest.fixture(scope="module")
def feasibility_suite():
    return build_feasibility_suite()


@pytest.fixture(scope="module")
def oracle_suite():
    return build_oracle_suite()


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_feasibility(feasibility_suite):
    start = time.perf_counter()
    instances, results, _, build_time = feasibility_suite
    violations = 0
    double_assignments = 0
    for inst, res in zip(instances, results):
        violations += len(assignment_violations(inst, res.assignment()))
        if len(res.decisions) != inst.num_items:
            double_assignments += 1
        seen = [d.item_id for d in res.decisions]
        if len(seen) != len(set(seen)):
            double_assignments += 1
    elapsed = build_time + time.perf_counter() - start
    ok = violations == 0 and double_assignments == 0 and elapsed < 60.0
    report_line(
        "criterion 1 (feasibility, 1000 instances)",
        ok,
        f"violations={violations} double={double_assignments} time={elapsed:.1f}s",
    )
    assert violations == 0
    assert double_assignments == 0
    assert elapsed < 60.0


def test_criterion_2_oracle_equivalence(oracle_suite):
    start = time.perf_counter()
    instances, build_time = oracle_suite
    mismatches = 0
    for inst in instances:
        exact = solve_exact(inst)
        brute = solve_bruteforce(inst)
        if exact.proof != "exact" or exact.objective != brute.objective:
            mismatches += 1
    elapsed = build_time + time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    report_line(
        "criterion 2 (oracle equivalence, 220 instances)",
        ok,
        f"mismatches={mismatches} time={elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 120.0


def test_criterion_3_online_below_offline(feasibility_suite, oracle_suite):
    instances, results, _, _ = feasibility_suite
    checked = 0
    worst_gap = -math.inf
    failures = 0
    for inst, res in zip(instances, results):
        if inst.num_items > 14:
            continue
        sol = solve_exact(inst, node_budget=300_000)
        if sol.proof != "exact":
            continue
        checked += 1
        worst_gap = max(worst_gap, res.profit - sol.objective)
        if res.profit > sol.objective + 1e-9:
            failures += 1
    for inst in oracle_suite[0]:
        alg = run(inst, for_instance(inst)).profit
        opt = solve_exact(inst).objective
        checked += 1
        worst_gap = max(worst_gap, alg - opt)
        if alg > opt + 1e-9:
            failures += 1
    ok = failures == 0 and checked >= 400
    report_line(
        "criterion 3 (online <= offline)",
        ok,
        f"checked={checked} failures={failures} worst_gap={worst_gap:.2e}",
    )
    assert failures == 0
    assert checked >= 400


def test_criterion_4_threshold_identities():
    grid = [1.0, 2.0, 4.0, 8.0, 64.0]
    capacity = 7.0
    rng = random.Random(4)
    bad_boundary = 0
    bad_monotone = 0
    for theta in grid:
        for alpha in grid:
            fn = ExponentialThreshold(
                gamma=default_gamma(theta, alpha), capacity=capacity
            )
            if fn.eval(0.0) != 0.0:
                bad_boundary += 1
            target = alpha * theta
            if abs(fn.eval(capacity) - target) / target > 1e-12:
                bad_boundary += 1
            for _ in range(10_000):
                a, b = sorted((rng.uniform(0, capacity), rng.uniform(0, capacity)))
                if fn.eval(a) > fn.eval(b):
                    bad_monotone += 1
    ok = bad_boundary == 0 and bad_monotone == 0
    report_line(
        "criterion 4 (threshold identities, 25 configs x 1e4 pairs)",
        ok,
        f"boundary_failures={bad_boundary} monotone_failures={bad_monotone}",
    )
    assert bad_boundary == 0
    assert bad_monotone == 0


def test_criterion_5_admission_semantics():
    rng = random.Random(5)
    mismatches = 0
    cases = 100_000
    for _ in range(cases):
        capacity = rng.uniform(1.0, 20.0)
        gamma = rng.uniform(0.2, 6.0)
        fn = ExponentialThreshold(gamma=gamma, capacity=capacity)
        duration = rng.randint(1, 6)
        start = rng.randint(1, 50)
        interval = SlotInterval(start, duration)
        snapshot = {t: rng.uniform(0.0, capacity) for t in interval.slots()}
        size = rng.uniform(0.0, capacity) + 1e-12
        value = rng.uniform(0.0, 2.0 * gamma * size * duration * capacity)
        # Admission through the engine's one path, ``step``, over a state
        # seeded slot by slot; 0.0 + z is exact, so the state holds snapshot.
        state = UtilizationState(1, interval.end)
        for t in interval.slots():
            state.add(0, SlotInterval(t, 1), snapshot[t])
        item = Item(0, 1, (ItemOption(True, size, value, interval),))
        spec = KnapsackSpec(capacity, 1.0, 1, 1, capacity)
        decision, audit = step(item, state, [fn], [spec])
        (entry,) = audit.entries
        # Left to right in slot order, as the engine adds: builtin sum() of
        # floats is compensated from Python 3.12 on and would differ.
        expected_phi = 0.0
        for t in interval.slots():
            expected_phi += size * fn.eval(snapshot[t])
        expected = value >= expected_phi and all(
            snapshot[t] + size <= capacity for t in interval.slots()
        )
        if (
            decision.admitted != expected
            or entry.admissible != expected
            or entry.phi != expected_phi
        ):
            mismatches += 1
    ok = mismatches == 0
    report_line(
        "criterion 5 (admission semantics, 1e5 queries)",
        ok,
        f"mismatches={mismatches}",
    )
    assert mismatches == 0


def test_criterion_6_cr_scaling_probe():
    reports = staircase_reports()
    crs = {}
    for theta, report in reports.items():
        assert all(r.opt_tag == "exact" for r in report.rows)
        assert report.cr is not None and not report.cr_infinite
        crs[theta] = report.cr
    slack_bound = 2.0 * math.log(1 + 64.0) / math.log(1 + 2.0)
    growth = crs[64.0] / crs[2.0]
    ok = all(math.isfinite(c) for c in crs.values()) and growth <= slack_bound
    report_line(
        "criterion 6 (CR scaling probe)",
        ok,
        f"CR(2)={crs[2.0]:.4f} CR(8)={crs[8.0]:.4f} CR(64)={crs[64.0]:.4f} "
        f"growth={growth:.3f} bound={slack_bound:.3f}",
    )
    assert all(math.isfinite(c) for c in crs.values())
    assert growth <= slack_bound


def test_criterion_7_tuner_safety():
    escapes = 0
    for seed in range(50):
        ks = KnapsackSpec(10.0, 4.0, 1, 4, 5.0)
        training = tuple(
            gen_uniform(GenSpec("uniform", 8, 30, (ks,), seed * 1000 + j))
            for j in range(2)
        )
        result = tune_gamma(training, TuneSpec(delta=0.5, grid_points=7))
        for gamma, (lo, hi) in zip(result.gammas, result.bands):
            if not lo <= gamma <= hi:
                escapes += 1

    # Constant-profit landscape: single tiny item admitted under every
    # candidate, so the tie-break must return the default gamma.
    ks = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)
    item = Item(0, 1, (ItemOption(True, 1.0, 2.0, SlotInterval(1, 2)),))
    flat_training = (Instance(10, (ks,), (item,)),)
    flat = tune_gamma(flat_training, TuneSpec(delta=0.5, grid_points=11))
    tie_ok = flat.multiplier == 1.0 and flat.gammas == flat.defaults

    ok = escapes == 0 and tie_ok
    report_line(
        "criterion 7 (tuner safety, 50 seeded sets)",
        ok,
        f"escapes={escapes} tie_break_default={tie_ok}",
    )
    assert escapes == 0
    assert tie_ok


def test_criterion_8_determinism(feasibility_suite):
    _, _, first_bytes, _ = feasibility_suite
    _, _, repeat_bytes, _ = build_feasibility_suite()
    feasibility_identical = first_bytes == repeat_bytes

    first_reports = staircase_reports()
    second_reports = staircase_reports()
    stair_identical = all(
        first_reports[t].to_csv() == second_reports[t].to_csv()
        and first_reports[t].to_json() == second_reports[t].to_json()
        for t in first_reports
    )
    ok = feasibility_identical and stair_identical
    report_line(
        "criterion 8 (determinism)",
        ok,
        f"feasibility_bytes_equal={feasibility_identical} "
        f"staircase_bytes_equal={stair_identical}",
    )
    assert feasibility_identical
    assert stair_identical
