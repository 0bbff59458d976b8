import json
import math
import tracemalloc
from types import MappingProxyType

import pytest

from knapdep.bench import (
    BenchConfig,
    BenchReport,
    BenchRow,
    TuneSpec,
    _ratio,
    bench_suite,
    tune_gamma,
)
from knapdep.core import Instance, Item, ItemOption, KnapsackSpec
from knapdep.engine import run
from knapdep.instances import GenSpec, gen_staircase, gen_uniform
from knapdep.oracle import solve_bruteforce, solve_exact
from knapdep.threshold import ExponentialThreshold, default_gamma


def ksp(capacity=10.0, theta=4.0, dlo=1, dhi=4, eps=None):
    return KnapsackSpec(capacity, theta, dlo, dhi, eps if eps is not None else capacity)


def scaled_defaults(inst, multiplier=1.0):
    """Exponential curves at ``multiplier`` times each default gamma."""
    return [
        ExponentialThreshold(
            gamma=multiplier * default_gamma(ks.theta, ks.alpha), capacity=ks.capacity
        )
        for ks in inst.knapsacks
    ]


def empty_instance():
    return Instance(10, (ksp(),), ())


def single_item_instance(value=7.0):
    item = Item(0, 1, (ItemOption(True, 1.0, value, 1, 2),))
    return Instance(10, (ksp(),), (item,))


def uniform_suite(seeds, n=8, k=2):
    suite = []
    for seed in seeds:
        spec = GenSpec("uniform", n, 30, (ksp(eps=5.0),) * k, seed)
        suite.append((f"uniform-{seed}", gen_uniform(spec)))
    return suite


def compensated_sum(values):
    """Neumaier's compensated float sum, as builtin ``sum`` forms it from Python 3.12."""
    total = carry = 0.0
    for x in values:
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry


def scored_row(alg, opt):
    return BenchRow("x", 1, alg, opt, "exact", _ratio(alg, opt))


def refuse_constant(name):
    raise ValueError(f"non-finite number {name} in strict JSON")


class TestRatioConvention:
    def test_zero_zero_is_one(self):
        row = scored_row(0.0, 0.0)
        assert row.ratio == 1.0 and not row.infinite

    def test_zero_alg_flags_infinite(self):
        row = scored_row(0.0, 5.0)
        assert math.isinf(row.ratio) and row.infinite

    def test_plain_ratio(self):
        row = scored_row(2.0, 3.0)
        assert row.ratio == 1.5 and not row.infinite

    def test_overflow_flags_infinite(self):
        # ALG > 0, yet OPT/ALG overflows: the row is infinite all the same.
        row = scored_row(1e-320, 10.0)
        assert math.isinf(row.ratio) and row.infinite
        assert row.to_dict()["ratio"] == "inf" and row.to_dict()["infinite"] is True

    def test_error_row_is_not_infinite(self):
        row = BenchRow("x", 1, 0.0, 0.0, "error", math.nan, "ValueError: bad")
        assert not row.infinite
        assert row.to_dict()["ratio"] is None


class TestBenchSuite:
    def test_empty_suite(self):
        report = bench_suite([])
        assert report.rows == [] and report.cr is None and report.mean_ratio is None
        assert report.config["knapsacks"] is None

    def test_empty_instance_row(self):
        report = bench_suite([("empty", empty_instance())])
        row = report.rows[0]
        assert row.alg == 0.0 and row.opt == 0.0
        assert row.ratio == 1.0 and not row.infinite
        assert report.cr == 1.0

    def test_single_item_ratio_one(self):
        report = bench_suite([("one", single_item_instance())])
        row = report.rows[0]
        assert row.alg == row.opt == 7.0
        assert row.ratio == 1.0
        assert row.opt_tag == "exact"

    def test_staircase_cr_crosschecked(self):
        # theta=4, alpha=1, K=1; recompute OPT per prefix by enumeration and
        # the suite CR from scratch.
        ks = KnapsackSpec(1.0, 4.0, 2, 2, 0.4)
        spec = GenSpec("staircase", 0, 10, (ks,), seed=0)
        prefixes = gen_staircase(spec, levels=3)
        suite = [(f"stair-{i}", inst) for i, inst in enumerate(prefixes, start=1)]
        report = bench_suite(suite, BenchConfig(crosscheck_cutoff=0))

        expected_cr = 0.0
        by_id = {row.instance_id: row for row in report.rows}
        for iid, inst in suite:
            opt = solve_bruteforce(inst).objective
            alg = run(inst, scaled_defaults(inst)).profit
            assert by_id[iid].opt == opt
            assert by_id[iid].alg == alg
            expected_cr = max(expected_cr, opt / alg)
        assert report.cr == pytest.approx(expected_cr, rel=1e-12)
        assert report.cr >= 1.0

    def test_rows_sorted_by_ratio_desc(self):
        report = bench_suite(uniform_suite(range(6)))
        ratios = [r.ratio for r in report.rows]
        assert ratios == sorted(ratios, reverse=True)

    def test_ratio_at_least_one_on_exact_rows(self):
        report = bench_suite(uniform_suite(range(10)))
        for row in report.rows:
            assert row.opt_tag == "exact"
            assert row.ratio >= 1.0 - 1e-9

    def test_mean_ratio_summed_left_to_right(self):
        # On this suite a compensated sum of the ratios differs from the
        # left-to-right one, so the mean tells the two apart on every Python.
        suite = uniform_suite(range(9))
        report = bench_suite(suite)
        by_id = {row.instance_id: row for row in report.rows}
        assert all(by_id[iid].opt_tag == "exact" and not by_id[iid].infinite for iid, _ in suite)
        ratios = [by_id[iid].ratio for iid, _ in suite]
        total = 0.0
        for ratio in ratios:
            total += ratio
        assert compensated_sum(ratios) != total
        assert report.mean_ratio == total / len(ratios)

    def test_cr_union_monotone(self):
        s1 = uniform_suite(range(4))
        s2 = uniform_suite(range(100, 104))
        cr1 = bench_suite(s1).cr
        cr2 = bench_suite(s2).cr
        union = bench_suite(s1 + s2).cr
        assert union == max(cr1, cr2)

    def test_large_instance_gets_bound_tag(self):
        report = bench_suite(
            uniform_suite([5], n=12), BenchConfig(exact_cutoff=5)
        )
        row = report.rows[0]
        assert row.opt_tag == "bound"
        assert report.cr is None  # no exact rows to take the max over

    def test_budget_bound_row_left_out_of_ratios(self):
        # Branch-and-bound stops at the node budget: the row carries the
        # solver's bound, tagged "bound", and neither cr nor mean_ratio
        # reads it, though its ratio is above the exact row's.
        [(iid, inst)] = uniform_suite([3], n=12)
        budget = 5
        sol = solve_exact(inst, node_budget=budget)
        assert sol.proof == "upper-bound-only"
        report = bench_suite([(iid, inst), ("one", single_item_instance())],
                             BenchConfig(node_budget=budget))
        rows = {row.instance_id: row for row in report.rows}
        assert (rows[iid].opt_tag, rows[iid].opt) == ("bound", sol.bound)
        assert rows[iid].ratio > 1.0
        assert rows["one"].opt_tag == "exact"
        assert report.cr == report.mean_ratio == rows["one"].ratio == 1.0

    def test_mixed_knapsack_specs_echo_null(self):
        one = ("one", single_item_instance())
        other = ("other", Instance(10, (ksp(capacity=5.0),), ()))
        assert bench_suite([one, other]).config["knapsacks"] is None
        [echo] = bench_suite([one]).config["knapsacks"]
        assert (echo["theta"], echo["size_cap"]) == (4.0, 10.0)

    @pytest.mark.parametrize(
        "threshold, message",
        [
            ({"kind": "exponential", "gamma": math.nan}, "gamma must be a finite number > 0, got nan"),
            ({"kind": "exponential", "gamma": math.inf}, "gamma must be a finite number > 0, got inf"),
            ({"kind": "table", "points": [[0.0, 0.0], [10.0, math.nan]]},
             "table points must be finite numbers"),
        ],
        ids=["nan-gamma", "inf-gamma", "nan-point"],
    )
    def test_non_finite_threshold_refused(self, threshold, message):
        # The report echoes the threshold, and JSON holds no NaN or infinity.
        with pytest.raises(ValueError) as info:
            BenchConfig(threshold=threshold)
        assert str(info.value) == message

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, 0, -5, 10**400])
    def test_gamma_outside_domain_refused(self, gamma):
        # Every row would be an error row, so the config is refused whole.
        with pytest.raises(ValueError) as info:
            BenchConfig(threshold={"kind": "exponential", "gamma": gamma})
        assert str(info.value) == f"gamma must be a finite number > 0, got {gamma}"
        with pytest.raises(ValueError, match="gamma must be a finite number > 0"):
            BenchConfig(threshold={"gamma": gamma})  # kind defaults to exponential

    def test_gamma_check_leaves_other_thresholds(self):
        # "auto" and tables are built per knapsack, as before.
        BenchConfig(threshold={"kind": "exponential", "gamma": "auto"})
        BenchConfig(threshold={"kind": "exponential", "gamma": 0.5})
        BenchConfig(threshold={"kind": "table", "points": [[0.0, 0.0], [1.0, 1.0]]})

    def test_error_rows_isolated(self):
        bad_cfg = BenchConfig(
            threshold={"kind": "table", "points": [[0.0, 0.0], [1.0, 1.0]]}
        )
        report = bench_suite(
            [("ok?", single_item_instance())], bad_cfg
        )
        row = report.rows[0]
        assert row.opt_tag == "error"
        assert row.error and "capacity" in row.error

    def test_report_bytes_reproducible(self):
        suite = uniform_suite(range(5))
        a = bench_suite(suite)
        b = bench_suite(suite)
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_parallel_matches_serial(self):
        suite = uniform_suite(range(6))
        serial = bench_suite(suite, BenchConfig(jobs=1))
        parallel = bench_suite(suite, BenchConfig(jobs=2))
        assert serial.to_csv() == parallel.to_csv()

    def test_pool_capped_at_suite_size(self, monkeypatch):
        # A recording stand-in that maps in-process: no process is started.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # bench_suite imports the pool class only when it runs in parallel.
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        suite = uniform_suite(range(2))
        report = bench_suite(suite, BenchConfig(jobs=5000))
        assert sizes == [2]
        assert report.config["jobs"] == 5000
        assert report.to_csv() == bench_suite(suite, BenchConfig(jobs=1)).to_csv()

    def test_read_only_threshold_runs_in_parallel(self):
        # The config keeps a plain dict copy, which pickles to the workers.
        suite = uniform_suite(range(3))
        threshold = {"kind": "exponential", "gamma": 0.5}
        cfg = BenchConfig(threshold=MappingProxyType(threshold), jobs=2)
        assert type(cfg.threshold) is dict and cfg.threshold == threshold
        serial = bench_suite(suite, BenchConfig(threshold=threshold))
        assert bench_suite(suite, cfg).to_csv() == serial.to_csv()

    def test_infinite_row_rendering(self):
        row = scored_row(0.0, 5.0)
        report = BenchReport(rows=[row], cr=row.ratio, mean_ratio=None, config={})
        assert report.cr_infinite
        assert report.to_csv().splitlines()[1] == "x,1,0.0,5.0,exact,inf,true,"
        data = json.loads(report.to_json(), parse_constant=refuse_constant)
        assert data["empirical_cr"] == "inf" and data["cr_infinite"] is True
        assert data["rows"][0]["ratio"] == "inf"

    @pytest.mark.parametrize("cr", [None, 1.5])
    def test_finite_cr_is_not_infinite(self, cr):
        assert not BenchReport(rows=[], cr=cr, mean_ratio=None, config={}).cr_infinite

    def test_overflowed_ratio_is_strict_json(self):
        # ALG = 1e-320 blocks the only slot, OPT = 10 takes the other item:
        # OPT/ALG overflows to inf, which the report writes as "inf" and
        # leaves out of the mean.
        ks = KnapsackSpec(10.0, 4.0, 1, 1, 10.0)
        tiny, full = (
            Item(i, 1, (ItemOption(True, 10.0, value, 1, 1),))
            for i, value in enumerate((1e-320, 10.0))
        )
        suite = [("overflow", Instance(1, (ks,), (tiny, full))),
                 ("plain", Instance(1, (ks,), (full,)))]
        report = bench_suite(suite)
        data = json.loads(report.to_json(), parse_constant=refuse_constant)
        assert data["empirical_cr"] == "inf" and data["cr_infinite"] is True
        assert data["mean_ratio"] == 1.0
        row = data["rows"][0]
        assert (row["alg"], row["opt"], row["opt_tag"]) == (1e-320, 10.0, "exact")
        assert row["ratio"] == "inf" and row["infinite"] is True
        assert report.to_csv().splitlines()[1] == "overflow,2,1e-320,10.0,exact,inf,true,"


class TestTuneGamma:
    def training_set(self, seeds, theta=4.0):
        return tuple(
            gen_uniform(GenSpec("uniform", 10, 30, (ksp(theta=theta, eps=5.0),), s))
            for s in seeds
        )

    def test_constant_landscape_returns_default(self):
        # A single tiny item is admitted under every gamma in the band, so
        # the profit curve is flat and the tie-break picks the default.
        assert default_gamma(4.0, 4.0) == pytest.approx(math.log(17.0))
        training = (single_item_instance(),)
        result = tune_gamma(training, TuneSpec())
        assert result.multiplier == 1.0
        assert result.gammas == result.defaults

    def test_two_point_grid_argmax(self):
        training = self.training_set([3])
        spec = TuneSpec(grid_points=2)
        profits = {
            mult: run(training[0], scaled_defaults(training[0], mult)).profit
            for mult in spec.multipliers()
        }
        result = tune_gamma(training, spec)
        best = max(profits.values())
        assert profits[result.multiplier] == best

    def test_gamma_inside_band(self):
        for seed in range(10):
            training = self.training_set([seed, seed + 50])
            result = tune_gamma(training, TuneSpec(delta=0.5))
            for gamma, (lo, hi) in zip(result.gammas, result.bands):
                assert lo <= gamma <= hi

    def test_curve_emitted(self):
        result = tune_gamma(self.training_set([1]), TuneSpec(grid_points=5))
        assert len(result.curve) == 5
        csv_text = result.curve_csv()
        assert csv_text.startswith("multiplier,mean_profit\n")
        assert len(csv_text.strip().splitlines()) == 6

    def test_train_test_protocol_reported(self, capsys):
        # Seed-split train/test over 20 repetitions: count how often the
        # tuned gamma beats both band edges on held-out profit.  Measured
        # and reported, not asserted; the tuner carries no generalization
        # guarantee.
        wins = 0
        reps = 20
        for rep in range(reps):
            train = self.training_set([rep * 10 + 1, rep * 10 + 2])
            test = self.training_set([rep * 10 + 5, rep * 10 + 6])
            spec = TuneSpec(delta=0.5, grid_points=7)
            tuned = tune_gamma(train, spec).multiplier

            def test_profit(mult):
                return sum(
                    run(inst, scaled_defaults(inst, mult)).profit for inst in test
                )

            if test_profit(tuned) >= test_profit(0.5) and test_profit(
                tuned
            ) >= test_profit(1.5):
                wins += 1
        with capsys.disabled():
            print(
                f"\n[tuner protocol] tuned beats both band edges on held-out "
                f"profit in {wins}/{reps} repetitions"
            )

    def test_one_point_grid_is_the_default(self):
        assert list(TuneSpec(grid_points=1).multipliers()) == [1.0]
        training = self.training_set([3])
        result = tune_gamma(training, TuneSpec(grid_points=1))
        assert result.multiplier == 1.0 and result.gammas == result.defaults
        assert result.curve == [(1.0, run(training[0], scaled_defaults(training[0])).profit)]

    def test_grid_is_made_as_it_is_drawn(self):
        # A grid of 10**6 points held whole would take about 32 MB.
        tracemalloc.start()
        try:
            first = next(iter(TuneSpec(grid_points=10**6).multipliers()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == 0.5
        assert peak < 2**20

    def test_reported_gammas_are_the_curves_run(self):
        training = self.training_set([3, 4])
        result = tune_gamma(training, TuneSpec(grid_points=4))
        fns = [
            ExponentialThreshold(gamma=g, capacity=ks.capacity)
            for g, ks in zip(result.gammas, training[0].knapsacks)
        ]
        total = 0.0
        for inst in training:
            total += run(inst, fns).profit
        assert (result.multiplier, total / len(training)) in result.curve

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            tune_gamma(())
        with pytest.raises(ValueError, match="delta"):
            TuneSpec(delta=1.5)
        # Every grid index a float exactly; neither grid is ever built here.
        assert TuneSpec(grid_points=2**53).grid_points == 2**53
        with pytest.raises(ValueError, match=r"^grid_points must be at most 2\*\*53, got 9007199254740993$"):
            TuneSpec(grid_points=2**53 + 1)
        mixed = (empty_instance(), single_item_instance())
        tune_gamma(mixed)  # same specs: fine
        other = Instance(10, (ksp(capacity=3.0, eps=3.0),), ())
        with pytest.raises(ValueError, match="share"):
            tune_gamma((empty_instance(), other))
