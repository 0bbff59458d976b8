import math
import random
import sys

import pytest

from knapdep.core import KnapsackSpec
from knapdep.engine import run
from knapdep.instances import GenSpec, generate
from knapdep.threshold import (
    ExponentialThreshold,
    TableThreshold,
    ThresholdFn,
    check_finite,
    default_gamma,
    for_instance,
    from_config,
    size_precondition,
)

LN9 = 2.1972245773362196


class TestEval:
    def test_zero_utilization_is_free(self):
        for gamma in (0.1, math.log(2.0), LN9, 7.0):
            fn = ExponentialThreshold(gamma=gamma, capacity=10.0)
            assert fn.eval(0.0) == 0.0

    def test_full_utilization(self):
        fn = ExponentialThreshold(gamma=LN9, capacity=10.0)
        assert fn.eval(10.0) == pytest.approx(8.0, rel=1e-12)

    def test_half_utilization(self):
        fn = ExponentialThreshold(gamma=LN9, capacity=10.0)
        assert fn.eval(5.0) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("gamma", [0.05, LN9])
    def test_run_evaluates_inside_domain(self, k, gamma):
        # eval does not check its argument: the engine keeps every z it
        # passes in [0, capacity].  A small gamma admits until slots fill.
        class Recording(ThresholdFn):
            kind = "recording"

            def __init__(self, inner):
                self.inner = inner
                self.capacity = inner.capacity
                self.seen = []

            def eval(self, z):
                self.seen.append(z)
                return self.inner.eval(z)

        ks = KnapsackSpec(4.0, 8.0, 1, 4, 2.0)
        for family in ("uniform", "burst"):
            for seed in range(3):
                spec = GenSpec(family, 60, 20, (ks,) * k, seed, eligibility=0.7)
                (inst,) = generate(spec)
                fns = [Recording(ExponentialThreshold(gamma, 4.0)) for _ in range(k)]
                run(inst, fns)
                seen = [z for fn in fns for z in fn.seen]
                assert seen and all(0.0 <= z <= 4.0 for z in seen)
                assert max(seen) > 2.0

    def test_non_finite_gamma_rejected(self):
        for gamma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma must be a finite number > 0"):
                ExponentialThreshold(gamma=gamma, capacity=10.0)
        with pytest.raises(ValueError, match="gamma must be a finite number > 0"):
            ExponentialThreshold(gamma=-math.inf, capacity=10.0)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, 0.0, -1.0])
    def test_capacity_outside_domain_rejected(self, capacity):
        with pytest.raises(ValueError) as info:
            ExponentialThreshold(gamma=1.0, capacity=capacity)
        assert str(info.value) == f"capacity must be a finite number > 0, got {capacity}"

    def test_overflow_is_infinite(self):
        # exp overflows past about 709.78; its limit there is +inf.
        fn = ExponentialThreshold(gamma=1e5, capacity=10.0)
        assert fn.eval(10.0) == math.inf
        assert fn.eval(0.08) == math.inf
        assert fn.eval(0.0) == 0.0
        assert fn.eval(0.05) == math.exp(500.0) - 1.0

    def test_monotone_on_sampled_pairs(self):
        rng = random.Random(5)
        for gamma, C in [(0.3, 1.0), (math.log(2.0), 10.0), (LN9, 3.0), (6.0, 100.0)]:
            fn = ExponentialThreshold(gamma=gamma, capacity=C)
            for _ in range(500):
                a, b = sorted((rng.uniform(0, C), rng.uniform(0, C)))
                assert fn.eval(a) <= fn.eval(b)

    def test_scale_covariance(self):
        # phi depends on z only through z/C.
        rng = random.Random(6)
        base = ExponentialThreshold(gamma=1.7, capacity=4.0)
        for _ in range(200):
            s = rng.uniform(0.01, 100.0)
            scaled = ExponentialThreshold(gamma=1.7, capacity=4.0 * s)
            z = rng.uniform(0.0, 4.0)
            assert scaled.eval(z * s) == pytest.approx(base.eval(z), rel=1e-12)


class TestDefaultGamma:
    # Frozen from direct evaluation of ln(1 + alpha*theta).
    @pytest.mark.parametrize(
        "theta,alpha,expected",
        [
            (1.0, 1.0, 0.6931471805599453),
            (4.0, 2.0, 2.1972245773362196),
            (8.0, 8.0, 4.174387269895637),
        ],
    )
    def test_values(self, theta, alpha, expected):
        assert default_gamma(theta, alpha) == pytest.approx(expected, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            default_gamma(0.9, 1.0)
        with pytest.raises(ValueError):
            default_gamma(1.0, 0.0)

    def test_boundary_identity(self):
        # With gamma = ln(1+alpha*theta): phi(0)=0 and phi(C)=alpha*theta.
        for theta in (1.0, 2.0, 4.0, 8.0, 64.0):
            for alpha in (1.0, 2.0, 4.0, 8.0, 64.0):
                fn = ExponentialThreshold(
                    gamma=default_gamma(theta, alpha), capacity=7.0
                )
                assert fn.eval(0.0) == 0.0
                assert abs(fn.eval(7.0) - alpha * theta) / (alpha * theta) <= 1e-12


class TestSizePrecondition:
    def test_ln2_over_ln2(self):
        assert size_precondition(10.0, math.log(2.0)) == 10.0

    def test_derived_value(self):
        # 10*ln2/ln9, frozen from direct evaluation.
        assert size_precondition(10.0, LN9) == pytest.approx(3.154648767857287, abs=1e-15)

    def test_halving(self):
        assert size_precondition(1.0, 2.0 * math.log(2.0)) == pytest.approx(0.5, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            size_precondition(0.0, 1.0)
        with pytest.raises(ValueError):
            size_precondition(1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="gamma must be a finite number > 0"):
            size_precondition(10.0, bad)
        with pytest.raises(ValueError, match="capacity must be a finite number > 0"):
            size_precondition(bad, 1.0)


class TestTableThreshold:
    def test_interpolation(self):
        fn = TableThreshold(points=((0.0, 0.0), (5.0, 1.0), (10.0, 9.0)))
        assert fn.capacity == 10.0
        assert fn.eval(0.0) == 0.0
        assert fn.eval(2.5) == pytest.approx(0.5)
        assert fn.eval(7.5) == pytest.approx(5.0)
        assert fn.eval(10.0) == pytest.approx(9.0)

    def test_construction_rules(self):
        with pytest.raises(ValueError):
            TableThreshold(points=((0.0, 1.0), (1.0, 2.0)))  # phi(0) != 0
        with pytest.raises(ValueError):
            TableThreshold(points=((0.0, 0.0), (1.0, 2.0), (1.0, 3.0)))  # z not increasing
        with pytest.raises(ValueError):
            TableThreshold(points=((0.0, 0.0), (1.0, 2.0), (2.0, 1.0)))  # phi decreasing
        with pytest.raises(ValueError):
            TableThreshold(points=((0.0, 0.0),))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                TableThreshold(points=((0.0, 0.0), (1.0, bad)))
            with pytest.raises(ValueError, match="finite"):
                TableThreshold(points=((0.0, 0.0), (bad, 1.0)))


class TestConfig:
    def spec(self):
        return KnapsackSpec(10.0, 4.0, 1, 2, 10.0)  # alpha = 2

    def test_auto_gamma(self):
        fn = from_config({"kind": "exponential", "gamma": "auto"}, self.spec())
        assert fn.gamma == pytest.approx(LN9, abs=1e-15)  # ln(1+2*4)

    def test_explicit_gamma(self):
        fn = from_config({"kind": "exponential", "gamma": 1.25}, self.spec())
        assert fn.gamma == 1.25

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            from_config({"kind": "exponential", "gamma": "fast"}, self.spec())

    def test_huge_int_gamma_refused(self):
        # float() of it would raise OverflowError, not a ValueError.
        with pytest.raises(ValueError, match="gamma must be a finite number > 0, got 1000"):
            from_config({"kind": "exponential", "gamma": 10**400}, self.spec())

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_config({"kind": "quadratic"}, self.spec())

    def test_table_capacity_must_match(self):
        with pytest.raises(ValueError):
            from_config(
                {"kind": "table", "points": [[0.0, 0.0], [5.0, 1.0]]}, self.spec()
            )

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "table"},
            {"kind": "table", "points": None},
            {"kind": "table", "points": 3},
            {"kind": "table", "points": [[0.0, 0.0], [10.0]]},
            {"kind": "table", "points": [[0.0, 0.0], [10.0, 1.0, 2.0]]},
            {"kind": "table", "points": [[0.0, 0.0], ["10", 1.0]]},
            {"kind": "table", "points": [[0.0, 0.0], [10.0, True]]},
            {"kind": "table", "points": [[0, 0], [10**400, 1]]},
        ],
        ids=["missing", "null", "number", "short", "long", "string", "bool", "huge"],
    )
    def test_malformed_table_points(self, config):
        with pytest.raises(ValueError, match="table points must be "):
            from_config(config, self.spec())

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"kind": "exponential", "gama": 0.5}, "exponential threshold: unknown keys ['gama']"),
            ({"gamma": 1.0, "points": []}, "exponential threshold: unknown keys ['points']"),
            ({"kind": "table", "points": [[0, 0], [10, 1]], "gamma": 1.0},
             "table threshold: unknown keys ['gamma']"),
        ],
        ids=["misspelt", "implicit-kind", "table-with-gamma"],
    )
    def test_unknown_keys_refused(self, config, message):
        with pytest.raises(ValueError) as info:
            from_config(config, self.spec())
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "config, bad",
        [
            ({"kind": "exponential", "gamma": math.nan}, "nan"),
            ({"gamma": math.inf}, "inf"),
            ({"kind": "table", "points": [[0.0, 0.0], [10.0, -math.inf]]}, "-inf"),
            ({"kind": "table", "points": ((0.0, 0.0), (math.nan, 1.0))}, "nan"),
            ({"extra": {"deep": [[math.nan]]}}, "nan"),
        ],
        ids=["nan-gamma", "inf-gamma", "table-point", "tuple-point", "nested"],
    )
    def test_check_finite_refuses(self, config, bad):
        with pytest.raises(ValueError) as info:
            check_finite(config)
        assert str(info.value) == f"threshold must hold only finite numbers, got {bad}"

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "exponential", "gamma": "auto"},
            {"gamma": -1.0},  # finite: from_config refuses it per knapsack
            {"kind": "table", "points": [[0, 0], [10**400, 1]]},  # an int, not a float
            {"kind": "table", "points": 3},
        ],
        ids=["auto", "negative", "huge-int", "malformed"],
    )
    def test_check_finite_accepts(self, config):
        check_finite(config)

    def test_check_finite_walks_deep_nesting(self):
        # Deeper than the recursion limit, as a parsed config file may be.
        deep: list = [math.nan]
        for _ in range(sys.getrecursionlimit() + 10):
            deep = [deep]
        with pytest.raises(ValueError, match="got nan"):
            check_finite({"points": deep})

    def test_table_from_config(self):
        fn = from_config({"kind": "table", "points": [[0, 0], [10, 5.5]]}, self.spec())
        assert fn.points == ((0.0, 0.0), (10.0, 5.5))

    def test_for_instance_defaults(self):
        from knapdep.core import Instance

        inst = Instance(10, (self.spec(), KnapsackSpec(5.0, 1.0, 1, 1, 5.0)), ())
        fns = for_instance(inst)
        assert fns[0].gamma == pytest.approx(LN9)
        assert fns[1].gamma == pytest.approx(0.6931471805599453)
        assert fns[1].capacity == 5.0
