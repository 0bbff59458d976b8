import gc
import hashlib
from random import Random

import pytest

from knapdep.core import KnapsackSpec, dumps_instance, loads_instance, validate_instance
from knapdep.instances import (
    GenSpec,
    TraceMapping,
    _below,
    gen_burst,
    gen_staircase,
    gen_uniform,
    generate,
    ingest_trace,
)
from knapdep.oracle import solve_bruteforce


def ksp(capacity=10.0, theta=4.0, dlo=1, dhi=4, eps=None):
    return KnapsackSpec(capacity, theta, dlo, dhi, eps if eps is not None else capacity)


def uspec(seed=0, n=20, k=1, horizon=40, **kw):
    return GenSpec("uniform", n, horizon, tuple([ksp(**kw)] * k), seed)


class TestGenUniform:
    def test_empty(self):
        inst = gen_uniform(uspec(n=0, seed=5))
        assert inst.num_items == 0
        assert validate_instance(inst, strict=True).ok

    def test_strict_valid_across_seeds(self):
        for seed in range(30):
            inst = gen_uniform(uspec(seed=seed, n=15, k=2, theta=3.0, eps=4.0))
            report = validate_instance(inst, strict=True)
            assert report.ok, report.errors

    def test_deterministic_bytes(self):
        a = dumps_instance(gen_uniform(uspec(seed=1)))
        b = dumps_instance(gen_uniform(uspec(seed=1)))
        assert a == b

    def test_seeds_differ(self):
        assert dumps_instance(gen_uniform(uspec(seed=1))) != dumps_instance(
            gen_uniform(uspec(seed=2))
        )

    def test_arrivals_sorted_and_in_range(self):
        inst = gen_uniform(uspec(seed=3, n=50, horizon=30, dhi=4))
        arrivals = [item.arrival for item in inst.items]
        assert arrivals == sorted(arrivals)
        assert all(1 <= a <= 26 for a in arrivals)

    def test_infeasible_horizon(self):
        with pytest.raises(ValueError, match="too short"):
            gen_uniform(uspec(horizon=4, dhi=4))

    def test_eligibility_fraction(self):
        spec = GenSpec(
            "uniform", 200, 40, (ksp(), ksp()), seed=11, eligibility=0.5
        )
        inst = gen_uniform(spec)
        eligible = sum(
            opt.eligible for item in inst.items for opt in item.options
        )
        assert 120 <= eligible <= 280  # loose two-sided check on 400 draws
        assert validate_instance(inst, strict=True).ok


# Widths from 1 to just past 2**64: every power of two and its neighbours
# (at 2**k + 1 the rejection loop redraws about half the time, at 2**k
# never) and a few others.
WIDTHS = sorted({1, 3, 6, 7, 1000, 10**18} | {2**k + d for k in range(1, 65) for d in (-1, 0, 1)})


class TestBelow:
    @pytest.mark.parametrize("seed", [Random(k).getrandbits(64) for k in range(8)])
    def test_matches_randint_draw_for_draw(self, seed):
        ours, theirs = Random(seed), Random(seed)
        for width in WIDTHS:
            for lo in (1, -7):
                got = [lo + _below(ours.getrandbits, width) for _ in range(4)]
                assert got == [theirs.randint(lo, lo + width - 1) for _ in range(4)]
                # The same stream position, so every later draw stays aligned.
                assert ours.getstate() == theirs.getstate(), width

    @pytest.mark.parametrize("width", [0, -1, -(2**64)])
    def test_empty_range_raises(self, width):
        # getrandbits(0) is 0, which is never below 0: unguarded, the loop
        # would never end.
        with pytest.raises(ValueError, match="empty range"):
            _below(Random(0).getrandbits, width)


class TestGenSpecRefusal:
    @pytest.mark.parametrize(
        "n, horizon, message",
        [
            (2.0, 40, "n must be an integer >= 0, got 2.0"),
            (True, 40, "n must be an integer >= 0, got True"),
            (-1, 40, "n must be an integer >= 0, got -1"),
            ("3", 40, "n must be an integer >= 0, got '3'"),
            (3, 40.0, "horizon must be an integer >= 1, got 40.0"),
            (3, False, "horizon must be an integer >= 1, got False"),
            (3, 0, "horizon must be an integer >= 1, got 0"),
        ],
    )
    def test_counts(self, n, horizon, message):
        with pytest.raises(ValueError) as exc:
            GenSpec("uniform", n, horizon, (ksp(),), 0)
        assert str(exc.value) == message

    def test_knapsack_durations(self):
        # The generator draws integers in each knapsack's duration range;
        # KnapsackSpec refuses a non-integer bound before a spec can hold it
        # (its cases are in test_core).
        with pytest.raises(ValueError) as exc:
            GenSpec("uniform", 3, 40, (ksp(), KnapsackSpec(10.0, 4.0, 1, 4.5, 10.0)), 0)
        assert str(exc.value) == "duration_hi must be an integer >= 1 (duration_lo), got 4.5"


class TestGenBurst:
    def test_valid_and_deterministic(self):
        spec = GenSpec("burst", 40, 60, (ksp(),), seed=4)
        a, b = gen_burst(spec), gen_burst(spec)
        assert dumps_instance(a) == dumps_instance(b)
        assert validate_instance(a, strict=True).ok

    def test_generate_dispatch(self):
        assert len(generate(uspec())) == 1
        assert len(generate(GenSpec("burst", 5, 30, (ksp(),), 0))) == 1


class TestGenStaircase:
    def stair_spec(self, theta=4.0, capacity=1.0, eps=None, dlo=2):
        ks = KnapsackSpec(
            capacity, theta, dlo, dlo, eps if eps is not None else capacity
        )
        return GenSpec("staircase", 0, 10, (ks,), seed=0)

    def test_two_levels_densities(self):
        prefixes = gen_staircase(self.stair_spec(theta=4.0), levels=2)
        assert len(prefixes) == 2
        first, second = prefixes
        assert all(o.density() == 1.0 for it in first.items for o in it.options)
        new_items = second.items[first.num_items:]
        assert all(o.density() == 4.0 for it in new_items for o in it.options)

    def test_prefix_property(self):
        prefixes = gen_staircase(self.stair_spec(theta=8.0, eps=0.4), levels=3)
        for shorter, longer in zip(prefixes, prefixes[1:]):
            assert longer.items[: shorter.num_items] == shorter.items

    def test_strict_valid(self):
        for theta in (2.0, 8.0, 64.0):
            for prefix in gen_staircase(self.stair_spec(theta=theta, eps=0.3), levels=4):
                assert validate_instance(prefix, strict=True).ok

    def test_batch_fills_capacity(self):
        prefixes = gen_staircase(self.stair_spec(eps=0.3), levels=2)
        batch = prefixes[0].items
        assert len(batch) == 4  # ceil(1/0.3)
        assert sum(it.options[0].size for it in batch) == pytest.approx(1.0)
        assert all(it.options[0].size <= 0.3 for it in batch)

    def test_full_prefix_opt_takes_densest_batch(self):
        # Unit sizes (eps = capacity = 1): the optimum packs exactly the
        # densest batch, worth theta * capacity * duration.
        theta, duration = 4.0, 2
        prefixes = gen_staircase(self.stair_spec(theta=theta, dlo=duration), levels=3)
        full = prefixes[-1]
        sol = solve_bruteforce(full)
        assert sol.objective == pytest.approx(theta * 1.0 * duration)

    def test_rejects_multi_knapsack(self):
        spec = GenSpec("staircase", 0, 10, (ksp(), ksp()), seed=0)
        with pytest.raises(ValueError, match="one knapsack"):
            gen_staircase(spec, levels=2)

    def test_rejects_single_level(self):
        with pytest.raises(ValueError, match="levels"):
            gen_staircase(self.stair_spec(), levels=1)


TRACE = """job,when,need,runtime,worth
a,1,2.0,2,6.0
b,2,1.0,3,4.5
c,3,3.0,1,9.0
"""


class TestIngestTrace:
    def mapping(self, **kw):
        base = dict(arrival="when", size="need", duration="runtime", value="worth")
        base.update(kw)
        return TraceMapping(**base)

    def write(self, tmp_path, text=TRACE):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        return path

    def test_identity_ingest(self, tmp_path):
        inst, stats = ingest_trace(
            self.write(tmp_path), self.mapping(), [ksp(theta=8.0)]
        )
        assert inst.num_items == 3
        assert stats.rows_kept == 3 and stats.rows_clamped == 0
        assert [it.options[0].value for it in inst.items] == [6.0, 4.5, 9.0]
        assert inst.horizon == 4  # row b: start 2 + duration 3 - 1

    def test_clamp_policy_counts(self, tmp_path):
        ks = ksp(theta=8.0, dhi=2)  # row b's duration 3 violates
        inst, stats = ingest_trace(self.write(tmp_path), self.mapping(), [ks])
        assert stats.rows_clamped == 1
        assert inst.items[1].options[0].duration == 2

    def test_drop_policy_counts(self, tmp_path):
        ks = ksp(theta=8.0, dhi=2)
        inst, stats = ingest_trace(
            self.write(tmp_path), self.mapping(violation_policy="drop"), [ks]
        )
        assert stats.rows_dropped == 1
        assert inst.num_items == 2

    def test_value_synthesis_midpoint_density(self, tmp_path):
        text = "when,need,runtime\n1,2.0,2\n"
        inst, _ = ingest_trace(
            self.write(tmp_path, text),
            TraceMapping(arrival="when", size="need", duration="runtime"),
            [ksp(theta=3.0)],
        )
        # midpoint density (1+3)/2 = 2, so value = 2 * 2.0 * 2 = 8.
        assert inst.items[0].options[0].value == pytest.approx(8.0)

    def test_missing_column_fails(self, tmp_path):
        with pytest.raises(ValueError, match="missing columns"):
            ingest_trace(
                self.write(tmp_path), self.mapping(size="absent"), [ksp()]
            )

    def test_bad_rows_beyond_tolerance(self, tmp_path):
        text = "when,need,runtime,worth\n1,2.0,2,6.0\nx,y,z,w\n"
        with pytest.raises(ValueError, match="rows \\[2\\]"):
            ingest_trace(
                self.write(tmp_path, text),
                self.mapping(error_tolerance=0.0),
                [ksp(theta=8.0)],
            )

    def test_bad_rows_within_tolerance_skipped(self, tmp_path):
        text = "when,need,runtime,worth\n" + "1,2.0,2,6.0\n" * 99 + "x,y,z,w\n"
        inst, stats = ingest_trace(
            self.write(tmp_path, text), self.mapping(), [ksp(theta=8.0)]
        )
        assert stats.bad_rows == [100]
        assert inst.num_items == 99

    @pytest.mark.parametrize(
        "row",
        ["2,nan,2,6.0", "2,inf,2,6.0", "2,2.0,2,nan", "2,2.0,2,inf", "2,2.0,inf,6.0",
         "inf,2.0,2,6.0", "nan,2.0,2,6.0"],
    )
    def test_non_finite_row_is_bad(self, tmp_path, row):
        text = "when,need,runtime,worth\n" + "1,2.0,2,6.0\n" * 99 + row + "\n"
        inst, stats = ingest_trace(
            self.write(tmp_path, text), self.mapping(), [ksp(theta=8.0)]
        )
        assert stats.bad_rows == [100]
        assert (stats.rows_kept, stats.rows_clamped) == (99, 0)
        assert inst.num_items == 99

    # Time cells as (arrival, start, duration); the second row is clean.
    STARTED = "when,begin,need,runtime,worth\n{},{},1.0,{},3.0\n3.0,3e0,1.0,2.0,3.0\n"

    @pytest.mark.parametrize(
        "cells",
        [("1.7", "2", "2"), ("2.5", "3", "2"), ("1", "1.7", "2"), ("1", "2.5", "2"),
         ("1", "1", "1.7"), ("1", "1", "2.5"), ("0", "1", "2"), ("1", "-1", "2"),
         ("1", "1", "0.0")],
    )
    def test_time_cell_not_whole_is_bad(self, tmp_path, cells):
        # A fractional time cell is refused, never truncated: the row is bad,
        # builds no item and counts against the tolerance.
        path = self.write(tmp_path, self.STARTED.format(*cells))
        inst, stats = ingest_trace(
            path, self.mapping(start="begin", error_tolerance=0.5), [ksp(theta=8.0)]
        )
        assert stats.to_dict() == {
            "rows_read": 2, "rows_kept": 1, "rows_dropped": 0, "rows_clamped": 0, "bad_rows": [1],
        }
        [item] = inst.items
        option = item.options[0]
        assert (item.arrival, option.start, option.duration) == (3, 3, 2)
        assert all(type(x) is int for x in (item.arrival, option.start, option.duration))
        with pytest.raises(ValueError, match=r"1 bad rows \(rows \[1\]\) exceed tolerance 0.49"):
            ingest_trace(path, self.mapping(start="begin", error_tolerance=0.49), [ksp(theta=8.0)])

    @pytest.mark.parametrize("cells", [("1", "1", "1e0"), ("1.0", "1", "1")])
    def test_whole_time_cells_kept(self, tmp_path, cells):
        path = self.write(tmp_path, self.STARTED.format(*cells))
        inst, stats = ingest_trace(path, self.mapping(start="begin"), [ksp(theta=8.0)])
        assert stats.to_dict()["bad_rows"] == []
        assert [(it.arrival, it.options[0].duration) for it in inst.items] == [(1, 1), (3, 2)]

    @pytest.mark.parametrize("row", ["1,0,2,6.0", "1,-2.0,2,6.0", "1,2.0,2,0", "1,2.0,2,-6.0"])
    def test_nonpositive_size_or_value_is_bad(self, tmp_path, row):
        text = "when,need,runtime,worth\n" + row + "\n"
        _, stats = ingest_trace(
            self.write(tmp_path, text), self.mapping(error_tolerance=1.0), [ksp(theta=8.0)]
        )
        assert (stats.rows_read, stats.rows_kept, stats.bad_rows) == (1, 0, [1])

    def test_partition_policy(self, tmp_path):
        inst, _ = ingest_trace(
            self.write(tmp_path),
            self.mapping(assign_policy="partition"),
            [ksp(theta=8.0), ksp(theta=8.0)],
        )
        for i, item in enumerate(inst.items):
            eligible = [k for k, o in enumerate(item.options) if o.eligible]
            assert eligible == [i % 2]

    def test_explicit_horizon_clamps_overrun(self, tmp_path):
        inst, stats = ingest_trace(
            self.write(tmp_path), self.mapping(), [ksp(theta=8.0)], horizon=3
        )
        assert stats.rows_clamped >= 1
        assert validate_instance(inst).ok

    def test_unclampable_row_dropped(self, tmp_path):
        # duration_lo 2 but only one slot of room before the horizon: the
        # clamp policy cannot make row c valid, so it falls back to a drop.
        ks = ksp(theta=8.0, dlo=2, dhi=4)
        inst, stats = ingest_trace(
            self.write(tmp_path), self.mapping(), [ks], horizon=3
        )
        assert stats.rows_dropped == 1
        assert inst.num_items == 2
        assert validate_instance(inst).ok

    @pytest.mark.parametrize("horizon", [None, 3, 3.0, 10.5])
    @pytest.mark.parametrize("durations", [(1, 2), (1.0, 2.0)])
    @pytest.mark.parametrize("assign", ["replicate", "partition"])
    @pytest.mark.parametrize("violation", ["clamp", "drop"])
    def test_ingested_instance_round_trips(self, tmp_path, violation, assign, durations, horizon):
        # Rows kept, clamped and dropped on either knapsack.  What ingest
        # builds, the parser reads back as it was; a horizon or duration
        # bound that is not an integer is refused, never built.
        def ingest():
            knapsacks = [KnapsackSpec(10.0, 8.0, *durations, 10.0), ksp(theta=2.0, eps=2.5)]
            mapping = self.mapping(violation_policy=violation, assign_policy=assign)
            return ingest_trace(self.write(tmp_path), mapping, knapsacks, horizon=horizon)

        if type(horizon) is float or type(durations[0]) is float:
            with pytest.raises(ValueError, match="must be an integer >= 1, got"):
                ingest()
            return
        inst, stats = ingest()
        assert stats.rows_kept == inst.num_items > 0
        assert loads_instance(dumps_instance(inst)) == inst

    # sha256 of the ingested document, pinned across commits.  With horizon
    # 3 and these bounds, row b overruns the horizon and the duration cap of
    # knapsack 0, and row c breaks knapsack 1's density and size caps; each
    # partitioned item carries the ineligible placeholder.
    INGESTED = {
        ("clamp", "replicate"): "068a2ec5f2dbcaaf2cf01bae1c33c586c05eb38c293ba2c42b70c9e9c16cdb36",
        ("clamp", "partition"): "9a171fed297b668a5e6a1bc8401b7321ed2f7de3a1cc5d5d7d4f4c0ed70b48cf",
        ("drop", "replicate"): "e4a5c029450afccbc740e0596ee9d2491c6e173ad739676c61863fb11d852bed",
        ("drop", "partition"): "b7049b947f7f1f96e89f3b887400a6ea16589aa6bbb24b515fc15e555c532843",
    }

    @pytest.mark.parametrize("violation, assign", sorted(INGESTED))
    def test_ingested_text_pinned(self, tmp_path, violation, assign):
        knapsacks = [ksp(theta=8.0, dhi=2), ksp(theta=2.0, eps=2.5)]
        mapping = self.mapping(violation_policy=violation, assign_policy=assign)
        inst, _ = ingest_trace(self.write(tmp_path), mapping, knapsacks, horizon=3)
        digest = hashlib.sha256(dumps_instance(inst).encode()).hexdigest()
        assert digest == self.INGESTED[violation, assign]

    def test_row_at_density_cap_is_kept(self, tmp_path):
        # value == theta * size * duration, though value / (size * duration)
        # rounds one ulp above theta: clamping would not change the row, so
        # it is within the bounds.
        text = "when,need,runtime,worth\n1,0.6,3,2.16\n"
        inst, stats = ingest_trace(self.write(tmp_path, text), self.mapping(), [ksp(theta=1.2)])
        assert (stats.rows_kept, stats.rows_clamped) == (1, 0)
        assert inst.items[0].options[0].value == 2.16


class TestCollectorPause:
    @pytest.mark.parametrize("family", ["uniform", "burst", "staircase"])
    def test_state_restored_after_generate(self, collector, family):
        generate(GenSpec(family, 20, 40, (ksp(),), 3))
        assert gc.isenabled() is collector

    def test_state_restored_when_generate_raises(self, collector):
        with pytest.raises(ValueError, match="too short"):
            generate(uspec(horizon=4, dhi=4))
        assert gc.isenabled() is collector
