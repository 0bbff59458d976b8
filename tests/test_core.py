import copy
import gc
import json
import math
import random
import tracemalloc
from collections import OrderedDict
from types import MappingProxyType

import pytest

from knapdep.core import (
    Instance,
    Item,
    ItemOption,
    KnapsackSpec,
    SchemaError,
    UtilizationState,
    assignment_violations,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    validate_instance,
)
from knapdep.engine import run
from knapdep.jsontext import JSON_BATCH, json_block, json_block_parts
from knapdep.instances import GenSpec, generate
from knapdep.threshold import for_instance


def opt(size, value, start, duration, eligible=True):
    return ItemOption(eligible, size, value, start, duration)


def single(size, value, start, duration, item_id=0, arrival=1):
    return Item(item_id, arrival, (opt(size, value, start, duration),))


def make_instance(items, capacity=10.0, theta=4.0, dlo=1, dhi=4, eps=None, horizon=20):
    ks = KnapsackSpec(capacity, theta, dlo, dhi, eps if eps is not None else capacity)
    return Instance(horizon=horizon, knapsacks=(ks,), items=tuple(items))


class TestTypes:
    def test_interval_slots(self):
        option = opt(1.0, 2.0, start=3, duration=4)
        assert list(option.slots()) == [3, 4, 5, 6]
        assert option.end == 6

    def test_interval_rejects_bad_bounds(self):
        # The records check nothing; Instance checks every window's bounds,
        # an ineligible placeholder's too.
        cases = [
            (opt(1.0, 2.0, 0, 1), "item 0, knapsack 0: interval start must be >= 1, got 0"),
            (opt(0.0, 0.0, 1, 0, eligible=False),
             "item 0, knapsack 0: interval duration must be >= 1, got 0"),
        ]
        for bad, message in cases:
            with pytest.raises(ValueError) as info:
                make_instance([Item(0, 1, (bad,))])
            assert str(info.value) == message

    def test_knapsack_spec_invariants(self):
        with pytest.raises(ValueError):
            KnapsackSpec(0.0, 1.0, 1, 1, 1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="capacity must be a finite number > 0"):
                KnapsackSpec(bad, 1.0, 1, 1, 1.0)
            with pytest.raises(ValueError, match="theta must be a finite number >= 1"):
                KnapsackSpec(10.0, bad, 1, 1, 1.0)
            with pytest.raises(ValueError, match="size_cap"):
                KnapsackSpec(10.0, 1.0, 1, 1, bad)
        with pytest.raises(ValueError):
            KnapsackSpec(10.0, 0.5, 1, 1, 1.0)
        with pytest.raises(ValueError):
            KnapsackSpec(10.0, 1.0, 2, 1, 1.0)
        with pytest.raises(ValueError):
            KnapsackSpec(10.0, 1.0, 1, 1, 11.0)  # size cap above capacity
        assert KnapsackSpec(10.0, 2.0, 2, 6, 5.0).alpha == 3.0

    @pytest.mark.parametrize(
        "dlo, dhi, message",
        [
            (1.0, 4, "duration_lo must be an integer >= 1, got 1.0"),
            (1.5, 2.5, "duration_lo must be an integer >= 1, got 1.5"),
            (True, 4, "duration_lo must be an integer >= 1, got True"),
            (0, 4, "duration_lo must be an integer >= 1, got 0"),
            (1, 4.0, "duration_hi must be an integer >= 1 (duration_lo), got 4.0"),
            (1, 4.5, "duration_hi must be an integer >= 1 (duration_lo), got 4.5"),
            (3, 2, "duration_hi must be an integer >= 3 (duration_lo), got 2"),
        ],
    )
    def test_knapsack_durations(self, dlo, dhi, message):
        # Durations are slot counts: the parser, the generator and the
        # engine take them as integers, so the spec refuses anything else.
        with pytest.raises(ValueError) as exc:
            KnapsackSpec(10.0, 4.0, dlo, dhi, 10.0)
        assert str(exc.value) == message

    def test_density(self):
        assert opt(2.0, 12.0, 1, 3).density() == 2.0


class TestValidate:
    def test_clean_single_item(self):
        # All bounds satisfied at their lower edges: density 1, duration in range.
        inst = make_instance([single(1.0, 2.0, 1, 2)])
        report = validate_instance(inst, strict=True)
        assert report.ok
        assert report.warnings == []
        obs = report.knapsacks[0]
        assert obs["density_range"] == [1.0, 1.0]
        assert obs["duration_range"] == [2, 2]
        assert obs["max_size"] == 1.0

    def test_size_precondition_ok(self):
        inst = make_instance([single(3.0, 6.0, 1, 2)], eps=3.0)
        report = validate_instance(inst, gamma=[math.log(2.0)])
        assert report.ok and not report.warnings


LN9 = math.log(9.0)

# One case per validate finding: (instance, gamma, promoted under strict,
# exact text).  Default knapsack: capacity 10, theta 4, durations in [1, 4].
FINDINGS = {
    "start-before-arrival": (
        make_instance([single(1.0, 2.0, 1, 2, arrival=3)]), None, False,
        "item 0, knapsack 0: window starts at 1, before arrival 3",
    ),
    "density-below-one": (
        make_instance([single(2.0, 2.0, 1, 2)]), None, True,
        "item 0, knapsack 0: density 0.5 below 1",
    ),
    "density-above-theta": (
        make_instance([single(1.0, 10.0, 1, 2)]), None, True,
        "item 0, knapsack 0: density 5.0 above theta 4.0",
    ),
    "duration-below-lo": (
        make_instance([single(1.0, 1.0, 1, 1)], dlo=2), None, True,
        "item 0, knapsack 0: duration 1 below 2",
    ),
    "duration-above-hi": (
        make_instance([single(1.0, 5.0, 1, 5)]), None, True,
        "item 0, knapsack 0: duration 5 above 4",
    ),
    "size-above-cap": (
        make_instance([single(3.0, 6.0, 1, 2)], eps=2.0), None, True,
        "item 0, knapsack 0: size 3.0 above cap 2.0",
    ),
    "size-precondition": (
        make_instance([single(4.0, 8.0, 1, 2)], eps=5.0), [LN9], True,
        "knapsack 0: max size 4.0 exceeds capacity*ln2/gamma = 3.154648767857287",
    ),
    "vacuous-item": (
        make_instance([Item(5, 1, (opt(0.0, 0.0, 1, 1, eligible=False),))]), None, False,
        "item 5: no eligible option (vacuous item)",
    ),
}


class TestValidateFindings:
    """The exact text and order of every finding ``validate_instance`` reports."""

    @pytest.mark.parametrize("case", list(FINDINGS))
    def test_finding_text(self, case):
        inst, gamma, promoted, message = FINDINGS[case]
        lax = validate_instance(inst, gamma=gamma)
        assert (lax.errors, lax.warnings) == ([], [message])
        strict = validate_instance(inst, strict=True, gamma=gamma)
        expected = ([message], []) if promoted else ([], [message])
        assert (strict.errors, strict.warnings) == expected

    def test_rules_broken_together_keep_their_order(self):
        # One option starts before arrival, has density 2/15, lasts 5 slots
        # and is 3.0 large against a cap of 2.0.
        inst = make_instance([single(3.0, 2.0, 1, 5, arrival=2)], eps=2.0)
        violations = [
            "item 0, knapsack 0: density 0.13333333333333333 below 1",
            "item 0, knapsack 0: duration 5 above 4",
            "item 0, knapsack 0: size 3.0 above cap 2.0",
        ]
        start = "item 0, knapsack 0: window starts at 1, before arrival 2"
        lax = validate_instance(inst)
        assert (lax.errors, lax.warnings) == ([], [start, *violations])
        strict = validate_instance(inst, strict=True)
        assert (strict.errors, strict.warnings) == (violations, [start])

    def test_density_above_theta_before_duration_below(self):
        inst = make_instance([single(1.0, 5.0, 1, 1)], dlo=2)
        report = validate_instance(inst, strict=True)
        assert report.errors == [
            "item 0, knapsack 0: density 5.0 above theta 4.0",
            "item 0, knapsack 0: duration 1 below 2",
        ]

    def test_item_findings_before_knapsack_findings(self):
        # Per item in order, then the size precondition per knapsack.
        ks = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)
        items = (
            Item(0, 1, (opt(4.0, 8.0, 1, 2), opt(1.0, 10.0, 1, 2))),
            Item(1, 1, (OFF, OFF)),
        )
        inst = Instance(20, (ks, ks), items)
        report = validate_instance(inst, strict=True, gamma=[LN9, 0.5])
        assert report.errors == [
            "item 0, knapsack 1: density 5.0 above theta 4.0",
            "knapsack 0: max size 4.0 exceeds capacity*ln2/gamma = 3.154648767857287",
        ]
        assert report.warnings == ["item 1: no eligible option (vacuous item)"]
        assert [o["size_bound"] for o in report.knapsacks] == [
            3.154648767857287, 10.0 * math.log(2.0) / 0.5,
        ]

    @pytest.mark.parametrize(
        "gamma, message",
        [
            ([math.nan], "gamma must be a finite number > 0, got nan"),
            ([0.0], "gamma must be a finite number > 0, got 0.0"),
            ([math.inf], "gamma must be a finite number > 0, got inf"),
            ([1.0, 1.0], "gamma must have 1 entries, got 2"),
            ([], "gamma must have 1 entries, got 0"),
        ],
    )
    def test_bad_gamma_raises(self, gamma, message):
        inst = make_instance([single(1.0, 2.0, 1, 2)])
        with pytest.raises(ValueError) as info:
            validate_instance(inst, gamma=gamma)
        assert str(info.value) == message



KS = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)
OFF = opt(0.0, 0.0, 1, 1, eligible=False)

# One case per structural rule: (horizon, knapsack count, items, message).
STRUCTURAL = {
    "horizon": (0, 1, [], "horizon must be an integer >= 1, got 0"),
    "duplicate-id": (
        20, 1, [single(1.0, 2.0, 1, 1, item_id=7), single(1.0, 2.0, 1, 1, item_id=7)],
        "duplicate item id 7",
    ),
    "arrival-zero": (
        20, 1, [single(1.0, 2.0, 1, 1, arrival=0)], "item 0: arrival must be >= 1, got 0",
    ),
    "arrival-order": (
        20, 1,
        [single(1.0, 2.0, 5, 1, item_id=0, arrival=5),
         single(1.0, 2.0, 3, 1, item_id=1, arrival=3)],
        "item 1: arrival 3 breaks nondecreasing order",
    ),
    "too-few-options": (
        20, 2, [single(1.0, 2.0, 1, 2)], "item 0: expected 2 options, got 1",
    ),
    "too-many-options": (
        20, 1, [Item(3, 1, (opt(1.0, 2.0, 1, 2), opt(1.0, 2.0, 1, 2)))],
        "item 3: expected 1 options, got 2",
    ),
    "zero-size": (
        20, 1, [single(0.0, 2.0, 1, 2)], "item 0, knapsack 0: nonpositive size 0.0",
    ),
    "negative-size": (
        20, 1, [single(-1.0, 2.0, 1, 2)], "item 0, knapsack 0: nonpositive size -1.0",
    ),
    "nan-size": (
        20, 1, [single(math.nan, 2.0, 1, 2)], "item 0, knapsack 0: size nan is not finite",
    ),
    "inf-size": (
        20, 1, [single(math.inf, 2.0, 1, 2)], "item 0, knapsack 0: size inf is not finite",
    ),
    "zero-value": (
        20, 1, [single(1.0, 0.0, 1, 2)], "item 0, knapsack 0: nonpositive value 0.0",
    ),
    "inf-value": (
        20, 1, [single(1.0, math.inf, 1, 2)], "item 0, knapsack 0: value inf is not finite",
    ),
    "start-zero": (
        20, 1, [single(1.0, 2.0, 0, 1)], "item 0, knapsack 0: interval start must be >= 1, got 0",
    ),
    "ineligible-duration-zero": (
        20, 2, [Item(2, 1, (opt(1.0, 2.0, 1, 1), opt(0.0, 0.0, 1, 0, eligible=False)))],
        "item 2, knapsack 1: interval duration must be >= 1, got 0",
    ),
    "window-past-horizon": (
        20, 1, [single(1.0, 2.0, 19, 4)],
        "item 0, knapsack 0: window ends at 22, beyond horizon 20",
    ),
    "second-knapsack": (
        20, 2, [Item(4, 1, (OFF, opt(1.0, 2.0, 20, 2)))],
        "item 4, knapsack 1: window ends at 21, beyond horizon 20",
    ),
}

# Ids, arrivals and windows are integers, never bools, as the parser
# requires of the document; ids may be any integer.  Same layout as above.
NON_INTEGER = {
    "id-half": (
        20, 1, [single(1.0, 2.0, 1, 1, item_id=0.5)],
        "item at position 0: id must be an integer, got 0.5",
    ),
    "id-bool": (
        20, 1, [single(1.0, 2.0, 1, 1, item_id=1), single(1.0, 2.0, 1, 1, item_id=True)],
        "item at position 1: id must be an integer, got True",
    ),
    "id-string": (
        20, 1, [single(1.0, 2.0, 1, 1, item_id="a")],
        "item at position 0: id must be an integer, got 'a'",
    ),
    "arrival-half": (
        20, 1, [single(1.0, 2.0, 2, 1, arrival=1.5)],
        "item 0: arrival must be an integer, got 1.5",
    ),
    "start-float": (
        20, 1, [single(1.0, 2.0, 1.0, 2)],
        "item 0, knapsack 0: interval start must be an integer, got 1.0",
    ),
    "start-half": (
        20, 1, [single(1.0, 2.0, 2.5, 2)],
        "item 0, knapsack 0: interval start must be an integer, got 2.5",
    ),
    "start-bool": (
        20, 1, [single(1.0, 2.0, True, 2)],
        "item 0, knapsack 0: interval start must be an integer, got True",
    ),
    "duration-float": (
        20, 1, [single(1.0, 2.0, 1, 2.0)],
        "item 0, knapsack 0: interval duration must be an integer, got 2.0",
    ),
    "duration-half": (
        20, 1, [single(1.0, 2.0, 1, 2.5)],
        "item 0, knapsack 0: interval duration must be an integer, got 2.5",
    ),
    "ineligible-start-float": (
        20, 2, [Item(3, 1, (opt(1.0, 2.0, 1, 1), opt(0.0, 0.0, 1.0, 1, eligible=False)))],
        "item 3, knapsack 1: interval start must be an integer, got 1.0",
    ),
}


class TestStructure:
    """Every ``Instance`` is well-formed: the constructor refuses the rest."""

    @pytest.mark.parametrize("case", list(STRUCTURAL))
    def test_structural_rule_refused(self, case):
        horizon, k, items, message = STRUCTURAL[case]
        with pytest.raises(ValueError) as info:
            Instance(horizon, (KS,) * k, tuple(items))
        assert str(info.value) == message

    @pytest.mark.parametrize("horizon", [2.5, 20.0, True])
    def test_horizon_is_an_integer(self, horizon):
        # The parser refuses these as field types; a record built in Python
        # is refused by the constructor.
        with pytest.raises(ValueError) as info:
            Instance(horizon, (KS,), ())
        assert str(info.value) == f"horizon must be an integer >= 1, got {horizon!r}"

    @pytest.mark.parametrize("case", list(NON_INTEGER))
    def test_non_integer_refused(self, case):
        horizon, k, items, message = NON_INTEGER[case]
        with pytest.raises(ValueError) as info:
            Instance(horizon, (KS,) * k, tuple(items))
        assert str(info.value) == message

    def test_integer_subclasses_accepted(self):
        # An int subclass is an integer; negative ids are integers too.
        class Slot(int):
            pass

        items = (
            single(1.0, 2.0, 1, 1, item_id=-3),
            Item(Slot(4), Slot(2), (opt(1.0, 2.0, Slot(2), Slot(3)),)),
        )
        inst = Instance(20, (KS,), items)
        assert loads_instance(dumps_instance(inst)) == inst
        assert run(inst, for_instance(inst)).assignment() == [0, 0]

    def test_first_violation_reported(self):
        # Item 1 breaks the order and has a bad option; the order comes first.
        items = (single(1.0, 2.0, 5, 1, item_id=0, arrival=5),
                 single(0.0, 2.0, 30, 1, item_id=1, arrival=3))
        with pytest.raises(ValueError, match="breaks nondecreasing order"):
            Instance(20, (KS,), items)

    def test_ineligible_placeholders_unchecked(self):
        # Placeholder numbers and windows are ignored, as everywhere else.
        item = Item(0, 1, (opt(0.0, -1.0, 40, 5, eligible=False), opt(1.0, 2.0, 16, 5)))
        inst = Instance(20, (KS, KS), (item,))
        assert inst.items[0].options[1].end == inst.horizon

    @pytest.mark.parametrize("case", list(STRUCTURAL))
    def test_parser_passes_message_on(self, case):
        horizon, k, items, message = STRUCTURAL[case]
        data = instance_to_dict(Instance(20, (KS,) * k, ()))
        data["horizon"] = horizon
        data["items"] = [
            {
                "id": it.id,
                "arrival": it.arrival,
                "options": [
                    {"eligible": o.eligible, "size": o.size, "value": o.value,
                     "start": o.start, "duration": o.duration}
                    for o in it.options
                ],
            }
            for it in items
        ]
        text = json.dumps(data)
        if "nan" in case or "inf" in case:
            # JSON has no finite spelling for these: the field check fires first.
            with pytest.raises(SchemaError, match="must be a finite number"):
                loads_instance(text)
            return
        with pytest.raises(SchemaError) as info:
            loads_instance(text)
        assert str(info.value) == message


class TestObservedParameters:
    """The validate report's per-knapsack observed ranges."""

    def test_max_density(self):
        items = [
            single(1.0, d * 1.0, 1, 1, item_id=i)
            for i, d in enumerate([1.0, 3.0, 3.0])
        ]
        obs = validate_instance(make_instance(items)).knapsacks
        assert obs[0]["density_range"] == [1.0, 3.0]

    def test_duration_ratio(self):
        items = [single(1.0, 2.0, 1, 2, item_id=0), single(1.0, 6.0, 1, 6, item_id=1)]
        obs = validate_instance(make_instance(items, dhi=6)).knapsacks
        lo, hi = obs[0]["duration_range"]
        assert (lo, hi) == (2, 6) and hi / lo == 3.0

    def test_degenerate_knapsack(self):
        ks = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)
        item = Item(0, 1, (opt(1.0, 2.0, 1, 2), opt(0.0, 0.0, 1, 1, eligible=False)))
        inst = Instance(20, (ks, ks), (item,))
        obs = validate_instance(inst).knapsacks
        assert (obs[1]["density_range"], obs[1]["duration_range"], obs[1]["max_size"]) == (
            None, None, 0.0,
        )

    def test_permutation_independent(self):
        rng = random.Random(11)
        items = [
            single(rng.uniform(0.5, 2.0), rng.uniform(1.0, 9.0), 1, rng.randint(1, 4), item_id=i)
            for i in range(8)
        ]
        base = validate_instance(make_instance(items)).knapsacks
        for _ in range(5):
            rng.shuffle(items)
            relabeled = [
                Item(i, it.arrival, it.options) for i, it in enumerate(items)
            ]
            assert validate_instance(make_instance(relabeled)).knapsacks == base


class TestUtilizationState:
    def test_sparse_default_zero(self):
        state = UtilizationState(2, horizon=10)
        assert state.window(0, 5, 1) == [0.0]
        state.add(0, 5, 2, 1.5)
        assert state.window(0, 4, 4) == [0.0, 1.5, 1.5, 0.0]
        assert state.window(1, 5, 1) == [0.0]

    def test_window_covers_interval(self):
        state = UtilizationState(1, horizon=3)
        state.add(0, 2, 1, 3.0)
        assert state.window(0, 1, 3) == [0.0, 3.0, 0.0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            UtilizationState(1, horizon=1).add(0, 1, 1, -1.0)

    def test_rejects_nan_size(self):
        # NaN passes a plain `size < 0` test and would poison the slots.
        state = UtilizationState(1, horizon=4)
        state.add(0, 2, 1, 1.0)
        with pytest.raises(ValueError) as info:
            state.add(0, 2, 2, math.nan)
        assert str(info.value) == "utilization updates must be nonnegative, got nan"
        assert state.window(0, 1, 4) == [0.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("duration", [0, -2])
    def test_window_refuses_duration_below_one(self, duration):
        # An empty window would charge nothing and fit everywhere.
        state = UtilizationState(1, horizon=4)
        message = f"window duration must be >= 1, got {duration}"
        with pytest.raises(ValueError) as info:
            state.window(0, 2, duration)
        assert str(info.value) == message
        with pytest.raises(ValueError, match=message):
            state.add(0, 2, duration, 1.0)
        assert list(state.covered(0)) == []

    def test_window_may_end_on_the_horizon(self):
        state = UtilizationState(1, horizon=4)
        state.add(0, 3, 2, 1.0)
        assert state.window(0, 1, 4) == [0.0, 0.0, 1.0, 1.0]
        assert state.window(0, 4, 1) == [1.0]
        assert list(state.covered(0)) == [(3, 1.0), (4, 1.0)]

    def test_adds_accumulate_per_slot(self):
        state = UtilizationState(2, horizon=8)
        state.add(1, 2, 5, 0.5)
        state.add(1, 6, 2, 0.25)
        assert state.window(1, 1, 8) == [
            0.0, 0.5, 0.5, 0.5, 0.5, 0.75, 0.25, 0.0,
        ]
        assert list(state.covered(0)) == []
        assert list(state.covered(1)) == [
            (2, 0.5), (3, 0.5), (4, 0.5), (5, 0.5), (6, 0.75), (7, 0.25),
        ]

    def test_covered_lists_slots_in_order(self):
        state = UtilizationState(1, horizon=20)
        state.add(0, 12, 2, 1.0)
        state.add(0, 3, 2, 5e-324)  # smallest positive size
        state.add(0, 9, 1, 2.0)
        assert list(state.covered(0)) == [
            (3, 5e-324), (4, 5e-324), (9, 2.0), (12, 1.0), (13, 1.0),
        ]


class TestAssignmentAudit:
    def test_overfull_slot_detected(self):
        items = [single(6.0, 12.0, 1, 2, item_id=0), single(6.0, 12.0, 2, 2, item_id=1)]
        inst = make_instance(items)
        assert assignment_violations(inst, [0, 0])  # slot 2 carries 12 > 10
        assert assignment_violations(inst, [0, None]) == []

    def test_ineligible_assignment_detected(self):
        item = Item(0, 1, (opt(0.0, 0.0, 1, 1, eligible=False),))
        inst = make_instance([item])
        assert assignment_violations(inst, [0])

    @pytest.mark.parametrize("assignment", [[], [0, None]])
    def test_wrong_length_refused(self, assignment):
        inst = make_instance([single(1.0, 2.0, 1, 1)])
        with pytest.raises(ValueError, match=f"assignment has {len(assignment)} entries for 1 items"):
            assignment_violations(inst, assignment)

    @pytest.mark.parametrize("k", [1, -1])
    def test_unknown_knapsack_reported(self, k):
        inst = make_instance([single(1.0, 2.0, 1, 1, item_id=7)])
        assert assignment_violations(inst, [k]) == [f"item 7: assigned to unknown knapsack {k}"]


class TestJsonSchema:
    def roundtrip_instance(self):
        items = [
            Item(0, 1, (opt(1.5, 4.5, 1, 3), opt(0.0, 0.0, 1, 1, eligible=False))),
            Item(1, 2, (opt(2.0, 4.0, 2, 1), opt(1.0, 2.0, 3, 2))),
        ]
        ks = (KnapsackSpec(10.0, 4.0, 1, 4, 10.0), KnapsackSpec(5.0, 2.0, 1, 2, 3.0))
        return Instance(20, ks, tuple(items))

    def test_roundtrip(self):
        inst = self.roundtrip_instance()
        assert instance_from_dict(instance_to_dict(inst)) == inst
        assert loads_instance(dumps_instance(inst)) == inst

    def test_instance_from_dict_leaves_its_argument(self):
        data = instance_to_dict(self.roundtrip_instance())
        before = copy.deepcopy(data)
        instance_from_dict(data)
        assert data == before

    def test_parse_frees_each_item_once_built(self):
        # The parsed document is drained as the records are built.  Holding
        # the whole document until the last record exists peaks at about
        # 2.7 times the text on this instance; draining at about 1.8.
        ks = KnapsackSpec(10.0, 8.0, 4, 16, 2.0)
        text = dumps_instance(generate(GenSpec("uniform", 3000, 2000, (ks,) * 4, 1))[0])
        tracemalloc.start()
        try:
            loads_instance(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * len(text)

    def test_unknown_field_rejected(self):
        data = instance_to_dict(self.roundtrip_instance())
        data["extra"] = 1
        with pytest.raises(SchemaError, match="unknown"):
            instance_from_dict(data)

    def test_unknown_option_field_rejected(self):
        data = instance_to_dict(self.roundtrip_instance())
        data["items"][0]["options"][0]["weight"] = 2
        with pytest.raises(SchemaError, match="unknown"):
            instance_from_dict(data)

    def test_missing_field_rejected(self):
        data = instance_to_dict(self.roundtrip_instance())
        del data["items"][1]["arrival"]
        with pytest.raises(SchemaError, match="missing"):
            instance_from_dict(data)

    def test_type_errors_rejected(self):
        data = instance_to_dict(self.roundtrip_instance())
        data["horizon"] = "20"
        with pytest.raises(SchemaError):
            instance_from_dict(data)

    def test_field_names_exact(self):
        data = instance_to_dict(self.roundtrip_instance())
        assert sorted(data) == ["horizon", "items", "knapsacks"]
        assert sorted(data["knapsacks"][0]) == [
            "capacity", "duration_hi", "duration_lo", "size_cap", "theta",
        ]
        assert sorted(data["items"][0]) == ["arrival", "id", "options"]
        assert sorted(data["items"][0]["options"][0]) == [
            "duration", "eligible", "size", "start", "value",
        ]

    def test_invalid_json_text(self):
        with pytest.raises(SchemaError):
            loads_instance("{not json")

    def test_non_dict_mappings_parse(self):
        inst = self.roundtrip_instance()

        def frozen(obj):
            if isinstance(obj, dict):
                return MappingProxyType({k: frozen(v) for k, v in obj.items()})
            if isinstance(obj, list):
                return [frozen(v) for v in obj]
            return obj

        data = frozen(instance_to_dict(inst))
        assert not isinstance(data, dict)
        assert instance_from_dict(data) == inst
        assert instance_from_dict(OrderedDict(instance_to_dict(inst))) == inst

    def test_integer_number_field_parses_as_float(self):
        data = instance_to_dict(self.roundtrip_instance())
        data["knapsacks"][0]["capacity"] = 10
        data["items"][0]["options"][0]["size"] = 2
        inst = instance_from_dict(data)
        assert type(inst.knapsacks[0].capacity) is float
        assert inst.knapsacks[0].capacity == 10.0
        assert type(inst.items[0].options[0].size) is float

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("items", 0, "options", 0, "size"), True,
             "item at position 0, option 0: field 'size' must be a number"),
            (("items", 1, "options", 1, "value"), False,
             "item at position 1, option 1: field 'value' must be a number"),
            (("items", 1, "arrival"), True,
             "item at position 1: field 'arrival' must be an integer"),
            (("items", 0, "id"), 0.0,
             "item at position 0: field 'id' must be an integer"),
            (("horizon",), True, "instance: field 'horizon' must be an integer"),
            (("knapsacks", 0, "theta"), "4",
             "knapsack 0: field 'theta' must be a number"),
            (("items", 0, "options", 0, "start"), 1.0,
             "item at position 0, option 0: field 'start' must be an integer"),
        ],
    )
    def test_type_error_messages(self, path, value, message):
        data = instance_to_dict(self.roundtrip_instance())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(SchemaError) as info:
            instance_from_dict(data)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e999", "int-1e400"],
    )
    @pytest.mark.parametrize(
        "path, where",
        [
            (("items", 0, "options", 0, "size"), "item at position 0, option 0"),
            (("items", 1, "options", 1, "value"), "item at position 1, option 1"),
            (("items", 0, "options", 1, "size"), "item at position 0, option 1"),
            (("knapsacks", 1, "capacity"), "knapsack 1"),
            (("knapsacks", 0, "theta"), "knapsack 0"),
            (("knapsacks", 0, "size_cap"), "knapsack 0"),
        ],
    )
    def test_non_finite_numbers_rejected(self, path, where, literal):
        data = instance_to_dict(self.roundtrip_instance())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "@"
        text = json.dumps(data).replace('"@"', literal)
        with pytest.raises(SchemaError) as info:
            loads_instance(text)
        assert str(info.value) == f"{where}: field '{path[-1]}' must be a finite number"

    def test_field_error_messages(self):
        data = instance_to_dict(self.roundtrip_instance())
        data["items"][0]["options"][1]["weight"] = 2
        with pytest.raises(SchemaError) as info:
            instance_from_dict(data)
        assert str(info.value) == "item at position 0, option 1: unknown fields ['weight']"

        data = instance_to_dict(self.roundtrip_instance())
        del data["knapsacks"][0]["theta"]
        del data["knapsacks"][0]["size_cap"]
        with pytest.raises(SchemaError) as info:
            instance_from_dict(data)
        assert str(info.value) == "knapsack 0: missing fields ['size_cap', 'theta']"

        data = instance_to_dict(self.roundtrip_instance())
        data["items"][1] = [1, 2, 3]
        with pytest.raises(SchemaError) as info:
            instance_from_dict(data)
        assert str(info.value) == "item at position 1: expected an object"

    @pytest.mark.parametrize("where", ["instance", "item at position 1"])
    def test_unknown_keys_of_mixed_types_are_named(self, where):
        # A Mapping may hold keys that do not order among themselves; they
        # are named in the order of their text.
        data = instance_to_dict(self.roundtrip_instance())
        target = data if where == "instance" else data["items"][1]
        target.update({1: 0, "x": 0, (2,): 0})
        with pytest.raises(SchemaError) as info:
            instance_from_dict(data)
        assert str(info.value) == f"{where}: unknown fields [(2,), 1, 'x']"


class TestCollectorPause:
    """The bulk record builders pause the cyclic collector and restore it."""

    def test_state_restored_after_parse(self, collector):
        text = dumps_instance(TestJsonSchema().roundtrip_instance())
        loads_instance(text)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"horizon": 20, ', "invalid JSON"),
            (
                '{"horizon": 20, "knapsacks": [], "items": [{"id": 0, "arrival": 1, '
                '"options": [{"eligible": true, "size": "1", "value": 2.0, '
                '"start": 1, "duration": 1}]}]}',
                "option 0: field 'size' must be a number",
            ),
        ],
        ids=["malformed-json", "bad-option-record"],
    )
    def test_state_restored_after_schema_error(self, collector, text, message):
        with pytest.raises(SchemaError, match=message):
            loads_instance(text)
        assert gc.isenabled() is collector

    def test_no_collection_while_records_are_built(self):
        # With the collector on and a small generation-0 threshold, each of
        # these calls would set off hundreds of collections unless it paused
        # it.  A full collection first zeroes the allocation count, so that
        # the few allocations made before the pause cannot set one off.
        ks = KnapsackSpec(10.0, 8.0, 4, 16, 2.0)
        spec = GenSpec("uniform", 2000, 2000, (ks,) * 4, 1)
        starts = []

        def on_collect(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        def collections(call, *args):
            gc.collect()
            starts.clear()
            result = call(*args)
            return len(starts), result

        was_enabled = gc.isenabled()
        threshold = gc.get_threshold()
        gc.enable()
        gc.set_threshold(100)
        gc.callbacks.append(on_collect)
        try:
            in_generate, (inst,) = collections(generate, spec)
            text = dumps_instance(inst)
            in_parse, parsed = collections(loads_instance, text)
            thresholds = for_instance(inst)
            in_run, _ = collections(run, inst, thresholds)
        finally:
            gc.callbacks.remove(on_collect)
            gc.set_threshold(*threshold)
            (gc.enable if was_enabled else gc.disable)()
        assert parsed == inst
        assert (in_generate, in_parse, in_run) == (0, 0, 0)


class TestJsonBlockParts:
    @pytest.mark.parametrize("brackets", ["[]", "{}"])
    @pytest.mark.parametrize(
        "n", [0, 1, JSON_BATCH - 1, JSON_BATCH, JSON_BATCH + 1, 2 * JSON_BATCH + 3]
    )
    def test_joined_parts_are_the_block(self, n, brackets):
        elements = [f'    "{i}": {i}' for i in range(n)]
        parts = list(json_block_parts(elements, "  ", brackets))
        assert "".join(parts) == json_block(elements, "  ", brackets)
        # One part per batch, then the closing bracket.
        assert len(parts) == (-(-n // JSON_BATCH) + 1 if n else 1)

    def test_elements_drawn_one_batch_at_a_time(self):
        drawn = []

        def elements():
            for i in range(3 * JSON_BATCH):
                drawn.append(i)
                yield str(i)

        parts = json_block_parts(elements(), "")
        first = next(parts)
        assert len(drawn) == JSON_BATCH
        assert first.count("\n") == JSON_BATCH
        next(parts)
        assert len(drawn) == 2 * JSON_BATCH
