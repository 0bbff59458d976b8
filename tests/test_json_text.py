"""The JSON writers against ``json.dumps(reference, indent=2)``, byte for byte.

``dumps_instance`` and ``RunResult.to_json`` write their documents straight
to text.  The dict builders below are the independent reference: they
spell each document out the plain way, and the writers' text must be
exactly what ``json.dumps`` makes of it.
"""

import json
import math

import pytest

from knapdep.core import (
    Instance,
    Item,
    ItemOption,
    KnapsackSpec,
    dumps_instance,
    json_scalar,
)
from knapdep.engine import run
from knapdep.instances import FAMILIES, GenSpec, generate
from knapdep.threshold import ExponentialThreshold, ThresholdFn, for_instance


def reference_instance_dict(inst):
    return {
        "horizon": inst.horizon,
        "knapsacks": [
            {
                "capacity": ks.capacity,
                "theta": ks.theta,
                "duration_lo": ks.duration_lo,
                "duration_hi": ks.duration_hi,
                "size_cap": ks.size_cap,
            }
            for ks in inst.knapsacks
        ],
        "items": [
            {
                "id": it.id,
                "arrival": it.arrival,
                "options": [
                    {
                        "eligible": opt.eligible,
                        "size": opt.size,
                        "value": opt.value,
                        "start": opt.start,
                        "duration": opt.duration,
                    }
                    for opt in it.options
                ],
            }
            for it in inst.items
        ],
    }


def reference_utilization(inst, result):
    """Covered slots and their loads, re-added in item order from 0.0.

    The engine adds each admitted size to its slots in item order, so the
    same left-to-right sums give the same floats without reading its state.
    """
    load = [{} for _ in inst.knapsacks]
    for item, decision in zip(inst.items, result.decisions):
        if decision.admitted:
            opt = item.options[decision.knapsack]
            row = load[decision.knapsack]
            for t in opt.slots():
                row[t] = row.get(t, 0.0) + opt.size
    return {
        str(k): {str(t): row[t] for t in sorted(row)} for k, row in enumerate(load)
    }


def reference_run_dict(inst, result):
    records = []
    for decision in result.decisions:
        phi = None
        if decision.admitted:
            phi = next(
                e.phi for e in decision.entries if e.knapsack == decision.knapsack
            )
        records.append(
            {
                "id": decision.item_id,
                "admitted": decision.admitted,
                "knapsack": decision.knapsack,
                "phi": phi,
                "audit": [
                    {
                        "knapsack": e.knapsack,
                        "phi": e.phi,
                        "fits": e.fits,
                        "admissible": e.admissible,
                    }
                    for e in decision.entries
                ],
            }
        )
    return {
        "profit": result.profit,
        "decisions": records,
        "utilization": reference_utilization(inst, result),
    }


def check(inst, thresholds=None):
    """Both writers on ``inst`` equal ``json.dumps`` of the reference."""
    assert dumps_instance(inst) == json.dumps(reference_instance_dict(inst), indent=2)
    result = run(inst, for_instance(inst) if thresholds is None else thresholds)
    text = result.to_json()
    assert text == json.dumps(reference_run_dict(inst, result), indent=2)
    return result, text


KNAPSACK = KnapsackSpec(capacity=4.0, theta=8.0, duration_lo=2, duration_hi=6, size_cap=4.0)
FLAT = KnapsackSpec(10.0, 4.0, 1, 4, 10.0)


def one_option(size, value, start, duration, eligible=True):
    return ItemOption(eligible, size, value, start, duration)


# The staircase family is defined for one knapsack only.
SWEEP = [(f, k) for f in FAMILIES for k in (1, 4) if not (f == "staircase" and k > 1)]


@pytest.mark.parametrize("family, k", SWEEP)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_sweep(family, k, seed):
    spec = GenSpec(
        family=family, n=40, horizon=30, knapsacks=(KNAPSACK,) * k,
        seed=seed, eligibility=0.7,
    )
    for inst in generate(spec):
        result, _ = check(inst)
        if family != "staircase":
            assert any(d.admitted for d in result.decisions)
            assert not all(d.admitted for d in result.decisions)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_zero_items(k):
    _, text = check(Instance(10, (FLAT,) * k, ()), [ExponentialThreshold(1.0, 10.0)] * k)
    assert '"decisions": []' in text


def test_item_with_no_eligible_option():
    items = (
        Item(0, 1, (one_option(1.0, 5.0, 1, 2, eligible=False),) * 2),
        Item(1, 1, (one_option(1.0, 5.0, 1, 2), one_option(2.0, 3.0, 2, 2))),
    )
    _, text = check(Instance(10, (FLAT, FLAT), items))
    assert '"audit": []' in text


def test_admitted_tiny_size_option():
    # Zero sizes are refused by ``Instance``; the smallest positive one is
    # admitted and its slots are written.
    items = (
        Item(0, 1, (one_option(5e-324, 1.0, 2, 2),)),
        Item(1, 1, (one_option(1.0, 5.0, 5, 1),)),
    )
    result, text = check(Instance(10, (FLAT,), items))
    assert result.assignment() == [0, 0]
    assert '"3": 5e-324' in text


def test_window_ending_at_horizon():
    items = (
        Item(0, 1, (one_option(1.0, 5.0, 2, 4),)),
        Item(1, 1, (one_option(2.0, 9.0, 3, 3),)),
    )
    result, text = check(Instance(5, (FLAT,), items))
    assert result.assignment() == [0, 0]
    assert '"5": 3.0' in text


def test_int_valued_fields_and_subclasses():
    class Id(int):
        pass

    class Size(float):
        pass

    ks = KnapsackSpec(10, 4, 1, 4, 10)
    items = (
        Item(Id(7), 1, (ItemOption(True, 2, 9, 1, 2),)),
        Item(8, 2, (ItemOption(True, Size(1.5), 6.0, 2, 2),)),
    )
    inst = Instance(10, (ks,), items)
    _, text = check(inst)
    assert '"capacity": 10,' in dumps_instance(inst)
    assert '"id": 7,' in text


class OddFloat(float):
    """Spelled "odd" by repr, str and format; json.dumps uses float.__repr__."""

    def __format__(self, spec):
        return "odd"

    __repr__ = __str__ = lambda self: "odd"


class OddInt(int):
    """Spelled "odd" by repr, str and format; json.dumps uses int.__repr__."""

    def __format__(self, spec):
        return "odd"

    __repr__ = __str__ = lambda self: "odd"


@pytest.mark.parametrize(
    "option",
    [
        ItemOption(True, 2, 9.0, 1, 2),
        ItemOption(True, 2.0, 9, 1, 2),
        ItemOption(1, 2.0, 9.0, 1, 2),
        ItemOption(False, math.nan, math.inf, 1, 1),
        ItemOption(False, -math.inf, 0.0, 1, 1),
        ItemOption(True, OddFloat(1.5), 6.0, 2, 2),
        ItemOption(True, 1.5, 6.0, 2, OddInt(2)),
    ],
    ids=["int-size", "int-value", "eligible-1", "nan-inf-placeholder", "-inf-placeholder",
         "float-subclass", "int-subclass"],
)
def test_option_not_of_exact_types(option):
    # Each field is spelled as json.dumps spells it, next to an option of
    # exact types in the same item.
    exact = ItemOption(True, 0.1, 0.7, 3, 1)
    items = (Item(0, 1, (option, exact)), Item(1, 2, (exact, option)))
    inst = Instance(10, (FLAT, FLAT), items)
    assert dumps_instance(inst) == json.dumps(reference_instance_dict(inst), indent=2)


def test_infinite_phi():
    # exp overflows once z * gamma / capacity passes about 709.78, so the
    # second item is charged inf (1.0 * inf).  Sizes are > 0, so no charge
    # is 0 * inf.
    items = (
        Item(0, 1, (one_option(1.0, 5.0, 1, 2),)),
        Item(1, 1, (one_option(1.0, 5.0, 2, 1),)),
    )
    result, text = check(Instance(10, (FLAT,), items), [ExponentialThreshold(1e5, 10.0)])
    assert result.assignment() == [0, None]
    assert result.decisions[1].entries[0].phi == math.inf
    assert '"phi": Infinity' in text


@pytest.mark.parametrize("item_id", [2**70, -5, 2**63, -(2**63) - 1])
def test_item_ids_past_a_machine_word(item_id):
    # The run keeps each id as the item holds it, not in a fixed-width column.
    items = (
        Item(item_id, 1, (one_option(1.0, 5.0, 1, 2),)),
        Item(3, 1, (one_option(1.0, 5.0, 2, 2),)),
    )
    result, text = check(Instance(10, (FLAT,), items))
    assert [d.item_id for d in result.decisions] == [item_id, 3]
    assert f'"id": {item_id},' in text


def test_knapsack_indices_past_255():
    # 300 knapsacks; item i is eligible on knapsacks 0, 256 + i and 299 - i,
    # and the value grows with the index, so it goes to the highest.  The
    # last item, larger than the capacity, is checked past 255 and declined.
    def item(item_id, eligible, size=1.0):
        options = (one_option(size, k + 1.0, 1, 2, k in eligible) for k in range(300))
        return Item(item_id, 1, tuple(options))

    items = (*(item(i, (0, 256 + i, 299 - i)) for i in range(4)), item(4, range(256, 300), 11.0))
    result, text = check(Instance(10, (FLAT,) * 300, items))
    assert result.assignment() == [299, 298, 297, 296, None]
    assert [e.knapsack for e in result.decisions[1].entries] == [0, 257, 298]
    assert [e.knapsack for e in result.decisions[4].entries] == list(range(256, 300))
    assert '"knapsack": 299,' in text


class Constant(ThresholdFn):
    """phi(0) = 0 and ``level`` at every other utilization."""

    kind = "constant"

    def __init__(self, level, capacity):
        self.level = level
        self.capacity = capacity

    def eval(self, z):
        return 0.0 if z == 0.0 else self.level


@pytest.mark.parametrize("level", [math.inf, math.nan])
def test_non_finite_charge(level):
    # The first item is charged 0.0 and admitted; the second overlaps it and
    # is charged inf or nan, which no value covers.
    items = (
        Item(0, 1, (one_option(1.0, 5.0, 1, 2),)),
        Item(1, 1, (one_option(1.0, 5.0, 2, 2),)),
    )
    result, text = check(Instance(10, (FLAT,), items), [Constant(level, 10.0)])
    assert result.assignment() == [0, None]
    (entry,) = result.decisions[1].entries
    assert entry.fits and not entry.admissible
    assert repr(entry.phi) == repr(level)
    assert f'"phi": {json.dumps(level)},' in text


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 1.5, 5e-324, 1e300, -2.5e-7, math.nan, math.inf, -math.inf,
     0, -5, 10**30, True, False, None, "aé"],
)
def test_json_scalar_matches_json_dumps(value):
    assert json_scalar(value) == json.dumps(value)
