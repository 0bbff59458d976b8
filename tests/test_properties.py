"""Property tests: the parser on mutated documents, and the JSON round trip.

Documents start from small generated instances and get one mutation each
(a dropped or retyped field, a non-finite or negative number, an extra or
a missing option, a window past the horizon, swapped arrivals, a
duplicate id).  ``loads_instance`` may refuse a document only with a
``SchemaError``; whatever it accepts is well-formed, so the engine and
the branch-and-bound run on it without raising and return feasible
assignments.  Examples are derandomized, so every run sees the same ones.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from knapdep.core import (
    KnapsackSpec,
    SchemaError,
    assignment_violations,
    dumps_instance,
    instance_to_dict,
    loads_instance,
)
from knapdep.engine import run
from knapdep.instances import FAMILIES, GenSpec, generate
from knapdep.oracle import solve_exact
from knapdep.threshold import for_instance

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def instances(draw):
    family = draw(st.sampled_from(FAMILIES))
    k = 1 if family == "staircase" else draw(st.integers(1, 3))
    capacity = draw(st.sampled_from([1.0, 4.0, 10.0]))
    ks = KnapsackSpec(capacity, draw(st.sampled_from([1.0, 8.0])), 1, 3, capacity / 2)
    spec = GenSpec(
        family,
        draw(st.integers(0, 6)),
        draw(st.integers(4, 12)),
        (ks,) * k,
        draw(st.integers(0, 2**16)),
        eligibility=draw(st.sampled_from([1.0, 0.5])),
    )
    generated = generate(spec, levels=2)
    return generated[draw(st.integers(0, len(generated) - 1))]


def objects(doc):
    """Every JSON object in the document."""
    found = [doc]
    for ks in doc["knapsacks"]:
        found.append(ks)
    for item in doc["items"]:
        found.append(item)
        found.extend(item["options"])
    return found


def drop_field(doc, draw):
    obj = draw(st.sampled_from(objects(doc)))
    del obj[draw(st.sampled_from(sorted(obj)))]


def retype_field(doc, draw):
    obj = draw(st.sampled_from(objects(doc)))
    key = draw(st.sampled_from(sorted(obj)))
    obj[key] = draw(st.sampled_from(["1", None, [], {}, True, 1.5, 2]))


NUMBER_FIELDS = frozenset(
    ("horizon", "capacity", "theta", "duration_lo", "duration_hi", "size_cap",
     "id", "arrival", "size", "value", "start", "duration")
)


def bad_number(doc, draw):
    obj = draw(st.sampled_from(objects(doc)))
    key = draw(st.sampled_from(sorted(NUMBER_FIELDS & set(obj))))
    obj[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -1, 0, 0.0]))


def items_of(doc, count=1):
    """The document's items, padded with copies of a valid one to ``count``."""
    items = doc["items"]
    while len(items) < count:
        arrival = items[-1]["arrival"] if items else 1
        items.append(
            {"id": len(items) + 1000, "arrival": arrival, "options": [
                {"eligible": True, "size": 0.5, "value": 1.0, "start": arrival,
                 "duration": 1}
                for _ in doc["knapsacks"]
            ]}
        )
    return items


def extra_option(doc, draw):
    item = draw(st.sampled_from(items_of(doc)))
    item["options"].append(dict(draw(st.sampled_from(item["options"]))))


def missing_option(doc, draw):
    item = draw(st.sampled_from(items_of(doc)))
    item["options"].pop(draw(st.integers(0, len(item["options"]) - 1)))


def window_past_horizon(doc, draw):
    option = draw(st.sampled_from(draw(st.sampled_from(items_of(doc)))["options"]))
    option["start"] = doc["horizon"] - option["duration"] + draw(st.integers(2, 4))


def swap_arrivals(doc, draw):
    items = items_of(doc, 2)
    i = draw(st.integers(0, len(items) - 2))
    j = draw(st.integers(i + 1, len(items) - 1))
    # Swapped, and the earlier one moved past the later: strictly out of order.
    items[i]["arrival"], items[j]["arrival"] = items[j]["arrival"] + 1, items[i]["arrival"]


def duplicate_id(doc, draw):
    items = items_of(doc, 2)
    i = draw(st.integers(1, len(items) - 1))
    items[i]["id"] = items[draw(st.integers(0, i - 1))]["id"]


def unchanged(doc, draw):
    pass


MUTATIONS = [
    drop_field, retype_field, bad_number, extra_option, missing_option,
    window_past_horizon, swap_arrivals, duplicate_id, unchanged,
]


@SETTINGS
@given(inst=instances(), mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_parser_refuses_only_with_schema_error(inst, mutation, data):
    doc = instance_to_dict(inst)
    mutation(doc, data.draw)
    try:
        parsed = loads_instance(json.dumps(doc))
    except SchemaError:
        return
    result = run(parsed, for_instance(parsed))
    assert assignment_violations(parsed, result.assignment()) == []
    solution = solve_exact(parsed, node_budget=200)
    assert assignment_violations(parsed, list(solution.assignment)) == []


@SETTINGS
@given(inst=instances())
def test_round_trip_identity(inst):
    assert loads_instance(dumps_instance(inst)) == inst
