"""Property tests: the parser, the JSON round trip and the solvers.

Documents start from small generated instances and get one mutation each
(a dropped or retyped field, a non-finite or negative number, an extra or
a missing option, a window past the horizon, swapped arrivals, a
duplicate id).  ``loads_instance`` may refuse a document only with a
``SchemaError``; whatever it accepts is well-formed, so the engine and
the branch-and-bound run on it without raising and return feasible
assignments.  The parser's fast branch and its general branch agree on
every such document.  ``run`` and ``validate --strict``, which read a
document in one streamed pass where its layout allows and otherwise
whole, answer every such document, in every JSON layout and at every
read size from 1 to 16 characters, with the exit code and bytes that
parsing it whole gives.  That alone would pass a reader that never
streams, so ``gen``'s own text must take the streamed pass and give the
instance it was written from, and that text with one character (or one
item join) replaced, deleted or inserted must either fail the pass, and
so be read whole, or give what ``loads_instance`` gives.

On instances small enough for brute force, the online profit never
exceeds the offline optimum, branch-and-bound proves the brute-force
optimum, a budget-bound solve reports a bound no smaller than it, and
every output is the same text from two independent calls.  Examples are
derandomized, so every run sees the same ones.

Sizes here are quarters, which are exact in binary, so no sum of them
rounds.  These properties therefore cannot show a search whose loads
drift when a placement is undone by subtraction; ``tests/test_oracle.py``
pins exact restore on sizes in tenths.  The one exception is the
enumerator's match with its reference, which also draws sizes and values
in tenths, so its remembered subtrees meet sums that tie only after
rounding.

The engine skips empty slots: ``step``'s charge and capacity clause on
windows that mix exact ``0.0`` slots with filled ones equal a reference
that evaluates every slot, and ``run`` refuses a curve with phi(0) != 0,
the contract that makes the skip exact.  The exponential curve's own
charge kernel equals the generic ``ThresholdFn.charge`` bit for bit, +inf
included, and a curve that overrides only ``eval`` is charged through it.

``reference_solve_exact`` is the branch-and-bound written as plain
recursion, one call per node, with the same value bound and child order.
``solve_exact`` must make the same search, so its result, node count
included, equals the reference's.
``reference_solve_bruteforce`` is the enumerator written as plain
recursion, one call per node, leaves included, with no table of walked
subtrees.  ``solve_bruteforce`` must visit the same nodes in the same
order, so its result, node count included, equals the reference's, and
so does its result with its table capped at 0, 1 or 3 subtrees.
Neither search's result depends on the slot each option's watch starts
at: with every watch started at a drawn slot of its window, both give the
result they give from the window's start.
``reference_checked_ids`` is the id rule over a set of every id:
``checked_items``, which stores no id while the ids run on by one, must
take and refuse the same items, with the same message.  Given parsed item
objects, on its one-loop branch or off it (integers in number fields,
bools in integer fields, non-finite numbers, windows past the horizon,
repeated ids, arrivals that go backwards, missing or extra keys), it must
yield what it yields for the same objects with every item and option
wrapped in a read-only mapping, which no dict test takes and so every one
goes through the field checks and every rule: equal records, or a stop at
the same item with the same message.  With faults in up to two items, and
perhaps a horizon of 0, a drained streamed pass over ``gen``'s layout,
``loads_instance`` and ``instance_from_dict`` name the same first fault,
or give the same records.  The engine writes an admitted window back
from the list its check read: the row's bits after ``step`` equal those
after ``UtilizationState.add`` of the same window and size, sizes in
tenths too, and a negative size is refused alike.
``reference_generate`` is the uniform and burst generator as it was
before it drew integers straight from ``getrandbits``: ``generate`` must
make the same draws in the same order, so its records and their text
equal the reference's.
"""

import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
import tracemalloc
from random import Random
from types import MappingProxyType
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knapdep import cli, oracle, stream
from knapdep.core import (
    Instance,
    Item,
    ItemOption,
    KnapsackSpec,
    SchemaError,
    UtilizationState,
    assignment_violations,
    checked_items,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    validate_instance,
)
from knapdep.engine import run, step
from knapdep.instances import FAMILIES, GenSpec, _check_durations_fit, generate
from knapdep.oracle import OfflineSolution, solve_bruteforce, solve_exact, upper_bound
from knapdep.threshold import ExponentialThreshold, TableThreshold, ThresholdFn, for_instance

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


def proxied(obj):
    """``obj`` with every JSON object in it wrapped in a read-only mapping.

    The parser's fast branch takes only exact dicts, so a proxied document
    is parsed entirely by the general branch.
    """
    if isinstance(obj, dict):
        return MappingProxyType({key: proxied(v) for key, v in obj.items()})
    if isinstance(obj, list):
        return [proxied(v) for v in obj]
    return obj


def parsed(doc):
    """The instance ``doc`` parses to, or the text of its SchemaError."""
    try:
        return instance_from_dict(doc)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


@settings(SETTINGS, max_examples=80)
@given(inst=instances(), data=st.data())
def test_fast_and_general_branch_agree(inst, data):
    text = dumps_instance(inst)
    for mutation in MUTATIONS:
        doc = json.loads(text)
        mutation(doc, data.draw)
        assert parsed(doc) == parsed(proxied(doc)), mutation.__name__


def item_fault(item, horizon, first_id, draw):
    """One drawn fault in ``item`` alone, or a change that keeps every rule."""
    options = item["options"]
    obj = draw(st.sampled_from([item, *options]))
    fault = draw(st.sampled_from(
        ["drop", "retype", "number", "extra", "past", "count", "repeat"]))
    if fault == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif fault == "retype":
        obj[draw(st.sampled_from(sorted(obj)))] = draw(
            st.sampled_from(["1", None, [], True, 1.5, 2]))
    elif fault == "number":
        obj[draw(st.sampled_from(sorted(NUMBER_FIELDS & set(obj))))] = draw(
            st.sampled_from([math.nan, math.inf, -1.0, 0, 0.0]))
    elif fault == "extra":
        obj["extra"] = 1
    elif fault == "past" and options:
        option = draw(st.sampled_from(options))
        option.update(eligible=True, start=horizon - option["duration"] + 2)
    elif fault == "count":
        item["options"] = options[1:] if options else [{
            "eligible": False, "size": 1.0, "value": 1.0, "start": 1, "duration": 1}]
    elif fault == "repeat" and item["id"] != first_id:
        item["id"] = first_id


def three_readings(text):
    """What a drained streamed pass, ``loads_instance`` and ``instance_from_dict``
    give for ``text``: the horizon, knapsacks and records, or the message."""
    answers = []
    for read in (
        lambda: streamed("-", text),
        lambda: loads_instance(text),
        lambda: instance_from_dict(json.loads(text)),
    ):
        try:
            got = read()
        except ValueError as exc:
            answers.append(str(exc))
        else:
            answers.append(got if isinstance(got, tuple) else
                           (got.horizon, got.knapsacks, got.items))
    return answers


@settings(SETTINGS, max_examples=200)
@given(inst=instances(), data=st.data())
def test_readers_name_the_same_first_fault(inst, data):
    # Faults in two items: every reader refuses at the first of them in
    # item order, and a horizon of 0 before either.
    doc = instance_to_dict(inst)
    items = items_of(doc, 2)
    first_id = items[0]["id"]
    for i in data.draw(st.lists(st.integers(0, len(items) - 1), max_size=2, unique=True)):
        item_fault(items[i], doc["horizon"], first_id, data.draw)
    if data.draw(st.booleans()):
        doc["horizon"] = 0
    streamed_answer, whole, from_dict = three_readings(json.dumps(doc, indent=2))
    assert streamed_answer == whole == from_dict


def test_two_faults_are_refused_at_the_first():
    # gen's document with item 3's window moved past the horizon and item
    # 7's arrival removed: item 3 is named, by every reader and command.
    text = cli_answer(["gen", "--n", "10", "--k", "2", "--t", "50", "--seed", "4"])[1]
    doc = json.loads(text)
    doc["items"][3]["options"][0]["start"] = 50
    del doc["items"][7]["arrival"]
    message = "item 3, knapsack 0: window ends at 51, beyond horizon 50"
    text = json.dumps(doc, indent=2) + "\n"
    assert three_readings(text) == [message] * 3
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/doc.json"
        with open(path, "w") as f:
            f.write(text)
        for argv in (["run", "--input", path], ["validate", "--strict", "--input", path],
                     ["opt", "--input", path]):
            assert cli_answer(argv) == (1, "", f"error: {message}\n")


@st.composite
def layouts(draw):
    """A drawn JSON layout: a function from a document to its text.

    Indent None, 0, 2 or 4, compact or default separators, and optionally
    the top-level keys shuffled or every item's keys reversed.  Only
    indent 2 with default separators and items last can be streamed.
    """
    order = draw(st.permutations(["horizon", "knapsacks", "items"]))
    shuffled, reversed_items = draw(st.booleans()), draw(st.booleans())
    indent = draw(st.sampled_from([None, 0, 2, 4]))
    separators = draw(st.sampled_from([None, (",", ":")]))

    def text(doc):
        if shuffled:
            doc = {key: doc[key] for key in order if key in doc} | doc
        if reversed_items and isinstance(doc.get("items"), list):
            doc = dict(doc, items=[
                dict(reversed(item.items())) if isinstance(item, dict) else item
                for item in doc["items"]
            ])
        return json.dumps(doc, indent=indent, separators=separators)

    return text


def whole_document_answer(text, command):
    """(exit code, stdout, stderr) of ``command`` from the whole parsed document."""
    try:
        inst = loads_instance(text)
    except SchemaError as exc:
        return 1, "", f"error: {exc}\n"
    if command == "run":
        result = run(inst, for_instance(inst))
        return 0, result.to_json() + "\n", f"profit {result.profit!r} over {inst.num_items} items\n"
    report = validate_instance(inst, strict=True)
    err = [f"error: {m}\n" for m in report.errors] + [f"warning: {m}\n" for m in report.warnings]
    return int(not report.ok), json.dumps(report.to_dict(), indent=2) + "\n", "".join(err)


def cli_answer(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


@settings(SETTINGS, max_examples=50)
@given(inst=instances(), layout=layouts(), chunk=st.integers(1, 16), data=st.data())
def test_streamed_commands_answer_as_the_whole_document(inst, layout, chunk, data):
    saved = stream._CHUNK
    stream._CHUNK = chunk  # numbers, cuts and the head straddle reads
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/doc.json"
            for mutation in MUTATIONS:
                doc = instance_to_dict(inst)
                mutation(doc, data.draw)
                text = layout(doc)
                with open(path, "w") as f:
                    f.write(text)
                for command in (["run"], ["validate", "--strict"]):
                    expected = whole_document_answer(text, command[0])
                    assert cli_answer([*command, "--input", path]) == expected, mutation.__name__
                    assert cli_answer(command, stdin=text) == expected, mutation.__name__
    finally:
        stream._CHUNK = saved


STREAM_CHUNKS = (*range(1, 17), 256, 1024, stream._CHUNK)


@contextlib.contextmanager
def stream_chunk(size):
    saved, stream._CHUNK = stream._CHUNK, size
    try:
        yield
    finally:
        stream._CHUNK = saved


def streamed(path, text=None):
    """The horizon, knapsacks and items of one streamed pass over ``path`` (or ``text``)."""
    with open(path) if text is None else io.StringIO(text) as f:
        inst = stream._streamed(f.read, os.path.getsize(path) if text is None else len(text))
        return inst.horizon, inst.knapsacks, tuple(inst.items)


@settings(SETTINGS, max_examples=60)
@given(inst=instances())
def test_gen_text_is_streamed(inst):
    # A reader that always fell back would pass the property above; gen's
    # text must take the streamed pass, at every read size.
    expected = inst.horizon, inst.knapsacks, inst.items
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/doc.json"
        for text in (dumps_instance(inst), dumps_instance(inst) + "\n"):
            with open(path, "w") as f:
                f.write(text)
            for size in STREAM_CHUNKS:
                with stream_chunk(size):
                    assert streamed(path) == expected
                    assert streamed("-", text) == expected


def test_gen_text_broken_at_a_mark_is_refused_at_every_read_size(tmp_path):
    # Cut where the pass stands after the items' opening or a join, so
    # that at some read size the last read ends exactly at the cut; and a
    # trailing comma, which leaves an empty last batch after a join.
    knapsack = KnapsackSpec(4.0, 8.0, 1, 3, 2.0)
    text = dumps_instance(generate(GenSpec("uniform", 2, 4, (knapsack,), seed=1))[0])
    broken = [text[:text.index(mark) + len(mark)] + "  " for mark in (stream._OPEN, stream._JOIN)]
    broken.append(text.replace("\n  " + stream._CLOSE, ",\n  " + stream._CLOSE))
    path = tmp_path / "doc.json"
    for doc in broken:
        with pytest.raises(SchemaError):
            loads_instance(doc)
        path.write_text(doc)
        for size in range(1, len(doc) + 1):
            with stream_chunk(size), pytest.raises(ValueError):
                streamed(path)
        with pytest.raises(ValueError):
            streamed("-", doc)


EDIT_TEXTS = (",", "}", "]", "{", "[", '"', ":", " ", "\n", "0", "-", stream._JOIN)


@SETTINGS
@given(inst=instances(), size=st.sampled_from(STREAM_CHUNKS), data=st.data())
def test_edited_gen_text_streams_as_the_whole_document_or_raises(inst, size, data):
    text = dumps_instance(inst) + "\n"
    # Edits land on the reader's marks as often as anywhere else.
    marks = [
        at + offset
        for mark in (stream._OPEN, stream._JOIN, "\n  " + stream._CLOSE)
        for offset in range(len(mark))
        for at in range(len(text)) if text.startswith(mark, at)
    ]
    with tempfile.TemporaryDirectory() as tmp, stream_chunk(size):
        path = f"{tmp}/doc.json"
        for _ in range(8):
            at = data.draw(st.one_of(st.integers(0, len(text)), st.sampled_from(marks)))
            put = data.draw(st.sampled_from(EDIT_TEXTS))
            removed = data.draw(st.sampled_from([0, 1]))  # insert, or replace / delete
            if removed and data.draw(st.booleans()):
                put = ""
            edited = text[:at] + put + text[at + removed:]
            try:
                whole = loads_instance(edited)
            except SchemaError:
                whole = None
            with open(path, "w") as f:
                f.write(edited)
            for args in ((path,), ("-", edited)):
                try:
                    got = streamed(*args)
                except (ValueError, RecursionError):
                    continue
                assert whole is not None, repr(edited)
                assert got == (whole.horizon, whole.knapsacks, whole.items)


# ---------------------------------------------------------------------------
# The id rule
# ---------------------------------------------------------------------------

# ``checked_items`` records no id while the ids run first, first + 1, ...;
# whatever the ids, it must take and refuse what a set of every id does.


class SubId(int):
    pass


def reference_checked_ids(items):
    """The id rule of ``checked_items`` over a set of every id seen."""
    seen = set()
    for item in items:
        item_id = item.id
        if not isinstance(item_id, int) or isinstance(item_id, bool):
            raise ValueError(
                f"item at position {len(seen)}: id must be an integer, got {item_id!r}"
            )
        if item_id in seen:
            raise ValueError(f"duplicate item id {item_id}")
        seen.add(item_id)
        yield item


@st.composite
def id_sequences(draw):
    """A run of consecutive ids, then breaks, each followed by a run again.

    A break is a gap, a descent, a repeat of the first, a middle or the
    last id so far, or an id that is no integer.  Some ids are ``SubId``.
    """
    first = draw(st.sampled_from([0, -5, 2**70]))
    ids = list(range(first, first + draw(st.integers(0, 12))))
    ints = list(ids)  # the integer ids so far
    for _ in range(draw(st.integers(0, 3))):
        last = ints[-1] if ints else first - 1
        kind = draw(st.sampled_from(["gap", "descent", "repeat", "not an integer"]))
        if kind == "gap":
            last += draw(st.integers(2, 2**65))
        elif kind == "descent":
            last -= draw(st.integers(1, 20))
        elif kind == "repeat" and ints:
            last = ints[draw(st.sampled_from([0, len(ints) // 2, len(ints) - 1]))]
        else:
            ids.append(draw(st.sampled_from([1.0, True, "7", None])))
            continue
        run = range(last, last + 1 + draw(st.integers(0, 6)))
        ids.extend(run)
        ints.extend(run)
    subclassed = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    return [
        SubId(i) if wrap and type(i) is int else i for i, wrap in zip(ids, subclassed)
    ]


def id_rule_answer(items):
    """The items taken, and the text of the ValueError that stopped them, if any."""
    taken = []
    try:
        for item in items:
            taken.append(item)
    except ValueError as exc:
        return taken, str(exc)
    return taken, None


@SETTINGS
@given(ids=id_sequences())
def test_id_rule_equals_a_set_of_every_id(ids):
    items = [Item(i, 1, ()) for i in ids]
    taken, error = id_rule_answer(checked_items(1, 0, items))
    expected, expected_error = id_rule_answer(reference_checked_ids(items))
    assert error == expected_error
    assert len(taken) == len(expected)
    assert all(a is b for a, b in zip(taken, expected))


def test_consecutive_ids_hold_no_set():
    # A set of 100 000 ids alone is over 4 MB; a run of them needs none.
    option = ItemOption(True, 1.0, 1.0, 1, 1)
    items = (Item(i, 1, (option,)) for i in range(100_000))
    tracemalloc.start()
    try:
        for _ in checked_items(1, 1, items):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


# ---------------------------------------------------------------------------
# Records built and checked in one loop
# ---------------------------------------------------------------------------

# Per option field, values of another type or that break a rule.
OFF_OPTION_VALUES = {
    "eligible": [1, 0, None],
    "size": [2, 1, 0.0, -0.0, math.inf, -1.0, math.nan, math.inf, -math.inf, True, "1"],
    "value": [3, 2, 0.0, -0.0, math.inf, -2.0, math.nan, math.inf, False],
    "start": [0, -1, 1.0, True, 2**64],
    "duration": [0, -1, 2.0, False, 2**64],
}
# About half the faults drawn are an option field's.  Of the rest, those
# that the one-loop branch must catch itself (a window past the horizon, an
# option key, an id that skips or goes back, an arrival that goes back) are
# drawn twice as often.
ITEM_FAULTS = [*OFF_OPTION_VALUES] * 4 + [
    "past", "option key", "no option object", "item key", "options object",
    "no item object", "option count", "repeat", "skip", "jump", "back", "id type",
    "arrival back", "arrival type", "past", "option key", "skip", "back", "arrival back",
]


@st.composite
def item_objects(draw):
    """A horizon, K and parsed item objects: kept rules, then up to two faults.

    The items are of exactly ``json.loads``' types, ids run on from 0, 7 or
    2**64, arrivals do not go back, and each eligible option's window ends
    by the horizon.  Each fault then lands on a drawn item: an option field
    of another type or that breaks a rule (integers in number fields, bools
    in integer fields, non-finite numbers), a window past the horizon, a
    missing or extra key, something other than an object, one option too
    many or too few, an id that repeats, skips one (so that a later one
    repeats it), jumps (and the run goes on from there), goes back or is no
    integer, an arrival that goes back or is no integer.
    """
    horizon = draw(st.integers(1, 5))
    K = draw(st.integers(0, 2))
    first = draw(st.sampled_from([0, 0, 7, 2**64]))
    arrival = draw(st.sampled_from([1, 2]))
    objs = []
    for position in range(draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 3, 4, 5]))):
        arrival += draw(st.integers(0, 1))
        options = []
        for _ in range(K):
            duration = draw(st.integers(1, horizon))
            eligible = draw(st.sampled_from([True, True, False]))
            options.append({
                "eligible": eligible,
                # An ineligible option's size and value need only be finite.
                "size": draw(st.sampled_from([0.5, 1.5] if eligible else [0.5, -1.0])),
                "value": draw(st.sampled_from([1.0, 4.5])),
                "start": draw(st.integers(1, horizon - duration + 1)),
                "duration": duration,
            })
        objs.append({"id": first + position, "arrival": arrival, "options": options})
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2])) if objs else 0):
        fault = draw(st.sampled_from(ITEM_FAULTS))
        i = draw(st.integers(0, len(objs) - 1))
        if not isinstance(objs[i], dict):
            continue
        obj = objs[i] = dict(objs[i])
        options = obj["options"]
        if fault in OFF_OPTION_VALUES or fault in ("past", "option key", "no option object"):
            if not isinstance(options, list) or not options:
                continue
            j = draw(st.integers(0, len(options) - 1))
            if not isinstance(options[j], dict):
                continue
            option = options[j] = dict(options[j])
            if fault == "past":
                option.update(eligible=True, start=horizon - option["duration"] + 2)
            elif fault == "option key":
                option.pop("size", None) if draw(st.booleans()) else option.update(extra=1)
            elif fault == "no option object":
                options[j] = list(option.values())
            else:
                if fault in ("size", "value"):
                    option["eligible"] = True  # where the rules on them apply
                option[fault] = draw(st.sampled_from(OFF_OPTION_VALUES[fault]))
        elif fault == "item key":
            obj.pop("arrival", None) if draw(st.booleans()) else obj.update(extra=1)
        elif fault == "options object":
            obj["options"] = {}
        elif fault == "no item object":
            objs[i] = draw(st.sampled_from([None, [obj]]))
        elif fault == "option count" and isinstance(options, list):
            extra = {"eligible": False, "size": 1.0, "value": 1.0, "start": 1, "duration": 1}
            obj["options"] = options[1:] if options and draw(st.booleans()) else [*options, extra]
        elif fault in ("repeat", "skip", "jump", "back") and isinstance(obj.get("id"), int):
            shift = {"repeat": -draw(st.integers(1, i)) if i else 0, "skip": 1, "jump": 2**63,
                     "back": -draw(st.integers(i + 1, i + 3))}[fault]
            for later in objs[i:] if fault == "jump" else [obj]:
                if isinstance(later, dict) and isinstance(later.get("id"), int):
                    later["id"] += shift
        elif fault == "id type":
            obj["id"] = draw(st.sampled_from([float(obj["id"]), True, str(obj["id"])]))
        elif fault == "arrival back" and type(obj.get("arrival")) is int:
            obj["arrival"] -= draw(st.integers(1, 2))
        elif fault == "arrival type":
            obj["arrival"] = draw(st.sampled_from([float(arrival), True, None]))
    return horizon, K, objs


def records_answer(records):
    """The repr of each record taken, and the text of the error that stopped them, if any."""
    taken = []
    try:
        for record in records:
            taken.append(repr(record))
    except ValueError as exc:
        return taken, f"{type(exc).__name__}: {exc}"
    return taken, None


@settings(SETTINGS, max_examples=1000)
@given(drawn=item_objects())
def test_objects_are_checked_as_their_records(drawn):
    # repr tells 1 from 1.0 and True from 1, so the records' types are
    # compared too, and a SchemaError from a field is told from the rules'
    # ValueError.
    # Every item and option proxied is a Mapping but no dict, so it is
    # built through the field checks and then checked by every rule.
    horizon, K, objs = drawn
    assert records_answer(checked_items(horizon, K, objs)) == records_answer(
        checked_items(horizon, K, proxied(objs))
    )


@SETTINGS
@given(data=st.data())
def test_admitted_window_is_written_as_add_writes_it(data):
    # Two knapsacks, each with a drawn window on a drawn load; the item goes
    # to the one of higher value (ties to the first).
    horizon = data.draw(st.integers(1, 8))
    loads = [0.0, *TENTHS, *QUARTERS]
    filled = [data.draw(st.lists(st.sampled_from(loads), min_size=horizon, max_size=horizon))
              for _ in range(2)]
    size = data.draw(st.sampled_from([*TENTHS, *QUARTERS, 5e-324, -0.0, -0.1, -2.5]))
    options = []
    for value in data.draw(st.sampled_from([(1e9, 1e9), (1e9, 2e9), (2e9, 1e9)])):
        duration = data.draw(st.integers(1, horizon))
        start = data.draw(st.integers(1, horizon - duration + 1))
        options.append(ItemOption(True, size, value, start, duration))
    stepped, added = (UtilizationState(2, horizon) for _ in range(2))
    for state in (stepped, added):
        for k, row in enumerate(filled):
            for t, z in enumerate(row, 1):
                state.add(k, t, 1, z)
    before = [row.tobytes() for row in stepped.rows]
    # Curves on a capacity no load nears, and values no charge reaches:
    # every item of a nonnegative size is admitted.
    fns = [ExponentialThreshold(1.0, 1e9)] * 2
    item = Item(0, 1, tuple(options))
    if size >= 0:
        k = step(item, stepped, fns).knapsack
        assert k == (1 if options[1].value > options[0].value else 0)
        added.add(k, options[k].start, options[k].duration, size)
        assert [row.tobytes() for row in stepped.rows] == [row.tobytes() for row in added.rows]
        return
    message = f"utilization updates must be nonnegative, got {size}"
    with pytest.raises(ValueError) as info:
        step(item, stepped, fns)
    assert str(info.value) == message
    with pytest.raises(ValueError, match=message):
        added.add(0, options[0].start, options[0].duration, size)
    assert [row.tobytes() for row in stepped.rows] == [row.tobytes() for row in added.rows] == before


# Brute force visits up to (K+1)^n assignments: the item count is capped
# per knapsack count so that one example stays within a few milliseconds.
MAX_ITEMS = {1: 9, 2: 7, 3: 6}
QUARTERS = [0.25, 0.5, 1.0, 2.0, 3.0]
TENTHS = [0.1, 0.2, 0.3, 0.6, 0.7, 1.1]


@st.composite
def small_instances(draw, grid=QUARTERS):
    """Instances for the brute-force oracle: n <= 9, K <= 3, horizon <= 6.

    Capacities are 1, 2 or 4, and sizes and values are drawn from
    ``grid``.  On the default quarters every sum is exact and ties are
    common: equal values in two knapsacks, windows ending on the horizon
    and, under ``linear_tables``, values equal to their charge.  On
    ``TENTHS`` sums round, so two value sums can tie only after rounding
    and a load can round onto a capacity.
    """
    k = draw(st.integers(1, 3))
    n = draw(st.integers(0, MAX_ITEMS[k]))
    horizon = draw(st.integers(1, 6))
    knapsacks = tuple(
        KnapsackSpec(c, 8.0, 1, horizon, c)
        for c in draw(st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=k, max_size=k))
    )
    items = []
    arrival = 1
    for item_id in range(n):
        arrival = draw(st.integers(arrival, horizon))
        options = []
        for _ in knapsacks:
            if draw(st.integers(0, 3)) == 0:
                options.append(ItemOption(False, 0.0, 0.0, 1, 1))
                continue
            duration = draw(st.integers(1, horizon))
            start = draw(st.integers(1, horizon - duration + 1))
            options.append(ItemOption(
                True, draw(st.sampled_from(grid)), draw(st.sampled_from(grid)),
                start, duration,
            ))
        items.append(Item(item_id, arrival, tuple(options)))
    return Instance(horizon, knapsacks, tuple(items))


def linear_tables(inst):
    """phi(z) = 2z / capacity per knapsack: exact on multiples of 1/4."""
    return [TableThreshold(((0.0, 0.0), (ks.capacity, 2.0))) for ks in inst.knapsacks]


SMALL = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@SMALL
@given(inst=small_instances(), table=st.booleans())
def test_online_profit_at_most_offline_optimum(inst, table):
    result = run(inst, linear_tables(inst) if table else for_instance(inst))
    assert assignment_violations(inst, result.assignment()) == []
    assert result.profit <= solve_bruteforce(inst).objective + 1e-9


@SMALL
@given(inst=small_instances())
def test_branch_and_bound_equals_bruteforce(inst):
    exact = solve_exact(inst)
    assert exact.proof == "exact"
    assert exact.objective == exact.bound == solve_bruteforce(inst).objective


@SMALL
@given(inst=small_instances(), budget=st.integers(0, 40))
def test_budget_bound_covers_optimum(inst, budget):
    solution = solve_exact(inst, node_budget=budget)
    optimum = solve_bruteforce(inst).objective
    assert solution.objective <= optimum <= solution.bound


@SMALL
@given(inst=small_instances())
def test_outputs_identical_from_two_calls(inst):
    twin = loads_instance(dumps_instance(inst))
    assert dumps_instance(twin) == dumps_instance(inst)
    assert run(twin, for_instance(twin)).to_json() == run(inst, for_instance(inst)).to_json()
    assert (
        json.dumps(solve_exact(twin, node_budget=30).to_dict(), indent=2)
        == json.dumps(solve_exact(inst, node_budget=30).to_dict(), indent=2)
    )


@SMALL
@given(inst=small_instances())
def test_integer_sizes_and_values_parse_as_floats(inst):
    doc = json.loads(dumps_instance(inst))
    for item in doc["items"]:
        for option in item["options"]:
            for key in ("size", "value"):
                if option[key].is_integer():
                    option[key] = int(option[key])
    for twin in (instance_from_dict(doc), loads_instance(json.dumps(doc))):
        assert twin == inst
        assert all(
            type(o.size) is float and type(o.value) is float
            for item in twin.items for o in item.options
        )


def reference_solve_exact(inst, node_budget=None):
    """Recursive branch-and-bound that cuts on the value bound alone."""
    N = inst.num_items
    K = inst.num_knapsacks
    stride = inst.horizon + 1
    options = [
        [
            (k, opt.size, opt.value, tuple(k * stride + t for t in opt.slots()))
            for k, opt in item.eligible_options()
        ]
        for item in inst.items
    ]
    children_of = [sorted(opts, key=lambda o: (-o[2], o[0])) for opts in options]
    caps = [ks.capacity for ks in inst.knapsacks]
    load = [0.0] * (K * stride + 1)

    suffix_value = [0.0] * (N + 1)
    for i in range(N - 1, -1, -1):
        best_v = max((v for _, _, v, _ in options[i]), default=0.0)
        suffix_value[i] = suffix_value[i + 1] + best_v

    best_value = 0.0
    best_assignment: list[Optional[int]] = [None] * N
    current: list[Optional[int]] = [None] * N
    nodes = 0
    exhausted = False
    refused_bound = 0.0

    def visit(i, value):
        nonlocal best_value, best_assignment, nodes, exhausted, refused_bound
        cheap = value + suffix_value[i]
        if exhausted:
            refused_bound = max(refused_bound, cheap)
            return
        margin = 1e-9 * (1.0 + abs(best_value))
        if cheap <= best_value - margin:
            return
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            refused_bound = max(refused_bound, cheap)
            return
        if i == N:
            if value > best_value:
                best_value = value
                best_assignment = current.copy()
            return
        for k, size, item_value, keys in children_of[i]:
            if all(load[t] + size <= caps[k] for t in keys):
                for t in keys:
                    load[t] += size
                current[i] = k
                visit(i + 1, value + item_value)
                current[i] = None
                for t in keys:
                    load[t] -= size
        visit(i + 1, value)

    visit(0, 0.0)
    if exhausted:
        return OfflineSolution(
            tuple(best_assignment), best_value, "upper-bound-only", nodes,
            max(best_value, min(refused_bound, upper_bound(inst))),
        )
    return OfflineSolution(tuple(best_assignment), best_value, "exact", nodes, best_value)


@SMALL
@given(
    inst=st.one_of(instances(), small_instances()),
    budget=st.sampled_from([None, 1, 10, 100]),
)
def test_branch_and_bound_matches_reference(inst, budget):
    assert (
        solve_exact(inst, node_budget=budget).to_dict()
        == reference_solve_exact(inst, node_budget=budget).to_dict()
    )


def test_branch_and_bound_matches_reference_on_larger_instances():
    rng = random.Random(2024)
    cases = []
    for _ in range(40):
        k = rng.randint(1, 3)
        capacity = rng.choice([1.0, 4.0, 10.0])
        ks = KnapsackSpec(capacity, 8.0, 1, 6, capacity / rng.choice([1, 2]))
        spec = GenSpec(
            rng.choice(["uniform", "burst"]), rng.randint(10, 40), rng.randint(8, 40),
            (ks,) * k, rng.randint(0, 10**6),
        )
        cases.append((spec, 2000))
    # The benchmark's budget shapes at its budget: each search unwinds a
    # deep stack after the budget runs out, refusing what it reaches.
    ks = KnapsackSpec(4.0, 8.0, 2, 6, 4.0)
    for family, n, horizon in (("uniform", 24, 20), ("burst", 32, 20), ("uniform", 60, 40)):
        cases.extend((GenSpec(family, n, horizon, (ks,) * 2, seed), 15000) for seed in range(3))
    for spec, budget in cases:
        inst = generate(spec)[0]
        assert (
            solve_exact(inst, node_budget=budget).to_dict()
            == reference_solve_exact(inst, node_budget=budget).to_dict()
        ), spec


def seeded_small_instance(rng):
    """A draw shaped like ``small_instances``, of 4 to 8 items, from ``rng``."""
    k = rng.randint(1, 3)
    horizon = rng.randint(1, 6)
    knapsacks = tuple(KnapsackSpec(c, 8.0, 1, horizon, c)
                      for c in rng.choices([1.0, 2.0, 4.0], k=k))
    items = []
    arrival = 1
    for item_id in range(rng.randint(4, min(8, MAX_ITEMS[k]))):
        arrival = rng.randint(arrival, horizon)
        options = []
        for _ in knapsacks:
            duration = rng.randint(1, horizon)
            options.append(ItemOption(
                True, rng.choice(QUARTERS), rng.choice(QUARTERS),
                rng.randint(1, horizon - duration + 1), duration,
            ) if rng.randrange(4) else ItemOption(False, 0.0, 0.0, 1, 1))
        items.append(Item(item_id, arrival, tuple(options)))
    return Instance(horizon, knapsacks, tuple(items))


def budget_cases():
    """Instances of at most 8 items on which to stop the search at every node.

    In ``crowded`` each item fills one knapsack's only slot and all values
    tie, so the bounds cut little and the search scores many leaves.  In
    ``declines`` the first item fills the window the others ask for, and
    every other item has no eligible option, so declines come in chains.
    """
    ks = KnapsackSpec(4.0, 8.0, 1, 2, 4.0)
    crowded = Instance(1, (ks, ks), tuple(
        Item(i, 1, (ItemOption(True, 3.0, 1.0, 1, 1),) * 2) for i in range(7)))
    none = ItemOption(False, 0.0, 0.0, 1, 1)
    blocked = Item(0, 1, (ItemOption(True, 4.0, 5.0, 1, 2), none))
    declines = Instance(2, (ks, ks), (blocked,) + tuple(
        Item(i, 1, (ItemOption(True, 3.0, 2.0, 1, 2), none) if i % 2 else (none, none))
        for i in range(1, 8)))
    rng = random.Random(21)
    return [crowded, declines] + [seeded_small_instance(rng) for _ in range(6)]


def test_budget_stops_at_every_node():
    # The budget is checked where each child is counted, so every count
    # from none to one past the full search must stop it as the reference does.
    for inst in budget_cases():
        full = reference_solve_exact(inst).nodes
        for budget in range(full + 2):
            assert (
                solve_exact(inst, node_budget=budget).to_dict()
                == reference_solve_exact(inst, node_budget=budget).to_dict()
            ), (inst, budget)


def test_searches_match_references_without_eligible_options():
    # K = 0, and K = 2 with every option ineligible: each node's only child
    # is the decline.  The strategies draw K >= 1 and seldom no option at all.
    ks = KnapsackSpec(2.0, 8.0, 1, 2, 2.0)
    ineligible = ItemOption(False, 0.0, 0.0, 1, 1)
    rng = random.Random(8)
    for n in range(9):
        horizon = rng.randint(1, 5)
        arrivals = sorted(rng.randint(1, horizon) for _ in range(n))
        for knapsacks, options in (((), ()), ((ks, ks), (ineligible,) * 2)):
            inst = Instance(horizon, knapsacks, tuple(
                Item(i, a, options) for i, a in enumerate(arrivals)))
            for budget in (None, *range(n + 3)):
                assert (
                    solve_exact(inst, node_budget=budget).to_dict()
                    == reference_solve_exact(inst, node_budget=budget).to_dict()
                ), (inst, budget)
            assert solve_bruteforce(inst).to_dict() == reference_solve_bruteforce(inst).to_dict()


def reference_solve_bruteforce(inst):
    """Enumeration with one recursive call per node, leaves included."""
    N = inst.num_items
    stride = inst.horizon + 1
    options = [
        [
            (k, opt.size, opt.value, k * stride + opt.start,
             k * stride + opt.end + 1)
            for k, opt in item.eligible_options()
        ]
        for item in inst.items
    ]
    caps = [ks.capacity for ks in inst.knapsacks]
    load = [0.0] * (inst.num_knapsacks * stride + 1)

    best_value = 0.0
    best_assignment: list[Optional[int]] = [None] * N
    current: list[Optional[int]] = [None] * N
    nodes = 0

    def visit(i, value):
        nonlocal best_value, best_assignment, nodes
        nodes += 1
        if i == N:
            if value > best_value:
                best_value = value
                best_assignment = current.copy()
            return
        current[i] = None
        visit(i + 1, value)
        for k, size, item_value, lo, hi in options[i]:
            if all(load[t] + size <= caps[k] for t in range(lo, hi)):
                saved = load[lo:hi]
                for t in range(lo, hi):
                    load[t] += size
                current[i] = k
                visit(i + 1, value + item_value)
                current[i] = None
                load[lo:hi] = saved

    visit(0, 0.0)
    return OfflineSolution(tuple(best_assignment), best_value, "exact", nodes, best_value)


@SMALL
@given(inst=st.one_of(instances(), small_instances(), small_instances(TENTHS)))
def test_bruteforce_matches_reference(inst):
    assert solve_bruteforce(inst).to_dict() == reference_solve_bruteforce(inst).to_dict()


@SMALL
@given(inst=st.one_of(instances(), small_instances(), small_instances(TENTHS)))
def test_bruteforce_table_size_changes_no_result(inst):
    # A table of 0 keys remembers nothing; one of 1 or 3 fills up early in
    # the walk, so later subtrees are walked though their keys repeat.
    expected = solve_bruteforce(inst).to_dict()
    assert expected == reference_solve_bruteforce(inst).to_dict()
    for limit in (0, 1, 3):
        with mock.patch.object(oracle, "_MEMO_LIMIT", limit):
            assert solve_bruteforce(inst).to_dict() == expected, limit


def test_bruteforce_matches_reference_on_suite_shaped_instances():
    # The shape of the benchmark's proof suite: n = 9, K = 2, T = 20,
    # capacity 4 and sizes up to the full capacity.
    ks = KnapsackSpec(4.0, 8.0, 2, 6, 4.0)
    rng = random.Random(9)
    for _ in range(40):
        spec = GenSpec(rng.choice(["uniform", "burst"]), 9, 20, (ks, ks), rng.randint(0, 10**6))
        inst = generate(spec)[0]
        assert (
            solve_bruteforce(inst).to_dict() == reference_solve_bruteforce(inst).to_dict()
        ), spec


@SMALL
@given(
    inst=st.one_of(instances(), small_instances(), small_instances(TENTHS)),
    budget=st.sampled_from([None, 0, 1, 10, 100]),
    data=st.data(),
)
def test_searches_do_not_depend_on_where_watches_start(inst, budget, data):
    # A watch only lets one slot refuse before the window's max is read, so
    # each row's watch may start at any slot of its window.
    default = [solve_exact(inst, node_budget=budget).to_dict(), solve_bruteforce(inst).to_dict()]
    prepared = oracle._prepared

    def drawn_watches(inst):
        rows, last = prepared(inst)
        for opts in rows:
            for row in opts:
                row[6] = data.draw(st.integers(row[4], row[5] - 1))
        return rows, last

    with mock.patch.object(oracle, "_prepared", drawn_watches):
        moved = [solve_exact(inst, node_budget=budget).to_dict(), solve_bruteforce(inst).to_dict()]
    assert moved == default


# ---------------------------------------------------------------------------
# Empty slots
# ---------------------------------------------------------------------------

# Above a gamma of about 710, exp overflows on a full slot: the charge is +inf.
GAMMAS = st.one_of(st.floats(0.05, 8.0), st.floats(8.0, 1e5))


def windows(capacity):
    """Slot loads mixing empty slots, tiny loads and loads up to ``capacity``."""
    # Tiny loads sit next to empty slots, so a skip of more than 0.0 shows.
    return st.lists(
        st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-300]),
                  st.floats(0.0, capacity, exclude_min=True)),
        min_size=1, max_size=8,
    )


@st.composite
def curves(draw, capacity):
    """An exponential curve, or a nondecreasing table from (0, 0) to capacity."""
    if draw(st.booleans()):
        return ExponentialThreshold(draw(GAMMAS), capacity)
    inner = sorted(set(draw(st.lists(st.floats(0.0, capacity), max_size=3))) - {0.0, capacity})
    phis = sorted(draw(st.lists(st.floats(0.0, 50.0), min_size=len(inner) + 1,
                                max_size=len(inner) + 1)))
    return TableThreshold(((0.0, 0.0), *zip([*inner, capacity], phis)))


def seeded_step(capacity, fn, window, size, value):
    """``step`` of one single-knapsack item over a state holding ``window``.

    Each filled slot is seeded by one ``add`` to 0.0, which is exact.
    """
    option = ItemOption(True, size, value, 2, len(window))
    state = UtilizationState(1, option.end + 1)
    for t, z in zip(option.slots(), window):
        if z:
            state.add(0, t, 1, z)
    assert state.window(0, option.start, option.duration) == window
    item = Item(0, 1, (option,))
    assert fn.capacity == capacity
    decision = step(item, state, [fn])
    (entry,) = decision.entries
    return decision, entry


@SETTINGS
@given(data=st.data())
def test_step_equals_reference_on_windows_with_empty_slots(data):
    capacity = data.draw(st.sampled_from([1.0, 4.0, 10.0]))
    fn = data.draw(curves(capacity))
    window = data.draw(windows(capacity))
    size = data.draw(st.floats(0.0, 1.5 * capacity, exclude_min=True))
    value = data.draw(st.floats(0.0, 100.0 * capacity))
    decision, entry = seeded_step(capacity, fn, window, size, value)
    # The paper's charge over every slot, empty ones included, left to right.
    phi = 0.0
    for z in window:
        phi += size * fn.eval(z)
    fits = all(z + size <= capacity for z in window)
    assert (entry.phi, entry.fits) == (phi, fits)
    assert math.copysign(1.0, entry.phi) == 1.0  # never -0.0
    assert entry.admissible == decision.admitted == (value >= phi and fits)


@SETTINGS
@given(data=st.data())
def test_oversized_item_on_empty_window_declines(data):
    # Every slot is skipped by the charge; the capacity clause still holds.
    capacity = data.draw(st.sampled_from([1.0, 4.0, 10.0]))
    fn = data.draw(curves(capacity))
    window = [0.0] * data.draw(st.integers(1, 8))
    size = data.draw(st.floats(capacity, 4.0 * capacity, exclude_min=True))
    decision, entry = seeded_step(capacity, fn, window, size, 1e9)
    assert entry.phi == 0.0
    assert not entry.fits and not entry.admissible and not decision.admitted


class Doubled(ExponentialThreshold):
    """An exponential curve with ``eval`` overridden, to twice the curve."""

    def eval(self, z):
        return 2.0 * super().eval(z)


@SETTINGS
@given(cls=st.sampled_from([ExponentialThreshold, Doubled]), data=st.data())
def test_exponential_charge_equals_generic_charge(cls, data):
    # A subclass that overrides eval is charged through its own eval.
    capacity = data.draw(st.sampled_from([1.0, 4.0, 10.0]))
    fn = cls(data.draw(GAMMAS), capacity)
    window = data.draw(windows(capacity))
    size = data.draw(st.floats(0.0, 1.5 * capacity, exclude_min=True))
    assert repr(fn.charge(size, window)) == repr(ThresholdFn.charge(fn, size, window))


class Offset(ThresholdFn):
    """A curve shifted by a constant, so phi(0) is that constant."""

    kind = "offset"

    def __init__(self, inner, offset):
        self.inner = inner
        self.capacity = inner.capacity
        self.offset = offset

    def eval(self, z):
        return self.inner.eval(z) + self.offset


@SETTINGS
@given(inst=instances(), offset=st.floats().filter(lambda c: c != 0.0), data=st.data())
def test_run_refuses_nonzero_phi_at_zero(inst, offset, data):
    fns = for_instance(inst)
    k = data.draw(st.integers(0, len(fns) - 1))
    fns[k] = Offset(fns[k], offset)
    with pytest.raises(ValueError) as info:
        run(inst, fns)
    assert str(info.value) == f"knapsack {k}: threshold phi(0) must be 0.0, got {offset}"


class Recording(ThresholdFn):
    """Records each ``eval``; shaped like the benchmark's counting wrapper.

    Every other attribute is the inner curve's, but ``charge`` is found on
    ``ThresholdFn`` first, so the generic charge calls this ``eval``.
    """

    def __init__(self, inner):
        self._inner = inner
        self.kind = inner.kind
        self.capacity = inner.capacity
        self.seen = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def eval(self, z):
        self.seen.append(z)
        return self._inner.eval(z)


@SETTINGS
@given(inst=instances())
def test_step_never_evaluates_an_empty_slot(inst):
    # The mechanism: step skips z == 0.0 rather than evaluating phi(0).
    fns = [Recording(fn) for fn in for_instance(inst)]
    state = UtilizationState(inst.num_knapsacks, inst.horizon)
    decisions = [step(item, state, fns) for item in inst.items]
    assert all(z != 0.0 for fn in fns for z in fn.seen)
    # Whole records: each decision with every check that led to it.
    assert decisions == run(inst, for_instance(inst)).decisions


@SETTINGS
@given(inst=instances())
def test_run_evaluates_each_occupied_slot_once(inst):
    # Through run, a recording curve sees the phi(0) check, then each
    # occupied slot of each check once, in order.
    fns = for_instance(inst)
    recorded = [Recording(fn) for fn in fns]
    result = run(inst, recorded)
    state = UtilizationState(inst.num_knapsacks, inst.horizon)
    expected = [[0.0] for _ in fns]
    for item in inst.items:
        for k, opt in item.eligible_options():
            expected[k].extend(z for z in state.window(k, opt.start, opt.duration) if z)
        step(item, state, fns)
    assert [fn.seen for fn in recorded] == expected
    assert result.to_json() == run(inst, fns).to_json()


# ---------------------------------------------------------------------------
# The generator against its former self
# ---------------------------------------------------------------------------

# The uniform and burst generators as they were when each integer came from
# ``Random.randint``, each density from ``Random.uniform`` and each record
# from its NamedTuple constructor.  ``generate`` draws the same numbers in
# the same order, so its records and their text equal the reference's.

def reference_draw_item(rng: Random, item_id: int, arrival: int, spec: GenSpec) -> Item:
    """One item: per knapsack draw duration, start, size, density, eligibility.

    Sizes land in (0, size_cap], densities in [1, theta], and
    value = density * size * duration, so Assumption-style bounds hold by
    construction.
    """
    options = []
    for ks in spec.knapsacks:
        duration = rng.randint(ks.duration_lo, ks.duration_hi)
        start = rng.randint(arrival, spec.horizon - duration + 1)
        size = ks.size_cap * (1.0 - rng.random())
        density = rng.uniform(1.0, ks.theta)
        eligible = spec.eligibility >= 1.0 or rng.random() < spec.eligibility
        if eligible:
            options.append(
                ItemOption(
                    eligible=True,
                    size=size,
                    value=density * size * duration,
                    start=start,
                    duration=duration,
                )
            )
        else:
            options.append(
                ItemOption(
                    eligible=False,
                    size=0.0,
                    value=0.0,
                    start=1,
                    duration=1,
                )
            )
    return Item(id=item_id, arrival=arrival, options=tuple(options))


def reference_gen_uniform(spec: GenSpec) -> Instance:
    """Uniform workload: arrivals uniform over [1, horizon - max duration]."""
    max_hi = _check_durations_fit(spec)
    rng = Random(spec.seed)
    arrivals = sorted(rng.randint(1, spec.horizon - max_hi) for _ in range(spec.n))
    items = tuple(
        reference_draw_item(rng, item_id, arrival, spec)
        for item_id, arrival in enumerate(arrivals)
    )
    return Instance(horizon=spec.horizon, knapsacks=spec.knapsacks, items=items)


def reference_gen_burst(spec: GenSpec) -> Instance:
    """Bursty workload: arrivals cluster around a few burst slots.

    Same per-item draws as the uniform family; only the arrival process
    differs.  Burst count scales with sqrt(n).
    """
    max_hi = _check_durations_fit(spec)
    rng = Random(spec.seed)
    hi = spec.horizon - max_hi
    n_bursts = max(1, round(math.sqrt(spec.n)))
    centers = [rng.randint(1, hi) for _ in range(n_bursts)]
    arrivals = sorted(
        min(hi, max(1, round(rng.gauss(rng.choice(centers), max(1.0, hi / 20.0)))))
        for _ in range(spec.n)
    )
    items = tuple(
        reference_draw_item(rng, item_id, arrival, spec)
        for item_id, arrival in enumerate(arrivals)
    )
    return Instance(horizon=spec.horizon, knapsacks=spec.knapsacks, items=items)


def reference_generate(spec):
    return (reference_gen_uniform if spec.family == "uniform" else reference_gen_burst)(spec)


@st.composite
def generator_specs(draw):
    knapsacks = []
    for _ in range(draw(st.integers(1, 3))):
        duration_lo = draw(st.integers(1, 4))
        capacity = draw(st.sampled_from([1.0, 4.0, 10.0]))
        knapsacks.append(KnapsackSpec(
            capacity, draw(st.sampled_from([1.0, 2.5, 8.0])), duration_lo,
            duration_lo + draw(st.integers(0, 9)), capacity / draw(st.sampled_from([1, 2, 3])),
        ))
    max_hi = max(ks.duration_hi for ks in knapsacks)
    return GenSpec(
        draw(st.sampled_from(["uniform", "burst"])),
        draw(st.integers(0, 60)),
        max_hi + draw(st.integers(1, 200)),
        tuple(knapsacks),
        draw(st.integers(0, 2**64)),
        eligibility=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )


@SETTINGS
@given(spec=generator_specs())
def test_generate_matches_reference(spec):
    inst = generate(spec)[0]
    expected = reference_generate(spec)
    assert inst == expected
    assert dumps_instance(inst) == dumps_instance(expected)
