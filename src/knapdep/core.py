"""Domain types for slotted knapsack scheduling with departing items.

Items request a contiguous window of integer time slots in one of K
knapsacks; capacity is consumed only inside that window and released
afterwards.  Everything here is plain data plus validation: the admission
logic lives in :mod:`knapdep.engine`, the offline solver in
:mod:`knapdep.oracle`.

Each input rule is coded once: field types in the parser, knapsack fields
(integer durations among them) in ``KnapsackSpec``, structure (an integer
horizon, and integer ids, arrivals and windows, among it) in ``Instance``,
declared bounds in ``validate_instance`` (a trace row being ingested
breaks them when clamping would change it), and the gamma domain and size
precondition in :mod:`knapdep.threshold`.

Records hold only scalars and tuples and cannot form cycles, so the bulk
builders of them pause the cyclic collector (``_CollectorPaused``).
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .threshold import size_precondition

# Tolerance for fluctuation-bound comparisons (density/size caps).  Values
# are synthesized as density*size*duration, so re-derived densities can sit
# one ulp outside the declared bounds; 1e-9 absorbs that without masking
# real violations.
BOUND_TOL = 1e-9


class SchemaError(ValueError):
    """Raised when instance JSON does not match the documented schema."""


def _integer(value: object) -> bool:
    """Whether ``value`` is an integer: an int or a subclass of it, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_count(name: str, value: object, low: int, alternative: str = "") -> None:
    """Refuse anything but an integer >= ``low`` (a bool is not one)."""
    if not _integer(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}{alternative}, got {value!r}")


class ItemOption(NamedTuple):
    """Per-knapsack request of an item: size and value over the window of
    integer slots {start, ..., start+duration-1}.

    Ineligible options are placeholders; apart from their window's bounds,
    their fields are ignored by validation and by the engine.  ``ItemOption``
    and ``Item`` are plain records that check nothing themselves:
    ``Instance`` checks every rule on them once, when it is made.
    """

    eligible: bool
    size: float
    value: float
    start: int
    duration: int

    @property
    def end(self) -> int:
        """Last slot of the window (inclusive)."""
        return self.start + self.duration - 1

    def slots(self) -> range:
        return range(self.start, self.start + self.duration)

    def density(self) -> float:
        """Value per unit size per slot, value / (size * duration)."""
        return self.value / (self.size * self.duration)

    @property
    def interval(self) -> ItemOption:
        """The option itself; kept only for a benchmark tracer that reads ``.interval.duration``."""
        return self


class Item(NamedTuple):
    """One arriving request: arrival slot plus one option per knapsack."""

    id: int
    arrival: int
    options: tuple[ItemOption, ...]

    def eligible_options(self) -> Iterator[tuple[int, ItemOption]]:
        for k, opt in enumerate(self.options):
            if opt.eligible:
                yield k, opt


@dataclass(frozen=True)
class KnapsackSpec:
    """Capacity plus the declared fluctuation bounds of one knapsack.

    Attributes
    ----------
    capacity : float
        Capacity available in every slot.
    theta : float
        Upper bound on item value density (densities lie in [1, theta]).
    duration_lo, duration_hi : int
        Declared bounds on item durations: integers with
        1 <= duration_lo <= duration_hi.
    size_cap : float
        Upper bound on item size; at most ``capacity``.
    """

    capacity: float
    theta: float
    duration_lo: int
    duration_hi: int
    size_cap: float

    def __post_init__(self) -> None:
        if not 0 < self.capacity < math.inf:
            raise ValueError(f"capacity must be a finite number > 0, got {self.capacity}")
        if not 1 <= self.theta < math.inf:
            raise ValueError(f"theta must be a finite number >= 1, got {self.theta}")
        check_count("duration_lo", self.duration_lo, 1)
        check_count("duration_hi", self.duration_hi, self.duration_lo, " (duration_lo)")
        if not 0 < self.size_cap <= self.capacity:  # finite, as capacity is
            raise ValueError(
                f"size_cap must be in (0, capacity], got {self.size_cap} "
                f"with capacity {self.capacity}"
            )

    @property
    def alpha(self) -> float:
        """Duration ratio duration_hi / duration_lo."""
        return self.duration_hi / self.duration_lo


@dataclass(frozen=True)
class Instance:
    """Ordered item sequence over a slotted horizon and K knapsacks.

    Well-formed by construction: the constructor raises ValueError on the
    first break of the structural rules (an integer horizon >= 1, unique
    integer ids, integer arrivals >= 1 and nondecreasing, one option per
    knapsack, every option's window with integers start >= 1 and duration
    >= 1, and for each eligible option a finite size > 0, a finite value
    > 0 and a window ending by the horizon), so everything downstream
    relies on them.  ``checked_items`` holds the rules, for streamed items too.
    """

    horizon: int
    knapsacks: tuple[KnapsackSpec, ...]
    items: tuple[Item, ...]

    def __post_init__(self) -> None:
        for _ in checked_items(self.horizon, len(self.knapsacks), self.items):
            pass

    @property
    def num_knapsacks(self) -> int:
        return len(self.knapsacks)

    @property
    def num_items(self) -> int:
        return len(self.items)


def checked_items(horizon: int, K: int, items: Iterable[Item]) -> Iterator[Item]:
    """``items`` in order, each once it keeps ``Instance``'s rules.

    ValueError at the first break; the horizon's on the first draw.
    """
    check_count("horizon", horizon, 1)
    inf = math.inf
    limit = horizon + 1
    seen: set[int] = set()
    prev_arrival = 1
    for item in items:
        item_id, arrival, options = item
        if type(item_id) is not int and not _integer(item_id):  # seen: one id per item so far
            raise ValueError(
                f"item at position {len(seen)}: id must be an integer, got {item_id!r}"
            )
        if item_id in seen:
            raise ValueError(f"duplicate item id {item_id}")
        seen.add(item_id)
        if type(arrival) is not int and not _integer(arrival):
            raise ValueError(f"item {item_id}: arrival must be an integer, got {arrival!r}")
        if arrival < prev_arrival:  # prev_arrival starts at 1
            raise ValueError(
                f"item {item_id}: arrival must be >= 1, got {arrival}"
                if arrival < 1
                else f"item {item_id}: arrival {arrival} breaks nondecreasing order"
            )
        prev_arrival = arrival
        if len(options) != K:
            raise ValueError(f"item {item_id}: expected {K} options, got {len(options)}")
        for k, (eligible, size, value, start, duration) in enumerate(options):
            # One test per rule, in this order; text only for the one broken.
            if type(start) is not int and not _integer(start):
                fault = f"interval start must be an integer, got {start!r}"
            elif start < 1:
                fault = f"interval start must be >= 1, got {start}"
            elif type(duration) is not int and not _integer(duration):
                fault = f"interval duration must be an integer, got {duration!r}"
            elif duration < 1:
                fault = f"interval duration must be >= 1, got {duration}"
            elif not eligible:
                continue
            elif not 0 < size < inf:
                fault = f"nonpositive size {size}" if size <= 0 else f"size {size} is not finite"
            elif not 0 < value < inf:
                fault = (f"nonpositive value {value}" if value <= 0
                         else f"value {value} is not finite")
            elif start + duration > limit:
                fault = f"window ends at {start + duration - 1}, beyond horizon {horizon}"
            else:
                continue
            raise ValueError(f"item {item_id}, knapsack {k}: {fault}")
        yield item


class UtilizationState:
    """Per-knapsack, per-slot committed size; the engine's only mutable state.

    Each knapsack holds one dense row of floats indexed by slot, 0 to
    ``horizon`` (index 0 is unused).  A window outside slots 1 to
    ``horizon`` is refused (ValueError); the eligible options of an
    ``Instance`` never hold one.  Utilization only ever grows: departures
    are encoded in the time-indexed windows, never by decrementing.
    """

    def __init__(self, num_knapsacks: int, horizon: int) -> None:
        self._z: list[list[float]] = [[0.0] * (horizon + 1) for _ in range(num_knapsacks)]

    @property
    def num_knapsacks(self) -> int:
        return len(self._z)

    def window(self, knapsack: int, start: int, duration: int) -> list[float]:
        """Utilization of slots ``start`` to ``start + duration - 1``, in order; never empty."""
        stop = start + duration
        row = self._z[knapsack]
        if duration < 1:
            raise ValueError(f"window duration must be >= 1, got {duration}")
        if start < 1 or stop > len(row):
            raise ValueError(f"window {start}..{stop - 1} is outside slots 1..{len(row) - 1}")
        return row[start:stop]

    def add(self, knapsack: int, start: int, duration: int, size: float) -> None:
        """Add ``size`` to slots ``start`` to ``start + duration - 1``."""
        if not size >= 0:  # NaN too, which would poison every slot it touched
            raise ValueError(f"utilization updates must be nonnegative, got {size}")
        self._z[knapsack][start:start + duration] = [
            z + size for z in self.window(knapsack, start, duration)
        ]

    def covered(self, knapsack: int) -> Iterator[tuple[int, float]]:
        """(slot, utilization) of each slot some positive ``add`` covered, ascending."""
        row = self._z[knapsack]
        return zip(compress(range(len(row)), row), compress(row, row))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    knapsacks: list[dict] = field(default_factory=list)  # see validate_instance

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "errors": list(self.errors),
            "warnings": list(self.warnings),
            "knapsacks": list(self.knapsacks),
        }


def validate_instance(
    inst: Instance,
    strict: bool = False,
    gamma: Optional[Sequence[float]] = None,
) -> ValidationReport:
    """Check an instance against its declared fluctuation bounds.

    Structure needs no check here: every ``Instance`` is well-formed by
    construction, and so is a streamed one, whose items are drawn once.
    Fluctuation-bound violations (density outside
    [1, theta], duration outside its bounds, size above the cap) are
    warnings, promoted to errors when ``strict``.  A window starting before
    the item's arrival, and an item with no eligible option, are reported
    as warnings only, even under strict: ingested traces are not rejected
    for them.

    When ``gamma`` supplies one value per knapsack, the report also checks
    the exponential-threshold size precondition size_cap <= capacity*ln2/gamma,
    with the bound from ``threshold.size_precondition``, which refuses a
    gamma that is not finite and > 0 (ValueError).

    ``report.knapsacks`` holds one JSON object per knapsack, as the report
    document writes it: ``density_range`` and ``duration_range`` as
    ``[lo, hi]`` lists and ``max_size`` over its eligible options (no
    ranges and max size 0 when there are none), and ``size_bound``, the
    precondition's bound or None without ``gamma``.  This is the one
    place they are computed.
    """
    report = ValidationReport()
    specs = inst.knapsacks
    K = len(specs)
    bounds: list[Optional[float]] = [None] * K
    if gamma is not None:
        if len(gamma) != K:
            raise ValueError(f"gamma must have {K} entries, got {len(gamma)}")
        bounds = [size_precondition(s.capacity, g) for s, g in zip(specs, gamma)]

    warnings = report.warnings
    violations = report.errors if strict else warnings
    # Per knapsack: [min, max] density and duration and max size of its
    # eligible options (None before the first; ties keep the first, as
    # min() and max() do), and the bounds options within the declared ones
    # stay inside.
    ranges: list[Optional[list]] = [None] * K
    limits = [
        (s.theta + BOUND_TOL * s.theta, s.duration_lo, s.duration_hi,
         s.size_cap + BOUND_TOL * s.size_cap)
        for s in specs
    ]
    rho_lo = 1 - BOUND_TOL

    # One test per rule; the text of a finding is formed only when it fires.
    for item_id, arrival, options in inst.items:
        vacuous = True
        for k, (eligible, size, value, start, d) in enumerate(options):
            if not eligible:
                continue
            vacuous = False
            rho = value / (size * d)  # ItemOption.density
            rho_hi, d_lo, d_hi, size_hi = limits[k]
            if start < arrival:
                warnings.append(
                    f"item {item_id}, knapsack {k}: window starts at {start}, "
                    f"before arrival {arrival}"
                )
            if rho < rho_lo:
                violations.append(f"item {item_id}, knapsack {k}: density {rho} below 1")
            if rho > rho_hi:
                violations.append(
                    f"item {item_id}, knapsack {k}: density {rho} above theta {specs[k].theta}"
                )
            if d < d_lo:
                violations.append(f"item {item_id}, knapsack {k}: duration {d} below {d_lo}")
            if d > d_hi:
                violations.append(f"item {item_id}, knapsack {k}: duration {d} above {d_hi}")
            if size > size_hi:
                violations.append(
                    f"item {item_id}, knapsack {k}: size {size} above cap {specs[k].size_cap}"
                )
            r = ranges[k]
            if r is None:
                ranges[k] = [rho, rho, d, d, size]
                continue
            if rho < r[0]:
                r[0] = rho
            elif rho > r[1]:
                r[1] = rho
            if d < r[2]:
                r[2] = d
            elif d > r[3]:
                r[3] = d
            if size > r[4]:
                r[4] = size
        if vacuous:
            warnings.append(f"item {item_id}: no eligible option (vacuous item)")

    for k, (r, bound) in enumerate(zip(ranges, bounds)):
        max_size = 0.0 if r is None else r[4]
        if bound is not None and max_size > bound + BOUND_TOL * bound:
            violations.append(
                f"knapsack {k}: max size {max_size} exceeds capacity*ln2/gamma = {bound}"
            )
        report.knapsacks.append({
            "density_range": None if r is None else r[0:2],
            "duration_range": None if r is None else r[2:4],
            "max_size": max_size,
            "size_bound": bound,
        })
    return report


def assignment_violations(
    inst: Instance, assignment: Sequence[Optional[int]]
) -> list[str]:
    """Audit an assignment against capacity and eligibility, from scratch.

    ``assignment[i]`` is the knapsack of ``inst.items[i]`` or None.  Loads
    are re-accumulated independently of any engine state; comparisons are
    exact.  Returns one message per violation (empty list = feasible).
    """
    if len(assignment) != inst.num_items:
        raise ValueError(
            f"assignment has {len(assignment)} entries for {inst.num_items} items"
        )
    violations: list[str] = []
    load: dict[tuple[int, int], float] = {}
    for item, k in zip(inst.items, assignment):
        if k is None:
            continue
        if not 0 <= k < inst.num_knapsacks:
            violations.append(f"item {item.id}: assigned to unknown knapsack {k}")
            continue
        opt = item.options[k]
        if not opt.eligible:
            violations.append(f"item {item.id}: assigned to ineligible knapsack {k}")
            continue
        for t in opt.slots():
            load[(k, t)] = load.get((k, t), 0.0) + opt.size
    for (k, t), z in sorted(load.items()):
        cap = inst.knapsacks[k].capacity
        if z > cap:
            violations.append(
                f"knapsack {k}, slot {t}: load {z} exceeds capacity {cap}"
            )
    return violations


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

_float_repr = float.__repr__
_int_repr = int.__repr__


def json_scalar(v: object) -> str:
    """JSON text of one scalar, as ``json.dumps`` writes it.

    Exact ``float`` (finite) and ``int`` take their repr directly;
    anything else (NaN, infinities, ``bool``, ``None``, subclasses,
    strings) goes through ``json.dumps`` itself.
    """
    if type(v) is float:
        if v - v == 0.0:
            return _float_repr(v)
    elif type(v) is int:
        return _int_repr(v)
    return json.dumps(v)


def json_block(elements: list[str], indent: str, brackets: str = "[]") -> str:
    """An array (or, with ``brackets="{}"``, an object) in ``indent=2`` layout.

    ``elements`` are already rendered, each with its own indentation, and
    the closing bracket goes at ``indent``; empty gives ``[]`` or ``{}``.
    """
    if not elements:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(elements) + f"\n{indent}{brackets[1]}"


# Elements joined into one part by ``json_block_parts``: a streamed block
# then holds one batch of text at a time (about 0.35 MB of a K = 4 run's
# decisions), and a part of slot texts still exceeds the 8 KiB a text
# file gathers before it writes.
JSON_BATCH = 512


def json_block_parts(
    elements: Iterable[str], indent: str, brackets: str = "[]"
) -> Iterator[str]:
    """``json_block`` in parts of at most ``JSON_BATCH`` elements each.

    ``elements`` is drawn lazily, one batch at a time, so a block of any
    length never exists whole; ``"".join`` of the parts is ``json_block``
    of the same elements.
    """
    elements = iter(elements)
    batch = list(islice(elements, JSON_BATCH))
    if not batch:
        yield brackets
        return
    head = f"{brackets[0]}\n"
    while batch:
        # The head joins the first element, not the part, which would copy it.
        batch[0] = head + batch[0]
        head = ",\n"
        yield ",\n".join(batch)
        batch = list(islice(elements, JSON_BATCH))
    yield f"\n{indent}{brackets[1]}"


def dumps_instance(inst: Instance) -> str:
    """The instance document, byte for byte as ``json.dumps(doc, indent=2)``.

    Written straight from the records; this is the one definition of
    the document's shape, and ``instance_to_dict`` parses it back.
    """
    s = json_scalar
    knapsacks = [
        f'    {{\n      "capacity": {s(ks.capacity)},\n'
        f'      "theta": {s(ks.theta)},\n'
        f'      "duration_lo": {s(ks.duration_lo)},\n'
        f'      "duration_hi": {s(ks.duration_hi)},\n'
        f'      "size_cap": {s(ks.size_cap)}\n    }}'
        for ks in inst.knapsacks
    ]
    items = []
    for item_id, arrival, item_options in inst.items:
        options = []
        for eligible, size, value, start, duration in item_options:
            # Exact types with finite floats (x - x is nan for inf and nan)
            # format as their repr, which is their JSON text; any other
            # option is spelled field by field.
            if (type(eligible) is bool and type(size) is type(value) is float
                    and type(start) is type(duration) is int
                    and size - size == value - value == 0.0):
                eligible = "true" if eligible else "false"
            else:
                eligible, size, value = s(eligible), s(size), s(value)
                start, duration = s(start), s(duration)
            options.append(
                f'        {{\n          "eligible": {eligible},\n'
                f'          "size": {size},\n'
                f'          "value": {value},\n'
                f'          "start": {start},\n'
                f'          "duration": {duration}\n        }}'
            )
        items.append(
            f'    {{\n      "id": {s(item_id)},\n      "arrival": {s(arrival)},\n'
            f'      "options": {json_block(options, "      ")}\n    }}'
        )
    return (
        f'{{\n  "horizon": {s(inst.horizon)},\n'
        f'  "knapsacks": {json_block(knapsacks, "  ")},\n'
        f'  "items": {json_block(items, "  ")}\n}}'
    )


def instance_to_dict(inst: Instance) -> dict:
    return json.loads(dumps_instance(inst))


# The fields of each record and the JSON type each must hold, in the
# order ``_checked`` checks them.
_INSTANCE_FIELDS = {"horizon": "integer", "knapsacks": "array", "items": "array"}
_KNAPSACK_FIELDS = {
    "capacity": "number", "theta": "number", "duration_lo": "integer",
    "duration_hi": "integer", "size_cap": "number",
}
_ITEM_FIELDS = {"options": "array", "id": "integer", "arrival": "integer"}
_OPTION_FIELDS = {
    "eligible": "boolean", "start": "integer", "duration": "integer",
    "size": "number", "value": "number",
}
# Per JSON type: the Python types that hold it (bool only where it is
# named) and the message for any other value.
_KINDS = {
    "array": (list, "'{}' must be an array"),
    "boolean": (bool, "field '{}' must be a boolean"),
    "integer": (int, "field '{}' must be an integer"),
    "number": ((int, float), "field '{}' must be a number"),
}

_ITEM_KEYS = frozenset(_ITEM_FIELDS)
_OPTION_KEYS = frozenset(_OPTION_FIELDS)
# Field values in constructor order.
_knapsack_values = itemgetter("capacity", "theta", "duration_lo", "duration_hi", "size_cap")
_item_values = itemgetter("id", "arrival", "options")
_option_values = itemgetter("eligible", "size", "value", "start", "duration")


def _checked(obj: object, fields: dict[str, str], where: str) -> dict:
    """The fields of one record, checked in ``fields`` order and converted.

    The parser's general branch: raises SchemaError, prefixed with
    ``where``, at the first fault; otherwise returns the values, with an
    integer in a number field converted to float.
    """
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(obj) - set(fields)
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    missing = set(fields) - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")
    values = {}
    for key, kind in fields.items():
        v = obj[key]
        types, message = _KINDS[kind]
        if not isinstance(v, types) or kind != "boolean" and isinstance(v, bool):
            raise SchemaError(f"{where}: {message.format(key)}")
        if kind == "number":
            try:
                v = float(v)
            except OverflowError:
                v = math.inf
            if v - v != 0.0:
                raise SchemaError(f"{where}: field '{key}' must be a finite number")
        values[key] = v
    return values


def instance_from_dict(data: Mapping) -> Instance:
    """Parse the instance schema; unknown or missing fields are rejected.

    ``data`` is left as it was.
    """
    top = _checked(data, _INSTANCE_FIELDS, "instance")
    return _build_instance(top, top["items"])


def _build_instance(top: dict, item_objs: Iterable) -> Instance:
    """The instance of the checked top-level fields ``top``, its items from ``item_objs``."""
    knapsacks = knapsack_specs(top["knapsacks"])
    items = tuple(item_records(item_objs))
    try:
        return Instance(top["horizon"], knapsacks, items)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def knapsack_specs(kobjs: Iterable) -> tuple[KnapsackSpec, ...]:
    knapsacks = []
    for kobj in kobjs:
        where = f"knapsack {len(knapsacks)}"
        fields = _knapsack_values(_checked(kobj, _KNAPSACK_FIELDS, where))
        # Only the constructor's own ValueError gets the location prefix;
        # a SchemaError from a field already carries it.
        try:
            knapsacks.append(KnapsackSpec(*fields))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    return tuple(knapsacks)


def item_records(item_objs: Iterable) -> Iterator[Item]:
    """The record of each parsed item object, in order, built as it is drawn.

    An item or option holding exactly the types ``json.loads`` gives (with
    finite floats) is built as it stands; any other record goes through
    ``_checked``, which names its first fault or converts its values.
    """
    new = tuple.__new__
    for position, iobj in enumerate(item_objs):
        if type(iobj) is dict and iobj.keys() == _ITEM_KEYS:
            item_id, arrival, odata = _item_values(iobj)
            exact = type(item_id) is int and type(arrival) is int and type(odata) is list
        else:
            exact = False
        if not exact:
            where = f"item at position {position}"
            item_id, arrival, odata = _item_values(_checked(iobj, _ITEM_FIELDS, where))
        options = []
        for oobj in odata:
            if type(oobj) is dict and oobj.keys() == _OPTION_KEYS:
                eligible, size, value, start, duration = _option_values(oobj)
                # Finite floats: x - x is nan for inf and nan.
                if (type(eligible) is bool and type(size) is type(value) is float
                        and type(start) is type(duration) is int
                        and size - size == value - value == 0.0):
                    options.append(new(ItemOption, (eligible, size, value, start, duration)))
                    continue
            where = f"item at position {position}, option {len(options)}"
            options.append(ItemOption(*_option_values(_checked(oobj, _OPTION_FIELDS, where))))
        yield new(Item, (item_id, arrival, tuple(options)))


class _CollectorPaused:
    """Pause the cyclic collector, if on: its passes walk every record, free none."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc: object) -> None:
        # Unlike a generator's exit, this allocates nothing once collection is on.
        if self.enabled:
            gc.enable()


def _drained(objs: list) -> Iterator:
    """The elements of ``objs`` in order, each removed from ``objs`` as it is taken."""
    objs.reverse()
    pop = objs.pop
    while objs:
        yield pop()


def loads_instance(text: str) -> Instance:
    """Parse an instance document, as ``instance_from_dict`` of its JSON.

    The parsed document is this function's own, so its items are drained
    as they are built: each item's objects are freed once its record
    exists, and the two are never alive whole at once.  ``run`` and
    ``validate`` stream the input instead (:mod:`knapdep.stream`) and
    fall back to this, whose messages are the reference.
    """
    with _CollectorPaused():
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
        top = _checked(data, _INSTANCE_FIELDS, "instance")
        return _build_instance(top, _drained(top["items"]))
