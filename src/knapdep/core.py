"""Domain types for slotted knapsack scheduling with departing items.

Items request a contiguous window of integer time slots in one of K
knapsacks; capacity is consumed only inside that window and released
afterwards.  Everything here is plain data plus validation: the admission
logic lives in :mod:`knapdep.engine`, the offline solver in
:mod:`knapdep.oracle`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterator, Mapping, Optional, Sequence

# Tolerance for fluctuation-bound comparisons (density/size caps).  Values
# are synthesized as density*size*duration, so re-derived densities can sit
# one ulp outside the declared bounds; 1e-9 absorbs that without masking
# real violations.
BOUND_TOL = 1e-9


class SchemaError(ValueError):
    """Raised when instance JSON does not match the documented schema."""


@dataclass(frozen=True)
class SlotInterval:
    """Contiguous window of integer slots {start, ..., start+duration-1}."""

    start: int
    duration: int

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ValueError(f"interval start must be >= 1, got {self.start}")
        if self.duration < 1:
            raise ValueError(f"interval duration must be >= 1, got {self.duration}")

    @property
    def end(self) -> int:
        """Last slot of the window (inclusive)."""
        return self.start + self.duration - 1

    def slots(self) -> range:
        return range(self.start, self.start + self.duration)


@dataclass(frozen=True)
class ItemOption:
    """Per-knapsack request of an item: size, value, and slot window.

    Ineligible options are placeholders; their numeric fields are ignored
    by validation and by the engine.
    """

    eligible: bool
    size: float
    value: float
    interval: SlotInterval

    def density(self) -> float:
        """Value per unit size per slot, value / (size * duration)."""
        return self.value / (self.size * self.interval.duration)


@dataclass(frozen=True)
class Item:
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
        Declared bounds on item durations.
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
        if self.duration_lo < 1:
            raise ValueError(f"duration_lo must be >= 1, got {self.duration_lo}")
        if self.duration_hi < self.duration_lo:
            raise ValueError(
                f"duration_hi must be >= duration_lo, got "
                f"{self.duration_hi} < {self.duration_lo}"
            )
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
    first break of the structural rules (horizon >= 1, unique ids, arrivals
    >= 1 and nondecreasing, one option per knapsack, and for each eligible
    option a finite size > 0, a finite value > 0 and a window ending by the
    horizon), so everything downstream relies on them.
    """

    horizon: int
    knapsacks: tuple[KnapsackSpec, ...]
    items: tuple[Item, ...]

    def __post_init__(self) -> None:
        horizon = self.horizon
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        K = len(self.knapsacks)
        inf = math.inf
        limit = horizon + 1
        seen: set[int] = set()
        prev_arrival = 1
        for item in self.items:
            if item.id in seen:
                raise ValueError(f"duplicate item id {item.id}")
            seen.add(item.id)
            if item.arrival < prev_arrival:  # prev_arrival starts at 1
                raise ValueError(
                    f"item {item.id}: arrival must be >= 1, got {item.arrival}"
                    if item.arrival < 1
                    else f"item {item.id}: arrival {item.arrival} breaks nondecreasing order"
                )
            prev_arrival = item.arrival
            options = item.options
            if len(options) != K:
                raise ValueError(f"item {item.id}: expected {K} options, got {len(options)}")
            for opt in options:
                if opt.eligible and not (
                    0 < opt.size < inf
                    and 0 < opt.value < inf
                    and opt.interval.start + opt.interval.duration <= limit
                ):
                    raise ValueError(_option_fault(item, horizon))

    @property
    def num_knapsacks(self) -> int:
        return len(self.knapsacks)

    @property
    def num_items(self) -> int:
        return len(self.items)


def _option_fault(item: Item, horizon: int) -> Optional[str]:
    """The rule that the first bad eligible option of ``item`` breaks."""
    for k, opt in item.eligible_options():
        where = f"item {item.id}, knapsack {k}"
        for name, v in (("size", opt.size), ("value", opt.value)):
            if v <= 0:
                return f"{where}: nonpositive {name} {v}"
            if not v < math.inf:
                return f"{where}: {name} {v} is not finite"
        if opt.interval.end > horizon:
            return f"{where}: window ends at {opt.interval.end}, beyond horizon {horizon}"


class UtilizationState:
    """Per-knapsack, per-slot committed size; the engine's only mutable state.

    Each knapsack holds one dense row of floats indexed by slot (index 0 is
    unused), sized from ``horizon`` and grown when a window ends past it,
    so a horizon-less state still works.  Slots past the row read zero.
    Utilization only ever grows: departures are encoded in the
    time-indexed windows, never by decrementing.
    """

    def __init__(self, num_knapsacks: int, horizon: int = 0) -> None:
        n = max(horizon, 0) + 1
        self._z: list[list[float]] = [[0.0] * n for _ in range(num_knapsacks)]

    @property
    def num_knapsacks(self) -> int:
        return len(self._z)

    def get(self, knapsack: int, slot: int) -> float:
        row = self._z[knapsack]
        return row[slot] if 0 <= slot < len(row) else 0.0

    def window(self, knapsack: int, interval: SlotInterval) -> list[float]:
        """Utilization of the slots of ``interval``, in slot order."""
        start = interval.start
        zs = self._z[knapsack][start:start + interval.duration]
        if len(zs) < interval.duration:
            zs.extend([0.0] * (interval.duration - len(zs)))
        return zs

    def add(self, knapsack: int, interval: SlotInterval, size: float) -> None:
        if size < 0:
            raise ValueError("utilization updates must be nonnegative")
        row = self._z[knapsack]
        start = interval.start
        stop = start + interval.duration
        if stop > len(row):
            row.extend([0.0] * (stop - len(row)))
        row[start:stop] = [z + size for z in row[start:stop]]

    def covered(self, knapsack: int) -> Iterator[tuple[int, float]]:
        """(slot, utilization) of each slot some positive ``add`` covered, ascending."""
        row = self._z[knapsack]
        return zip(compress(range(len(row)), row), compress(row, row))


@dataclass(frozen=True)
class Decision:
    """Irrevocable outcome for one item: assigned knapsack or declined."""

    item_id: int
    knapsack: Optional[int]

    @property
    def admitted(self) -> bool:
        return self.knapsack is not None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnapsackObservation:
    """Observed ranges for one knapsack, next to their declared bounds."""

    density_range: Optional[tuple[float, float]]
    duration_range: Optional[tuple[int, int]]
    max_size: float
    size_bound: Optional[float]  # capacity*ln2/gamma when gamma was supplied


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    knapsacks: list[KnapsackObservation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "errors": list(self.errors),
            "warnings": list(self.warnings),
            "knapsacks": [
                {
                    "density_range": list(o.density_range) if o.density_range else None,
                    "duration_range": list(o.duration_range) if o.duration_range else None,
                    "max_size": o.max_size,
                    "size_bound": o.size_bound,
                }
                for o in self.knapsacks
            ],
        }


def validate_instance(
    inst: Instance,
    strict: bool = False,
    gamma: Optional[Sequence[float]] = None,
) -> ValidationReport:
    """Check an instance against its declared fluctuation bounds.

    Structure needs no check here: every ``Instance`` is well-formed by
    construction.  Fluctuation-bound violations (density outside
    [1, theta], duration outside its bounds, size above the cap) are
    warnings, promoted to errors when ``strict``.  A window starting before
    the item's arrival, and an item with no eligible option, are reported
    as warnings only, even under strict: ingested traces are not rejected
    for them.

    When ``gamma`` supplies one value per knapsack, the report also checks
    the exponential-threshold size precondition size_cap <= capacity*ln2/gamma;
    each value must be finite and > 0 (ValueError otherwise).

    ``report.knapsacks`` carries each knapsack's observed density range,
    duration range and max size over its eligible options (no ranges and
    max size 0 when there are none); this is the one place they are
    computed.
    """
    report = ValidationReport()
    K = inst.num_knapsacks

    if gamma is not None:
        if len(gamma) != K:
            raise ValueError(f"gamma must have {K} entries, got {len(gamma)}")
        for g in gamma:
            if not 0 < g < math.inf:
                raise ValueError(f"gamma must be a finite number > 0, got {g}")

    def violation(msg: str) -> None:
        (report.errors if strict else report.warnings).append(msg)

    # Per-knapsack observed stats over eligible options.
    dens_lo = [math.inf] * K
    dens_hi = [-math.inf] * K
    dur_lo = [None] * K
    dur_hi = [None] * K
    size_hi = [0.0] * K

    for item in inst.items:
        label = f"item {item.id}"
        if not any(opt.eligible for opt in item.options):
            report.warnings.append(f"{label}: no eligible option (vacuous item)")

        for k, opt in enumerate(item.options):
            if not opt.eligible:
                continue
            spec = inst.knapsacks[k]
            where = f"{label}, knapsack {k}"
            if opt.interval.start < item.arrival:
                report.warnings.append(
                    f"{where}: window starts at {opt.interval.start}, "
                    f"before arrival {item.arrival}"
                )

            d = opt.interval.duration
            rho = opt.density()
            if rho < 1 - BOUND_TOL:
                violation(f"{where}: density {rho} below 1")
            if rho > spec.theta + BOUND_TOL * spec.theta:
                violation(f"{where}: density {rho} above theta {spec.theta}")
            if d < spec.duration_lo:
                violation(f"{where}: duration {d} below {spec.duration_lo}")
            if d > spec.duration_hi:
                violation(f"{where}: duration {d} above {spec.duration_hi}")
            if opt.size > spec.size_cap + BOUND_TOL * spec.size_cap:
                violation(f"{where}: size {opt.size} above cap {spec.size_cap}")

            dens_lo[k] = min(dens_lo[k], rho)
            dens_hi[k] = max(dens_hi[k], rho)
            dur_lo[k] = d if dur_lo[k] is None else min(dur_lo[k], d)
            dur_hi[k] = d if dur_hi[k] is None else max(dur_hi[k], d)
            size_hi[k] = max(size_hi[k], opt.size)

    for k, spec in enumerate(inst.knapsacks):
        bound = None
        if gamma is not None:
            bound = spec.capacity * math.log(2.0) / gamma[k]
            if size_hi[k] > bound + BOUND_TOL * bound:
                violation(
                    f"knapsack {k}: max size {size_hi[k]} exceeds "
                    f"capacity*ln2/gamma = {bound}"
                )
        report.knapsacks.append(
            KnapsackObservation(
                density_range=(dens_lo[k], dens_hi[k]) if dens_hi[k] >= dens_lo[k] else None,
                duration_range=(dur_lo[k], dur_hi[k]) if dur_lo[k] is not None else None,
                max_size=size_hi[k],
                size_bound=bound,
            )
        )
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
        for t in opt.interval.slots():
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

_KNAPSACK_FIELDS = frozenset(
    ("capacity", "theta", "duration_lo", "duration_hi", "size_cap")
)
_ITEM_FIELDS = frozenset(("id", "arrival", "options"))
_OPTION_FIELDS = frozenset(("eligible", "size", "value", "start", "duration"))
_INSTANCE_FIELDS = frozenset(("horizon", "knapsacks", "items"))


_float_repr = float.__repr__
_int_repr = int.__repr__


def json_scalar(v: object) -> str:
    """JSON text of one scalar, as ``json.dumps`` writes it.

    Exact ``float`` (finite), ``int``, ``bool`` and ``None`` take their
    fixed spelling directly; anything else (NaN, infinities, subclasses,
    strings) goes through ``json.dumps`` itself.
    """
    if type(v) is float:
        if v - v == 0.0:
            return _float_repr(v)
    elif type(v) is int:
        return _int_repr(v)
    elif v is True:
        return "true"
    elif v is False:
        return "false"
    elif v is None:
        return "null"
    return json.dumps(v)


def json_block(elements: list[str], indent: str, brackets: str = "[]") -> str:
    """An array (or, with ``brackets="{}"``, an object) in ``indent=2`` layout.

    ``elements`` are already rendered, each with its own indentation, and
    the closing bracket goes at ``indent``; empty gives ``[]`` or ``{}``.
    """
    if not elements:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(elements) + f"\n{indent}{brackets[1]}"


def dumps_instance(inst: Instance) -> str:
    """The instance document, byte for byte as ``json.dumps(doc, indent=2)``.

    Written straight from the dataclasses; this is the one definition of
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
    for it in inst.items:
        options = [
            f'        {{\n          "eligible": {s(opt.eligible)},\n'
            f'          "size": {s(opt.size)},\n'
            f'          "value": {s(opt.value)},\n'
            f'          "start": {s(opt.interval.start)},\n'
            f'          "duration": {s(opt.interval.duration)}\n        }}'
            for opt in it.options
        ]
        items.append(
            f'    {{\n      "id": {s(it.id)},\n      "arrival": {s(it.arrival)},\n'
            f'      "options": {json_block(options, "      ")}\n    }}'
        )
    return (
        f'{{\n  "horizon": {s(inst.horizon)},\n'
        f'  "knapsacks": {json_block(knapsacks, "  ")},\n'
        f'  "items": {json_block(items, "  ")}\n}}'
    )


def instance_to_dict(inst: Instance) -> dict:
    return json.loads(dumps_instance(inst))


# Each helper below first tries the exact types ``json.loads`` produces and
# falls through to the general checks, which alone raise, so every error
# message is the same on either path.

def _require_fields(obj: Mapping, fields: frozenset[str], where: str) -> None:
    if type(obj) is dict and obj.keys() == fields:
        return
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(obj) - set(fields)
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    missing = set(fields) - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")


def _number(obj: Mapping, key: str, where: str) -> float:
    v = obj[key]
    if type(v) is float and v - v == 0.0:
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}: field '{key}' must be a number")
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if v - v != 0.0:
        raise SchemaError(f"{where}: field '{key}' must be a finite number")
    return v


def _integer(obj: Mapping, key: str, where: str) -> int:
    v = obj[key]
    if type(v) is int:
        return v
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{where}: field '{key}' must be an integer")
    return v


def instance_from_dict(data: Mapping) -> Instance:
    """Parse the instance schema; unknown or missing fields are rejected."""
    _require_fields(data, _INSTANCE_FIELDS, "instance")
    horizon = _integer(data, "horizon", "instance")
    if not isinstance(data["knapsacks"], list):
        raise SchemaError("instance: 'knapsacks' must be an array")
    if not isinstance(data["items"], list):
        raise SchemaError("instance: 'items' must be an array")

    knapsacks = []
    for k, kobj in enumerate(data["knapsacks"]):
        where = f"knapsack {k}"
        _require_fields(kobj, _KNAPSACK_FIELDS, where)
        fields = (
            _number(kobj, "capacity", where),
            _number(kobj, "theta", where),
            _integer(kobj, "duration_lo", where),
            _integer(kobj, "duration_hi", where),
            _number(kobj, "size_cap", where),
        )
        # Only the constructor's own ValueError gets the location prefix;
        # a SchemaError from a field already carries it.
        try:
            knapsacks.append(KnapsackSpec(*fields))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc

    items = []
    for i, iobj in enumerate(data["items"]):
        where = f"item at position {i}"
        _require_fields(iobj, _ITEM_FIELDS, where)
        if not isinstance(iobj["options"], list):
            raise SchemaError(f"{where}: 'options' must be an array")
        options = []
        for k, oobj in enumerate(iobj["options"]):
            owhere = f"{where}, option {k}"
            _require_fields(oobj, _OPTION_FIELDS, owhere)
            if not isinstance(oobj["eligible"], bool):
                raise SchemaError(f"{owhere}: field 'eligible' must be a boolean")
            start = _integer(oobj, "start", owhere)
            duration = _integer(oobj, "duration", owhere)
            try:
                interval = SlotInterval(start, duration)
            except ValueError as exc:
                raise SchemaError(f"{owhere}: {exc}") from exc
            options.append(
                ItemOption(
                    oobj["eligible"],
                    _number(oobj, "size", owhere),
                    _number(oobj, "value", owhere),
                    interval,
                )
            )
        items.append(
            Item(
                _integer(iobj, "id", where),
                _integer(iobj, "arrival", where),
                tuple(options),
            )
        )
    try:
        return Instance(horizon, tuple(knapsacks), tuple(items))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def loads_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return instance_from_dict(data)
