"""Instance generators and CSV trace ingestion.

All generators are deterministic functions of their spec: the PRNG is
Python's ``random.Random`` (MT19937) seeded from the spec, and the draw
order per item is fixed, so identical specs reproduce byte-identical
instances across platforms.  Integers come from ``getrandbits`` exactly as
``randrange`` makes them (``_below``), pinned here rather than taken from
each Python's ``randint``.  ``generate`` pauses the cyclic collector, as
the records it builds are acyclic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from random import Random
from typing import Callable, Optional, Sequence

from . import FAMILIES
from .core import (
    Instance,
    Item,
    ItemOption,
    KnapsackSpec,
    _CollectorPaused,
    check_count,
)

# Most items a staircase's prefix instances may hold in all.  Each prefix
# holds its own tuple, so that is per_batch * levels * (levels + 1) / 2:
# a huge capacity / size_cap or level count is refused before any record
# is built.
_STAIRCASE_ITEMS = 10**6

# The one record every ineligible option shares.
_INELIGIBLE = ItemOption(False, 0.0, 0.0, 1, 1)


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a generated workload.

    ``knapsacks`` carries the declared fluctuation bounds the items are
    drawn within, so generated instances always pass strict validation.
    """

    family: str
    n: int
    horizon: int
    knapsacks: tuple[KnapsackSpec, ...]
    seed: int
    eligibility: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        check_count("n", self.n, 0)
        check_count("horizon", self.horizon, 1)
        if not self.knapsacks:
            raise ValueError("at least one knapsack is required")
        if not 0.0 <= self.eligibility <= 1.0:
            raise ValueError(f"eligibility must be in [0, 1], got {self.eligibility}")


def _check_durations_fit(spec: GenSpec) -> int:
    max_hi = max(ks.duration_hi for ks in spec.knapsacks)
    if spec.horizon - max_hi < 1:
        raise ValueError(
            f"horizon {spec.horizon} too short for max duration {max_hi}; "
            f"need horizon >= duration_hi + 1"
        )
    return max_hi


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform integer in [0, n), drawn as ``Random.randrange(n)`` draws it."""
    if n < 1:
        raise ValueError(f"empty range: nothing below {n} to draw")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw_instance(rng: Random, arrivals: Sequence[int], spec: GenSpec) -> Instance:
    """One item per arrival; per knapsack, draw duration, start, size, density, eligibility.

    Sizes land in (0, size_cap], densities in [1, theta], and
    value = density * size * duration, so Assumption-style bounds hold by
    construction.  Ineligible options are the shared ``_INELIGIBLE`` record.
    """
    getrandbits, random = rng.getrandbits, rng.random
    new = tuple.__new__
    eligibility = spec.eligibility
    always = eligibility >= 1.0
    room = spec.horizon + 2  # start in [arrival, horizon - duration + 1]
    draws = [
        (ks.duration_lo, ks.duration_hi - ks.duration_lo + 1, ks.size_cap, ks.theta - 1.0)
        for ks in spec.knapsacks
    ]
    items = []
    for item_id, arrival in enumerate(arrivals):
        options = []
        for duration_lo, durations, size_cap, spread in draws:
            duration = duration_lo + _below(getrandbits, durations)
            start = arrival + _below(getrandbits, room - duration - arrival)
            size = size_cap * (1.0 - random())
            density = 1.0 + spread * random()  # Random.uniform(1.0, theta)
            if always or random() < eligibility:
                options.append(
                    new(ItemOption, (True, size, density * size * duration, start, duration))
                )
            else:
                options.append(_INELIGIBLE)
        items.append(new(Item, (item_id, arrival, tuple(options))))
    return Instance(spec.horizon, spec.knapsacks, items)


def gen_uniform(spec: GenSpec) -> Instance:
    """Uniform workload: arrivals uniform over [1, horizon - max duration]."""
    max_hi = _check_durations_fit(spec)
    rng = Random(spec.seed)
    getrandbits, width = rng.getrandbits, spec.horizon - max_hi
    arrivals = sorted(1 + _below(getrandbits, width) for _ in range(spec.n))
    return _draw_instance(rng, arrivals, spec)


def gen_burst(spec: GenSpec) -> Instance:
    """Bursty workload: arrivals cluster around a few burst slots.

    Same per-item draws as the uniform family; only the arrival process
    differs.  Burst count scales with sqrt(n).
    """
    max_hi = _check_durations_fit(spec)
    rng = Random(spec.seed)
    hi = spec.horizon - max_hi
    n_bursts = max(1, round(math.sqrt(spec.n)))
    centers = [1 + _below(rng.getrandbits, hi) for _ in range(n_bursts)]
    arrivals = sorted(
        min(hi, max(1, round(rng.gauss(rng.choice(centers), max(1.0, hi / 20.0)))))
        for _ in range(spec.n)
    )
    return _draw_instance(rng, arrivals, spec)


def gen_staircase(spec: GenSpec, levels: int) -> list[Instance]:
    """Single-knapsack density staircase, returned as prefix instances.

    ``levels`` batches all request the same slot window; batch ``l``
    (1-based) has density theta**((l-1)/(levels-1)), a geometric ladder
    from 1 up to theta, and total size equal to the capacity, split into
    equal items no larger than the size cap.  Because later batches may
    simply never arrive, the generator emits one instance per prefix:
    instance ``l`` contains batches 1..l and is an exact item-sequence
    prefix of instance ``l+1``.  The item count is
    ``levels * ceil(capacity / size_cap)``, independent of ``spec.n``; a
    staircase whose prefixes would hold more than ``_STAIRCASE_ITEMS``
    items in all is refused (ValueError).

    This is a lower-bound probe of how the achievable ratio grows with
    theta; it is a house construction, not a proven worst case.
    """
    if len(spec.knapsacks) != 1:
        raise ValueError("staircase family is defined for exactly one knapsack")
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    ks = spec.knapsacks[0]
    duration = ks.duration_lo
    if duration > spec.horizon:
        raise ValueError(
            f"horizon {spec.horizon} too short for duration {duration}"
        )
    batches = ks.capacity / ks.size_cap
    if batches == math.inf:
        raise ValueError(
            f"capacity / size_cap must be finite, got {ks.capacity} / {ks.size_cap}"
        )
    per_batch = math.ceil(batches)
    if per_batch * levels * (levels + 1) // 2 > _STAIRCASE_ITEMS:
        raise ValueError(
            f"staircase prefixes must hold at most {_STAIRCASE_ITEMS} items in all, got "
            f"{levels} levels of ceil({ks.capacity} / {ks.size_cap}) items"
        )
    size = ks.capacity / per_batch

    items: list[Item] = []
    prefixes: list[Instance] = []
    for level in range(1, levels + 1):
        density = ks.theta ** ((level - 1) / (levels - 1))
        options = (ItemOption(True, size, density * size * duration, 1, duration),)
        for _ in range(per_batch):
            items.append(Item(len(items), 1, options))
        prefixes.append(Instance(spec.horizon, spec.knapsacks, items))
    return prefixes


def generate(spec: GenSpec, levels: int = 4) -> list[Instance]:
    """Dispatch on the family tag, which ``GenSpec`` checked; returns a list."""
    with _CollectorPaused():
        if spec.family == "uniform":
            return [gen_uniform(spec)]
        if spec.family == "burst":
            return [gen_burst(spec)]
        return gen_staircase(spec, levels)


# ---------------------------------------------------------------------------
# Trace ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceMapping:
    """Column names and policies for turning a CSV trace into an instance.

    ``value`` may be None: values are then synthesized at the midpoint
    density of [1, theta].  ``start`` defaults to the arrival column.
    ``violation_policy`` handles rows breaking the declared bounds:
    "clamp" pulls them inside, "drop" removes them; both are counted.
    ``assign_policy`` is "replicate" (every row eligible for all
    knapsacks) or "partition" (row i eligible only for knapsack i mod K).
    """

    arrival: str
    size: str
    duration: str
    value: Optional[str] = None
    start: Optional[str] = None
    violation_policy: str = "clamp"
    assign_policy: str = "replicate"
    error_tolerance: float = 0.01

    def __post_init__(self) -> None:
        if self.violation_policy not in ("clamp", "drop"):
            raise ValueError(f"unknown violation policy {self.violation_policy!r}")
        if self.assign_policy not in ("replicate", "partition"):
            raise ValueError(f"unknown assign policy {self.assign_policy!r}")
        if not 0.0 <= self.error_tolerance <= 1.0:
            raise ValueError("error_tolerance must be in [0, 1]")


@dataclass
class IngestStats:
    rows_read: int = 0
    rows_kept: int = 0
    rows_dropped: int = 0
    rows_clamped: int = 0
    bad_rows: list[int] = field(default_factory=list)  # 1-based data row numbers

    def to_dict(self) -> dict:
        return asdict(self)


def _clamp_row(
    ks: KnapsackSpec,
    size: float,
    duration: int,
    value: Optional[float],
    max_duration: int,
) -> Optional[tuple[float, int, Optional[float]]]:
    """Pull one row inside the declared bounds and the horizon.

    Duration is clamped first (also against the remaining horizon room),
    then size, then value against the density band of the final size and
    duration.  Returns the row unchanged exactly when it is within the
    bounds, and None when no valid clamp exists (no room before the
    horizon), which the caller treats as a drop.
    """
    hi = min(ks.duration_hi, max_duration)
    if hi < ks.duration_lo:
        return None
    duration = min(max(duration, ks.duration_lo), hi)
    size = min(size, ks.size_cap)
    if value is not None:
        value = min(max(value, size * duration), ks.theta * size * duration)
    return size, duration, value


def _whole(cell: str) -> int:
    """Read a time cell: a whole number >= 1, written ``3``, ``3.0`` or ``1e3``."""
    number = float(cell)
    if not number.is_integer() or number < 1:  # is_integer is False for inf and nan
        raise ValueError(f"not a whole number >= 1: {cell!r}")
    return int(number)


def _positive(cell: str) -> float:
    """Read a size or value cell: a finite number > 0."""
    number = float(cell)
    if not 0 < number < math.inf:
        raise ValueError(f"not a finite number > 0: {cell!r}")
    return number


def ingest_trace(
    path: str | Path,
    mapping: TraceMapping,
    knapsacks: Sequence[KnapsackSpec],
    horizon: Optional[int] = None,
) -> tuple[Instance, IngestStats]:
    """Build an instance from a CSV trace of job-scheduling-style rows.

    Time cells (arrival, start, duration) must be whole numbers >= 1
    (``3`` or ``3.0``, never ``2.5``), and size and value cells finite
    numbers > 0.  Any other row is a bad row: it is skipped, and the whole
    ingest fails with the bad rows' numbers if they exceed
    ``error_tolerance`` as a fraction of data rows.  The horizon defaults to
    the latest requested slot; with an explicit horizon, overruns fall under
    the violation policy (clamp shortens the window, drop removes the row).
    A row breaks a knapsack's declared bounds exactly when clamping would
    change it, or finds no clamp.
    """
    import csv  # here, so that no command but a trace reader loads it

    path = Path(path)
    knapsacks = tuple(knapsacks)
    stats = IngestStats()
    rows: list[tuple[int, int, float, int, Optional[float]]] = []

    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty trace, no header row")
        columns = (mapping.arrival, mapping.size, mapping.duration, mapping.value, mapping.start)
        missing = [c for c in columns if c is not None and c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")

        for row_no, row in enumerate(reader, start=1):
            stats.rows_read += 1
            try:  # a short row reads None for its missing cells: a TypeError
                arrival = _whole(row[mapping.arrival])
                start = arrival if mapping.start is None else _whole(row[mapping.start])
                size = _positive(row[mapping.size])
                duration = _whole(row[mapping.duration])
                value = None if mapping.value is None else _positive(row[mapping.value])
            except (ValueError, TypeError):
                stats.bad_rows.append(row_no)
                continue
            rows.append((arrival, start, size, duration, value))

    if stats.rows_read and len(stats.bad_rows) / stats.rows_read > mapping.error_tolerance:
        raise ValueError(
            f"{path}: {len(stats.bad_rows)} bad rows "
            f"(rows {stats.bad_rows}) exceed tolerance {mapping.error_tolerance}"
        )

    if horizon is None:
        horizon = max((start + duration - 1 for _, start, _, duration, _ in rows), default=1)

    items: list[Item] = []
    rows.sort(key=lambda r: r[0])
    for idx, (arrival, start, size, duration, value) in enumerate(rows):
        options: list[ItemOption] = []
        clamped = False
        for k, ks in enumerate(knapsacks):
            if mapping.assign_policy == "partition" and idx % len(knapsacks) != k:
                options.append(_INELIGIBLE)
                continue
            clamp = _clamp_row(ks, size, duration, value, horizon - start + 1)
            if clamp != (size, duration, value):
                if clamp is None or mapping.violation_policy == "drop":
                    stats.rows_dropped += 1
                    break
                clamped = True
            k_size, k_dur, k_val = clamp
            if k_val is None:  # midpoint density of [1, theta]
                k_val = (1.0 + ks.theta) / 2.0 * k_size * k_dur
            options.append(ItemOption(True, k_size, k_val, start, k_dur))
        else:
            stats.rows_kept += 1
            stats.rows_clamped += clamped
            items.append(Item(id=len(items), arrival=arrival, options=tuple(options)))

    inst = Instance(horizon=horizon, knapsacks=knapsacks, items=items)
    return inst, stats
