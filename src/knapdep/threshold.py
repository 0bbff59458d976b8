"""Threshold functions mapping knapsack utilization to marginal cost.

The admission engine charges an item ``sum(size * phi(z_t))`` over its
requested slots and admits only if the item's value covers that charge.
The exponential family ``phi(z) = exp(z*gamma/capacity) - 1`` is the
default; a tabulated piecewise-linear kind is provided for experiment
configs and ablations.  The tuner scales only the exponential defaults.

The exponential curve's domain (finite gamma and capacity > 0) and the
size precondition are coded here only; ``validate_instance`` uses them.
So are the rules of a threshold config: ``from_config`` checks one whole,
before any knapsack is known, and leaves only a table's capacity to the
knapsack.
"""

from __future__ import annotations

import abc
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Callable, Mapping, Sequence

if TYPE_CHECKING:  # core imports this module, for size_precondition
    from .core import Instance, KnapsackSpec


def check_gamma(gamma: float) -> None:
    """Refuse a gamma outside the exponential curve's domain, (0, inf).

    An int too large for a float is refused too, since ``float()`` of it
    would raise OverflowError.
    """
    if not 0 < gamma <= sys.float_info.max:
        raise ValueError(f"gamma must be a finite number > 0, got {gamma}")


def _check_curve(capacity: float, gamma: float) -> None:
    """Refuse a capacity or gamma outside the exponential curve's domain."""
    if not 0 < capacity < math.inf:
        raise ValueError(f"capacity must be a finite number > 0, got {capacity}")
    check_gamma(gamma)


class ThresholdFn(abc.ABC):
    """Nondecreasing marginal-cost curve on [0, capacity] with phi(0) = 0.

    ``engine.run`` refuses a curve whose ``eval(0.0)`` is not exactly 0.0:
    ``charge`` skips empty slots, which is exact only under that contract.
    A subclass may override ``charge`` for speed, but it must return this
    base method's float bit for bit.
    """

    kind: str
    capacity: float

    @abc.abstractmethod
    def eval(self, z: float) -> float:
        """Marginal cost per unit size per slot at utilization ``z`` in [0, capacity]."""

    def charge(self, size: float, window: Sequence[float]) -> float:
        """The charge ``sum(size * phi(z))`` of an item over ``window``.

        ``window`` holds the utilization of each slot in slot order: the
        engine passes a new ``list`` of floats (``UtilizationState.window``),
        so that is what a custom curve receives.  An empty slot (``z ==
        0.0``) adds ``size * phi(0) == 0.0``, which changes no bit of a
        charge that is never -0.0, so it is skipped.  The rest is
        added left to right, never with builtin ``sum()``: from Python 3.12
        on it sums floats with compensation, so charges, and with them
        decisions, would depend on the Python version.  The engine stores
        each charge as a C double, so a charge must be a float.
        """
        evaluate = self.eval
        phi = 0.0
        for z in window:
            if z:
                phi += size * evaluate(z)
        return phi


@dataclass(frozen=True)
class ExponentialThreshold(ThresholdFn):
    """phi(z) = exp(z*gamma/capacity) - 1, so phi(0)=0 and phi(C)=exp(gamma)-1."""

    gamma: float
    capacity: float
    kind = "exponential"

    def __post_init__(self) -> None:
        _check_curve(self.capacity, self.gamma)

    def eval(self, z: float) -> float:
        """The curve at ``z``; +inf where ``exp`` overflows, its limit there."""
        try:
            return math.exp(z * self.gamma / self.capacity) - 1.0
        except OverflowError:
            return math.inf

    def charge(self, size: float, window: Sequence[float]) -> float:
        """``ThresholdFn.charge`` with ``eval``'s expression inlined.

        Where ``exp`` overflows, the generic loop forms the whole charge, so
        an infinite charge is its +inf bit for bit.  A subclass that
        overrides ``eval`` always gets the generic loop, which calls it.
        """
        if type(self).eval is not ExponentialThreshold.eval:
            return super().charge(size, window)
        gamma = self.gamma
        capacity = self.capacity
        exp = math.exp
        phi = 0.0
        try:
            for z in window:
                if z:
                    phi += size * (exp(z * gamma / capacity) - 1.0)
        except OverflowError:
            return super().charge(size, window)
        return phi


@dataclass(frozen=True)
class TableThreshold(ThresholdFn):
    """Piecewise-linear curve over a supplied grid of (z, phi) points.

    The finite grid must start at (0, 0), have strictly increasing z, and
    be nondecreasing in phi; capacity is the last grid point's z.
    """

    points: tuple[tuple[float, float], ...]
    kind = "table"

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("table needs at least two points")
        if not all(math.isfinite(v) for point in self.points for v in point):
            raise ValueError("table points must be finite numbers")
        z0, p0 = self.points[0]
        if z0 != 0.0 or p0 != 0.0:
            raise ValueError("table must start at (0, 0)")
        for (za, pa), (zb, pb) in zip(self.points, self.points[1:]):
            if zb <= za:
                raise ValueError("table z values must be strictly increasing")
            if pb < pa:
                raise ValueError("table phi values must be nondecreasing")

    @property
    def capacity(self) -> float:  # type: ignore[override]
        return self.points[-1][0]

    def eval(self, z: float) -> float:
        pts = self.points
        for (za, pa), (zb, pb) in zip(pts, pts[1:]):
            if z <= zb:
                return pa + (pb - pa) * (z - za) / (zb - za)
        return pts[-1][1]


def default_gamma(theta: float, alpha: float) -> float:
    """Default curvature ln(1 + alpha*theta).

    With this choice the full-utilization marginal cost phi(capacity)
    equals alpha*theta, the maximum value per unit size per slot scaled
    by the duration ratio, which makes the default auditable.  Callers
    may override it wherever a gamma is accepted.
    """
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return math.log(1.0 + alpha * theta)


def size_precondition(capacity: float, gamma: float) -> float:
    """Largest item size cap compatible with the competitive guarantee.

    Returns capacity * ln2 / gamma.
    """
    _check_curve(capacity, gamma)
    return capacity * math.log(2.0) / gamma


def from_config(config: object) -> Callable[[KnapsackSpec], ThresholdFn]:
    """Check an experiment-file threshold config whole; return its builder.

    Schema: {"kind": "exponential", "gamma": float | "auto"} where "auto"
    means ``default_gamma`` from each knapsack's declared theta and alpha;
    or {"kind": "table", "points": [[z, phi], ...]}.  Any other key is refused.
    Every rule is checked here, so the builder, which makes the curve for
    one knapsack, refuses only a table whose capacity is not the knapsack's.
    """
    if not isinstance(config, Mapping):
        raise ValueError(f"threshold must be an object, got {config!r}")
    kind = config.get("kind", "exponential")
    if kind == "exponential":
        check_keys(config, {"kind", "gamma"}, "exponential threshold")
        gamma = config.get("gamma", "auto")
        if gamma == "auto":
            return lambda spec: ExponentialThreshold(
                gamma=default_gamma(spec.theta, spec.alpha), capacity=spec.capacity
            )
        if isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
            raise ValueError(f"gamma must be a number or 'auto', got {gamma!r}")
        check_gamma(gamma)  # before float(), which overflows on a huge int
        return lambda spec: ExponentialThreshold(gamma=float(gamma), capacity=spec.capacity)
    if kind == "table":
        check_keys(config, {"kind", "points"}, "table threshold")
        raw = config.get("points")
        try:
            if not all(type(v) in (int, float) for point in raw for v in point):
                raise TypeError
            points = tuple((float(z), float(p)) for z, p in raw)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"table points must be [z, phi] number pairs, got {raw!r}") from None
        fn = TableThreshold(points=points)

        def build(spec: KnapsackSpec) -> ThresholdFn:
            if fn.capacity != spec.capacity:
                raise ValueError(
                    f"table capacity {fn.capacity} does not match "
                    f"knapsack capacity {spec.capacity}"
                )
            return fn

        return build
    raise ValueError(f"unknown threshold kind {kind!r}")


def check_keys(obj: object, known: AbstractSet[str], where: str) -> None:
    """Refuse ``obj`` unless it is a mapping whose keys are all in ``known``."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{where}: expected an object")
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown, key=str)}")


def for_instance(inst: Instance, config: Mapping | None = None) -> list[ThresholdFn]:
    """One threshold per knapsack of ``inst`` from a shared config, checked once."""
    build = from_config({"kind": "exponential", "gamma": "auto"} if config is None else config)
    return [build(spec) for spec in inst.knapsacks]
