"""Span recording for the traced benchmark run.

The tracer replaces public functions of the knapdep modules with timing
wrappers for the duration of a ``with tracer.installed(targets):`` block and
restores them afterwards, so no module under ``src/`` is edited and untraced
passes run the original code.  Spans (name, start, end, parent, pass) stay in
memory until the benchmark writes them out.

Per-call threshold evaluation is too frequent for one span per call; it is
counted by a delegating ``ThresholdFn`` and its time is charged to the
enclosing span as aggregated child time.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Optional

from knapdep.threshold import ThresholdFn


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    pass_id: Optional[int] = None
    attrs: dict = field(default_factory=dict)
    # Time of aggregated child work (threshold evals) inside this span.
    eval_s: float = 0.0
    eval_calls: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "pass": self.pass_id,
            "attrs": self.attrs,
            "eval_s": self.eval_s,
            "eval_calls": self.eval_calls,
        }


class CountingThreshold(ThresholdFn):
    """Delegates to a real threshold, counting and timing every ``eval``."""

    def __init__(self, inner: ThresholdFn, tracer: "Tracer") -> None:
        self._inner = inner
        self._tracer = tracer
        self.kind = inner.kind
        self.capacity = inner.capacity

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def eval(self, z: float) -> float:
        t0 = perf_counter()
        value = self._inner.eval(z)
        elapsed = perf_counter() - t0
        span = self._tracer.current()
        if span is not None:
            span.eval_s += elapsed
            span.eval_calls += 1
        return value


class Tracer:
    """Records nested spans around patched call sites."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.pass_id: Optional[int] = None
        # Span attributes computed after the pass, outside every timed span.
        self._deferred: list[tuple[Span, Callable[[], dict]]] = []

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self.current()
        s = Span(
            id=len(self.spans),
            name=name,
            start=0.0,
            parent=parent.id if parent else None,
            pass_id=self.pass_id,
            attrs=attrs,
        )
        self.spans.append(s)
        self._stack.append(s)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        summarize: Optional[Callable[[object], dict]] = None,
        measure_arg: Optional[Callable[..., dict]] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``.

        ``measure_arg`` derives span attributes from the call's arguments
        before the clock starts; ``summarize`` derives attributes from the
        result, deferred until ``finish_deferred`` so it is never timed.
        """

        def wrapper(*args, **kwargs):
            attrs = measure_arg(*args, **kwargs) if measure_arg else {}
            with self.span(name, **attrs) as s:
                result = fn(*args, **kwargs)
            if summarize is not None:
                self.defer(s, lambda: summarize(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def defer(self, span: Span, thunk: Callable[[], dict]) -> None:
        self._deferred.append((span, thunk))

    def finish_deferred(self) -> None:
        for span, thunk in self._deferred:
            span.attrs.update(thunk())
        self._deferred.clear()

    @contextlib.contextmanager
    def installed(self, targets: list[tuple[str, str, Callable[[Callable], Callable]]]):
        """Patch ``module.attr`` with ``make(original)`` for each target."""
        saved = []
        try:
            for module_name, attr, make in targets:
                owner = _resolve(module_name)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _resolve(dotted: str):
    """Import ``a.b`` or resolve ``a.b:Class`` to the object to patch."""
    module_name, _, cls = dotted.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


# ---------------------------------------------------------------------------
# Call sites traced in the CLI passes and in set-up
# ---------------------------------------------------------------------------

def _run_summary(inst, result) -> dict:
    """Counts from the engine's own audit: checks, slots and decline reasons.

    A declined item is charged to the capacity clause when no eligible
    knapsack had room, to the value clause when at least one had room.
    """
    checks = slots = admitted = 0
    decline_value = decline_capacity = decline_ineligible = 0
    for item, decision, audit in zip(inst.items, result.decisions, result.audits):
        checks += len(audit.entries)
        slots += sum(item.options[e.knapsack].interval.duration for e in audit.entries)
        if decision.admitted:
            admitted += 1
        elif not audit.entries:
            decline_ineligible += 1
        elif any(e.fits for e in audit.entries):
            decline_value += 1
        else:
            decline_capacity += 1
    return {
        "items": len(result.decisions),
        "checks": checks,
        "slots": slots,
        "admitted": admitted,
        "decline_value": decline_value,
        "decline_capacity": decline_capacity,
        "decline_ineligible": decline_ineligible,
    }


def _engine_run_wrapper(tracer: Tracer, original: Callable) -> Callable:
    def run(inst, thresholds):
        counted = [CountingThreshold(fn, tracer) for fn in thresholds]
        with tracer.span("engine.run") as s:
            result = original(inst, counted)
        tracer.defer(s, lambda: _run_summary(inst, result))
        return result

    run.__wrapped__ = original
    return run


def _solution_summary(sol) -> dict:
    return {"nodes": sol.nodes, "proof": sol.proof}


def cli_targets(tracer: Tracer) -> list:
    """Call sites of every layer reached from ``knapdep.cli.main``."""
    w = tracer.wrap
    return [
        ("knapdep.cli", "loads_instance",
         lambda f: w("core.loads", f, measure_arg=lambda text: {"bytes": len(text)})),
        ("knapdep.cli", "validate_instance", lambda f: w("core.validate", f)),
        ("knapdep.cli", "engine_run", lambda f: _engine_run_wrapper(tracer, f)),
        ("knapdep.bench", "run", lambda f: _engine_run_wrapper(tracer, f)),
        ("knapdep.threshold", "for_instance", lambda f: w("threshold.for_instance", f)),
        ("knapdep.oracle", "solve_exact",
         lambda f: w("oracle.solve_exact", f, summarize=_solution_summary)),
        ("knapdep.oracle", "solve_bruteforce",
         lambda f: w("oracle.bruteforce", f, summarize=_solution_summary)),
        ("knapdep.oracle", "upper_bound", lambda f: w("oracle.upper_bound", f)),
        ("knapdep.bench", "bench_suite", lambda f: w("bench.suite", f)),
        ("knapdep.engine:RunResult", "to_dict", lambda f: w("engine.to_dict", f)),
    ]


def setup_targets(tracer: Tracer) -> list:
    """Call sites of the benchmark's own input generation."""
    w = tracer.wrap
    return [
        ("knapdep.instances", "generate", lambda f: w("instances.generate", f)),
        ("knapdep.core", "dumps_instance", lambda f: w("core.dumps", f)),
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

LAYERS = ("core", "threshold", "engine", "oracle", "bench", "cli")
SUBCOMMANDS = ("validate", "run", "opt", "bench")
# Per-pass totals; every one is reported, as 0 where a layer is idle.
PASS_TOTALS = (
    *(f"{layer}.self_s" for layer in LAYERS),
    *(f"cli.main_s.{sub}" for sub in SUBCOMMANDS),
    "core.loads_s", "core.validate_s", "core.bytes", "threshold.eval_s",
    "threshold.eval_calls", "engine.run_s", "engine.to_dict_s", "engine.checks",
    "engine.slots", "engine.items", "engine.admitted", "engine.decline_value",
    "engine.decline_capacity", "engine.decline_ineligible", "oracle.nodes",
    "oracle.solve_exact_s", "oracle.proofs", "oracle.budget_exhausted",
    "oracle.bruteforce_s", "oracle.bruteforce_nodes", "oracle.upper_bound_s",
    "bench.suite_s", "cli.main_s",
)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus child spans and aggregated threshold evals."""
    child = {s.id: s.eval_s for s in spans}
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return {s.id: s.seconds - child[s.id] for s in spans}


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals for the spans of one traced pass."""
    own = self_times(spans)
    m = dict.fromkeys(PASS_TOTALS, 0.0)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        m[f"{layer}.self_s"] += own[s.id]
        m["threshold.self_s"] += s.eval_s
        m["threshold.eval_s"] += s.eval_s
        m["threshold.eval_calls"] += s.eval_calls
        a = s.attrs
        if s.name == "core.loads":
            m["core.loads_s"] += s.seconds
            m["core.bytes"] += a["bytes"]
        elif s.name == "core.validate":
            m["core.validate_s"] += s.seconds
        elif s.name == "engine.run":
            m["engine.run_s"] += s.seconds
            m["engine.slots"] += a["slots"]
            for k in ("checks", "items", "admitted", "decline_value",
                      "decline_capacity", "decline_ineligible"):
                m[f"engine.{k}"] += a[k]
        elif s.name == "engine.to_dict":
            m["engine.to_dict_s"] += s.seconds
        elif s.name == "oracle.solve_exact":
            m["oracle.solve_exact_s"] += s.seconds
            m["oracle.nodes"] += a["nodes"]
            if a["proof"] == "exact":
                m["oracle.proofs"] += 1
            else:
                m["oracle.budget_exhausted"] += 1
        elif s.name == "oracle.bruteforce":
            m["oracle.bruteforce_s"] += s.seconds
            m["oracle.bruteforce_nodes"] += a["nodes"]
        elif s.name == "oracle.upper_bound":
            m["oracle.upper_bound_s"] += s.seconds
        elif s.name == "bench.suite":
            m["bench.suite_s"] += s.seconds
        elif s.name == "cli.main":
            m["cli.main_s"] += s.seconds
            m[f"cli.main_s.{a['subcommand']}"] += s.seconds
    return m


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Median over traced passes of each per-pass total, plus derived ratios.

    Counts are deterministic per pass, so their median is their value.
    Solve-time percentiles pool every ``oracle.solve_exact`` span of every
    traced pass; ``oracle.solve_exact_samples`` is that pool's size.
    """
    by_pass: dict[int, list[Span]] = {}
    for s in spans:
        by_pass.setdefault(s.pass_id, []).append(s)
    per_pass = [pass_metrics(group) for group in by_pass.values()]
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    out["core.parse_mb_per_s"] = _ratio(out.pop("core.bytes"), out["core.loads_s"], 1e-6)
    out["engine.us_per_check"] = _ratio(out["engine.run_s"], out["engine.checks"], 1e6)
    out["engine.admit_frac"] = _ratio(out.pop("engine.admitted"), out.pop("engine.items"))
    out["oracle.us_per_node"] = _ratio(out["oracle.solve_exact_s"], out["oracle.nodes"], 1e6)
    solves = [s.seconds * 1e3 for s in spans if s.name == "oracle.solve_exact"]
    out["oracle.solve_exact_ms_p50"] = _percentile(solves, 50)
    out["oracle.solve_exact_ms_p90"] = _percentile(solves, 90)
    out["oracle.solve_exact_samples"] = float(len(solves))
    out["trace.self_sum_s"] = statistics.median(
        sum(v for k, v in p.items() if k.endswith(".self_s")) for p in per_pass
    )
    return out
