"""Command-line entry point.

Subcommands: gen, validate, run, opt, bench, tune.  Machine output goes
to stdout or --out files; human-readable summaries go to stderr.  All
randomness is surfaced through --seed; nothing depends on time or
environment, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Optional, Sequence

# oracle and bench are imported in the handlers that use them, so that
# gen, validate and run start without them.
from . import instances, threshold
from .core import (
    Instance,
    KnapsackSpec,
    SchemaError,
    dumps_instance,
    loads_instance,
    validate_instance,
)
from .engine import run as engine_run

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class _FlagError(ValueError):
    """A flag value that cannot be read; ``main`` reports it as a usage error."""


def _read_instance(path: str) -> Instance:
    if path == "-":
        return loads_instance(sys.stdin.read())
    return loads_instance(Path(path).read_text())


def _emit(parts: Iterable[str], out: Optional[str]) -> None:
    """Write each of ``parts``, then one newline, to stdout or the ``out`` file.

    ``run`` passes its document as a generator of batches
    (``RunResult.json_parts``), so the document is written as it is formed
    and never held whole; every other command passes its one text.  The
    file is opened here, after the command has its result (for ``run``
    and ``validate``, after the input's last item), so a refused input
    writes nothing.
    """
    with nullcontext(sys.stdout) if out is None or out == "-" else open(out, "w") as f:
        f.writelines(parts)
        f.write("\n")


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _gamma_config(raw: str) -> dict:
    if raw == "auto":
        return {"kind": "exponential", "gamma": "auto"}
    try:
        return {"kind": "exponential", "gamma": float(raw)}
    except ValueError:
        raise _FlagError(f"--gamma must be a number or 'auto', got {raw!r}") from None


def _knapsack_specs(args: argparse.Namespace) -> tuple[KnapsackSpec, ...]:
    if not 1 <= args.alpha < math.inf:
        raise ValueError(f"alpha must be a finite number >= 1, got {args.alpha}")
    try:
        duration_hi = max(args.dlo, int(round(args.dlo * args.alpha)))
    except OverflowError:  # the product, or dlo itself, is past the largest float
        raise ValueError(f"dlo * alpha must be a finite number, got {args.dlo} * {args.alpha}") from None
    size_cap = args.eps if args.eps is not None else args.capacity
    spec = KnapsackSpec(
        capacity=args.capacity,
        theta=args.theta,
        duration_lo=args.dlo,
        duration_hi=duration_hi,
        size_cap=size_cap,
    )
    return tuple([spec] * args.k)


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family != "staircase" and (args.level is not None or args.levels is not None):
        raise _usage_error("--level and --levels apply only to --family staircase")
    spec = instances.GenSpec(
        family=args.family,
        n=args.n,
        horizon=args.t,
        knapsacks=_knapsack_specs(args),
        seed=args.seed,
        eligibility=args.eligibility,
    )
    generated = instances.generate(spec, levels=4 if args.levels is None else args.levels)
    if args.level is not None:
        if not 1 <= args.level <= len(generated):
            raise _usage_error(f"--level must be in [1, {len(generated)}]")
        generated = [generated[args.level - 1]]
    if len(generated) == 1:
        _emit([dumps_instance(generated[0])], args.out)
    else:
        if args.out is None:
            raise _usage_error(
                "staircase emits one instance per prefix; pass --out PREFIX "
                "or select one with --level"
            )
        for i, inst in enumerate(generated, start=1):
            path = Path(f"{args.out}_prefix{i}.json")
            path.write_text(dumps_instance(inst) + "\n")
            print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    from .stream import through_items  # only run and validate stream their input

    def validate(inst: Instance):
        gamma = None
        if args.gamma is not None:
            fns = threshold.for_instance(inst, _gamma_config(args.gamma))
            gamma = [fn.gamma for fn in fns]
        return validate_instance(inst, strict=args.strict, gamma=gamma)

    report = through_items(args.input, validate)
    _emit([json.dumps(report.to_dict(), indent=2)], args.out)
    for msg in report.errors:
        print(f"error: {msg}", file=sys.stderr)
    for msg in report.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_FAILURE


def _cmd_run(args: argparse.Namespace) -> int:
    from .stream import through_items

    def run(inst: Instance):
        return engine_run(inst, threshold.for_instance(inst, _gamma_config(args.gamma)))

    result = through_items(args.input, run)
    _emit(result.json_parts(), args.out)
    print(f"profit {result.profit!r} over {len(result.decisions)} items", file=sys.stderr)
    return EXIT_OK


def _cmd_opt(args: argparse.Namespace) -> int:
    from . import oracle

    if args.method != "exact" and args.node_budget is not None:
        raise _usage_error("--node-budget applies only to --method exact")
    inst = _read_instance(args.input)
    if args.method == "bruteforce":
        sol = oracle.solve_bruteforce(inst)
    else:
        budget = 5_000_000 if args.node_budget is None else args.node_budget
        sol = oracle.solve_exact(inst, node_budget=budget)
    _emit([json.dumps(sol.to_dict(), indent=2)], args.out)
    print(
        f"objective {sol.objective!r} ({sol.proof}, {sol.nodes} nodes)",
        file=sys.stderr,
    )
    return EXIT_OK


def _config_keys() -> tuple[frozenset[str], frozenset[str]]:
    """Keys of the --config file shared by bench and tune, and of its tuner.

    The file holds the bench settings, the suite, and the tuner settings
    under their own key.
    """
    from . import bench

    top = frozenset(f.name for f in fields(bench.BenchConfig)) | {"instances", "tuner"}
    return top, frozenset(f.name for f in fields(bench.TuneSpec))


def _read_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ValueError(f"config {path}: invalid JSON: {exc}") from exc
    config_keys, tuner_keys = _config_keys()
    _check_keys(cfg, config_keys, f"config {path}")
    _check_keys(cfg.get("tuner", {}), tuner_keys, f"config {path}, tuner")
    # The other values are checked by BenchConfig and TuneSpec, which
    # also check the flags layered over them.
    listed = cfg.get("instances", [])
    if not (isinstance(listed, list) and all(isinstance(p, str) for p in listed)):
        raise ValueError(f"config {path}: 'instances' must be an array of paths, got {listed!r}")
    return cfg


def _check_keys(obj: object, known: frozenset[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object")
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")


def _settings(cls: type, file_cfg: dict, args: argparse.Namespace, **flags: object):
    """A ``cls`` from flags, over config file values, over its defaults.

    A field's flag is its entry in ``flags``, else the ``args`` attribute
    of its name; None means the flag was not given.
    """
    values = {}
    for f in fields(cls):
        flag = flags.get(f.name, getattr(args, f.name, None))
        if flag is not None:
            values[f.name] = flag
        elif f.name in file_cfg:
            values[f.name] = file_cfg[f.name]
    return cls(**values)


def _load_suite(args: argparse.Namespace, file_cfg: dict) -> list[tuple[str, Instance]]:
    """The suite of bench and tune: each --input source, then each of the
    config's ``instances``, a directory giving its *.json files by name."""
    sources = list(args.input or []) + file_cfg.get("instances", [])
    if not sources:
        raise _usage_error("no instances: pass --input files/dirs or --config")
    suite = []
    for src in map(Path, sources):
        for p in sorted(src.glob("*.json")) if src.is_dir() else [src]:
            try:
                suite.append((p.name, loads_instance(p.read_text())))
            except ValueError as exc:  # SchemaError, or text that is not UTF-8
                raise SchemaError(f"{p}: {exc}") from exc
    if not suite:  # no instances: nothing to report or tune on, so no exit 0
        raise ValueError(f"no *.json instance files in {', '.join(sources)}")
    return suite


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import bench

    file_cfg = _read_config(args.config)
    gamma = None if args.gamma is None else _gamma_config(args.gamma)
    cfg = _settings(bench.BenchConfig, file_cfg, args, threshold=gamma)  # before the suite
    suite = _load_suite(args, file_cfg)
    report = bench.bench_suite(suite, cfg)
    if args.out:
        Path(f"{args.out}.csv").write_text(report.to_csv())
        Path(f"{args.out}.json").write_text(report.to_json() + "\n")
        print(f"wrote {args.out}.csv and {args.out}.json", file=sys.stderr)
    else:
        _emit([report.to_json()], None)
    cr = "inf" if report.cr_infinite else report.cr
    print(f"suite CR {cr} over {len(report.rows)} instances", file=sys.stderr)
    failed = [r for r in report.rows if r.error is not None]
    for r in failed:
        print(f"error: {r.instance_id}: {r.error}", file=sys.stderr)
    return EXIT_FAILURE if failed else EXIT_OK


def _cmd_tune(args: argparse.Namespace) -> int:
    from . import bench

    file_cfg = _read_config(args.config)
    spec = _settings(bench.TuneSpec, file_cfg.get("tuner", {}), args)  # before the suite
    suite = _load_suite(args, file_cfg)
    result = bench.tune_gamma([inst for _, inst in suite], spec)
    if args.out:
        Path(f"{args.out}.json").write_text(
            json.dumps(result.to_dict(), indent=2) + "\n"
        )
        Path(f"{args.out}.curve.csv").write_text(result.curve_csv())
        print(f"wrote {args.out}.json and {args.out}.curve.csv", file=sys.stderr)
    else:
        _emit([json.dumps(result.to_dict(), indent=2)], None)
    print(
        f"tuned multiplier {result.multiplier!r} "
        f"(gammas {[round(g, 6) for g in result.gammas]})",
        file=sys.stderr,
    )
    return EXIT_OK


# Built once: parse_args leaves the parser as it was, and building it is
# most of a small call's cost.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knapdep",
        description=(
            "Online knapsacks with departing items: generate instances, run "
            "the threshold engine, solve offline optima, and benchmark "
            "competitive ratios."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance (JSON to stdout/--out)")
    gen.add_argument("--family", choices=instances.FAMILIES, default="uniform")
    gen.add_argument("--n", type=int, default=20, help="item count")
    gen.add_argument("--k", type=int, default=1, help="knapsack count")
    gen.add_argument("--t", type=int, default=50, help="horizon (slots)")
    gen.add_argument("--capacity", type=float, default=10.0)
    gen.add_argument("--theta", type=float, default=4.0, help="max value density")
    gen.add_argument("--alpha", type=float, default=2.0, help="duration ratio")
    gen.add_argument("--dlo", type=int, default=1, help="min duration (slots)")
    gen.add_argument("--eps", type=float, default=None, help="size cap (default: capacity)")
    gen.add_argument("--eligibility", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--levels", type=int, default=None, help="staircase level count (default 4)")
    gen.add_argument("--level", type=int, default=None, help="emit one staircase prefix")
    gen.add_argument("--out", default=None)

    val = sub.add_parser("validate", help="check structure and declared bounds")
    val.add_argument("--input", default="-")
    val.add_argument("--strict", action="store_true")
    val.add_argument("--gamma", default=None, help="check the size precondition for this gamma")
    val.add_argument("--out", default=None)

    runp = sub.add_parser("run", help="run the online engine")
    runp.add_argument("--input", default="-")
    runp.add_argument("--gamma", default="auto")
    runp.add_argument("--out", default=None)

    opt = sub.add_parser("opt", help="solve the offline optimum")
    opt.add_argument("--input", default="-")
    opt.add_argument("--method", choices=("exact", "bruteforce"), default="exact")
    opt.add_argument("--node-budget", type=int, default=None,
                     help="branch-and-bound node budget (default 5000000)")
    opt.add_argument("--out", default=None)

    ben = sub.add_parser("bench", help="engine vs oracle over an instance suite")
    ben.add_argument("--input", nargs="*", default=None, help="instance files or dirs")
    ben.add_argument("--config", default=None, help="experiment config JSON")
    ben.add_argument("--gamma", default=None, help="number or 'auto' (default: config, else auto)")
    ben.add_argument("--exact-cutoff", type=int, default=None)
    ben.add_argument("--crosscheck-cutoff", type=int, default=None)
    ben.add_argument("--node-budget", type=int, default=None)
    ben.add_argument("--jobs", type=int, default=None)
    ben.add_argument("--out", default=None, help="write OUT.csv and OUT.json")

    tun = sub.add_parser("tune", help="grid-tune gamma inside the safety band")
    tun.add_argument("--input", nargs="*", default=None, help="training instances")
    tun.add_argument("--config", default=None)
    tun.add_argument("--delta", type=float, default=None, help="band half-width")
    tun.add_argument("--grid-points", type=int, default=None)
    tun.add_argument("--out", default=None, help="write OUT.json and OUT.curve.csv")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "validate": _cmd_validate,
        "run": _cmd_run,
        "opt": _cmd_opt,
        "bench": _cmd_bench,
        "tune": _cmd_tune,
    }
    try:
        return handlers[args.command](args)
    except SystemExit:
        raise
    except _FlagError as exc:
        raise _usage_error(str(exc)) from exc
    except (OSError, SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
