"""Timed passes of one workload's CLI calls, in an interpreter of their own.

``run.py`` starts this script with a JSON plan and reads back a JSON
result, so that the peak memory it reports belongs to the CLI work alone
and not to input generation or output checking.  Every call goes through
``knapdep.cli.main(argv)`` in this process.

    python3 perfbench/worker.py PLAN.json

Plan keys: ``src`` (directory holding the ``knapdep`` package), ``calls``
(list of ``{"label", "argv", "outputs"}``, output paths absolute),
``seconds`` (measuring time), ``trace`` (also run traced passes) and
``result`` (where to write the result).

Without tracing, fresh ``python -m knapdep.cli --help`` runs are timed
after every pass, so that start-up probes spread over the whole run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

# Passes timed at least, per mode, however short --seconds is.
MIN_PASSES = 3
STARTUP_PROBES_PER_PASS = 3


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _call(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}")
    return rc, err.getvalue()


def run_pass(cli, calls: list[dict], tracer=None, targets=None) -> dict:
    """One pass over every call; timed per call, outputs hashed after timing.

    Untraced calls are timed with host-speed sampling (see calibrate.py);
    traced calls are timed by their ``cli.main`` span alone, so that no
    sampling handler runs inside a span.
    """
    records = []
    for call in calls:
        argv = call["argv"]
        if tracer is None:
            (rc, err), timing = calibrate.timed(lambda: _call(cli, argv))
            seconds, normalized = timing["seconds"], timing["normalized"]
        else:
            with tracer.installed(targets):
                with tracer.span("cli.main", subcommand=argv[0]) as span:
                    rc, err = _call(cli, argv)
            seconds, normalized = span.seconds, None
            tracer.finish_deferred()
        try:
            digest = _digest(call["outputs"])
        except OSError as exc:
            digest = f"missing: {exc}"
        records.append(
            {"label": call["label"], "rc": rc, "seconds": seconds,
             "normalized": normalized, "digest": digest,
             "stderr": err[-2000:] if rc else ""}
        )
    return {"seconds": sum(r["seconds"] for r in records), "calls": records}


def startup_probe(src: str) -> dict:
    """Time one fresh ``python -m knapdep.cli --help``; records its exit code.

    The child runs on this process's CPU, so the reference is timed only
    around it (see ``calibrate.timed``).  No timeout: with one, the wait
    polls in sleeps of up to 50 ms, which would quantize the measurement.
    """
    env = dict(os.environ, PYTHONPATH=src)
    proc, timing = calibrate.timed(
        lambda: subprocess.run(
            [sys.executable, "-m", "knapdep.cli", "--help"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ),
        sample=False,
    )
    return dict(timing, rc=proc.returncode)


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB.

    ``VmHWM`` is the high-water mark of the memory map created at exec.
    ``ru_maxrss`` is not used: Linux carries the parent's resident size at
    fork into it, so it would report the benchmark's own set-up memory.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    from knapdep import cli

    import tracing

    calls = plan["calls"]
    tracer = tracing.Tracer() if plan["trace"] else None
    targets = tracing.cli_targets(tracer) if tracer else None
    passes = []
    startup = []

    def add(traced: bool, warmup: bool = False) -> None:
        if tracer is not None and traced:
            tracer.pass_id = len(passes)
        record = run_pass(cli, calls, tracer if traced else None, targets)
        record.update(traced=traced, warmup=warmup)
        passes.append(record)

    # One untimed pass first, so lazy imports and allocator growth are paid
    # before timing starts; its outputs are still checked.
    add(traced=False, warmup=True)
    modes = (False, True) if tracer is not None else (False,)
    deadline = perf_counter() + plan["seconds"]
    rounds = 0
    while rounds < MIN_PASSES or perf_counter() < deadline:
        for traced in modes:
            add(traced)
        if tracer is None:
            startup.extend(startup_probe(plan["src"]) for _ in range(STARTUP_PROBES_PER_PASS))
        rounds += 1

    result = {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb(),
        "startup": startup,
        "layers": tracing.layer_metrics(tracer.spans) if tracer else {},
        "spans": [s.to_dict() for s in tracer.spans] if tracer else [],
    }
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
