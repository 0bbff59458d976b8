"""knapdep benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload stream-dense --seed 1 --seconds 18 --trace 0

Run from the repository root.  Steps:

1. Set-up: generate the workload's instances from ``--seed`` and serialize
   them (``instances.generate`` + ``core.dumps_instance``) several times;
   ``setup_s`` is the median.  Then write the files once.
2. Start ``worker.py``, which runs passes of the workload's CLI calls
   through ``knapdep.cli.main`` for ``--seconds`` and reports pass times and
   its own peak memory.  With ``--trace 0`` it also times fresh
   ``python -m knapdep.cli --help`` runs between passes.  With ``--trace 1``
   it alternates untraced and traced passes and reports per-layer metrics,
   medians over the traced passes.
3. Check every call's outputs (see ``workloads.check_outputs``), count
   failed calls, and print one line per metric, then a JSON summary as the
   last line of standard output.

Metric names, units and directions come from ``BENCHMARK.json`` at the
repository root.  A JSON record of the run (metrics, environment, every
pass) and, when traced, a spans file are written under ``.perfbench/``.
The program is imported from ``src/`` of the same checkout, never from an
installed copy; without it, or without ``BENCHMARK.json``, the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Set-up is repeated at least SETUP_REPS times and until SETUP_SECONDS have
# passed, so short set-ups still yield a steady median.
SETUP_REPS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPS = 100
CHILD_TIMEOUT_S = 150


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Import ``knapdep`` from this checkout's ``src/``; exit 2 if absent."""
    sys.path.insert(0, str(SRC))
    try:
        import knapdep
    except ImportError as exc:
        _die(f"cannot import knapdep from {SRC}: {exc}")
    if Path(knapdep.__file__).resolve().parent.parent != SRC:
        _die(f"knapdep resolved to {knapdep.__file__}, not {SRC}")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """HEAD's commit read from ``.git`` without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


def setup(plan, in_dir: Path, tracer=None) -> tuple[list[dict], dict, bool]:
    """Generate and serialize the inputs repeatedly, then write them once.

    Only generation and serialization are timed: writing a few kilobytes to
    many small files costs what the file system of the moment charges,
    which moved the median by a third between runs of the same code.
    Returns the raw and normalized time of each repetition, the instances
    by file name, and whether every repetition produced the same bytes.
    """
    from knapdep import core, instances

    import tracing

    reps: list[dict] = []
    first: dict[str, str] = {}
    texts: dict[str, str] = {}
    same = True
    generated = {}
    targets = tracing.setup_targets(tracer) if tracer else []

    def make_inputs() -> None:
        for rel, spec in plan.inputs.items():
            generated[rel] = instances.generate(spec)[0]
            texts[rel] = core.dumps_instance(generated[rel]) + "\n"

    while len(reps) < SETUP_REPS or (
        sum(r["seconds"] for r in reps) < SETUP_SECONDS and len(reps) < SETUP_MAX_REPS
    ):
        if tracer is not None:
            tracer.pass_id = f"setup-{len(reps)}"
        with tracer.installed(targets) if tracer else contextlib.nullcontext():
            reps.append(calibrate.timed(make_inputs)[1])
        if not first:
            first = dict(texts)
        same = same and texts == first
    for rel, text in texts.items():
        path = in_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return reps, generated, same


def run_worker(plan, in_dir: Path, out_dir: Path, seconds: float, trace: bool) -> dict:
    spec = {
        "src": str(SRC),
        "seconds": seconds,
        "trace": trace,
        "result": str(WORK / "worker-result.json"),
        "calls": [
            {
                "label": c.label,
                "argv": c.resolved(in_dir, out_dir),
                "outputs": [str(out_dir / o) for o in c.outputs],
            }
            for c in plan.calls
        ],
    }
    plan_path = WORK / "worker-plan.json"
    plan_path.write_text(json.dumps(spec))
    log = WORK / "worker.log"
    with open(log, "w") as log_file:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path)],
            cwd=ROOT, stdout=log_file, stderr=subprocess.STDOUT,
            timeout=CHILD_TIMEOUT_S,
        )
    if proc.returncode != 0:
        sys.stderr.write(log.read_text()[-4000:])
        _die(f"worker exited with status {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text())


def count_failures(worker: dict, problems: dict[str, list[str]]) -> tuple[int, int, list[str]]:
    """Attempted and failed CLI calls over every pass, with the reasons.

    The checks read the last pass's outputs; every other pass must have
    written the same bytes, exit 0 and produced outputs that pass the checks.
    """
    final = {r["label"]: r["digest"] for r in worker["passes"][-1]["calls"]}
    attempted = failed = 0
    reasons: list[str] = []
    for i, p in enumerate(worker["passes"]):
        for r in p["calls"]:
            attempted += 1
            why = []
            if r["rc"] != 0:
                why.append(f"exit {r['rc']}: {r['stderr'].strip()[-300:]}")
            if r["digest"] != final[r["label"]]:
                why.append("output differs from the last pass")
            why.extend(problems.get(r["label"], []))
            if why:
                failed += 1
                reasons.append(f"pass {i} {r['label']}: {'; '.join(why)[:500]}")
    return attempted, failed, reasons


def _items(plan, generated: dict) -> int:
    return sum(generated[f].num_items for c in plan.calls for f in c.reads)


def _timed(passes: list[dict], traced: bool) -> list[dict]:
    return [p for p in passes if p["traced"] == traced and not p["warmup"]]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    _import_program()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _die(f"{spec_path} is missing")
    bench_spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    trace = bool(args.trace)
    # One CPU for the benchmark and every process it starts, so that the
    # reference task samples the speed of the CPU the measured work runs on.
    cpu = min(os.sched_getaffinity(0))
    env = environment(args.seed)
    os.sched_setaffinity(0, {cpu})
    env["pinned_cpu"] = cpu
    plan = workloads.build(args.workload, args.seed, tiny=args.tiny)

    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir, out_dir = run_dir / "in", run_dir / "out"
    in_dir.mkdir(parents=True)
    out_dir.mkdir()

    setup_tracer = tracing.Tracer() if trace else None
    setup_s, generated, setup_same = setup(plan, in_dir, setup_tracer)
    worker = run_worker(plan, in_dir, out_dir, args.seconds, trace)
    startup_s = worker["startup"]
    problems, quality = workloads.check_outputs(plan, generated, out_dir)
    attempted, failed, reasons = count_failures(worker, problems)
    attempted += len(setup_s) + len(startup_s)
    for probe in startup_s:
        if probe["rc"] != 0:
            failed += 1
            reasons.append(f"start-up probe exited {probe['rc']}")
    if not setup_same:
        failed += 1
        reasons.append("set-up repetitions produced different bytes")
    env["loadavg_after"] = list(os.getloadavg())

    # End-to-end times are at nominal host speed (see calibrate.py): the
    # median over passes of each call's normalized time, summed over calls.
    # Raw times stay in the record.
    timed = _timed(worker["passes"], False)
    untraced = [p["seconds"] for p in timed]
    per_call: dict[str, list[float]] = {}
    for p in timed:
        for c in p["calls"]:
            per_call.setdefault(c["label"], []).append(c["normalized"])
    wall_s = sum(_median(v) for v in per_call.values())
    items = _items(plan, generated)
    values = {
        "setup_s": _median(r["normalized"] for r in setup_s),
        "wall_s": wall_s,
        "items_per_s": items / wall_s,
        "startup_s": _median(r["normalized"] for r in startup_s),
        "peak_rss_mb": worker["peak_rss_mb"],
        "fail_frac": failed / attempted,
        "proven_frac": quality.get("proven_frac"),
        "bound_gap": quality.get("bound_gap"),
    }
    if trace:
        traced = _timed(worker["passes"], True)
        layers = dict(worker["layers"])
        by_rep: dict = {}
        for s in setup_tracer.spans:
            by_rep.setdefault(s.pass_id, {}).setdefault(s.name, 0.0)
            by_rep[s.pass_id][s.name] += s.seconds
        layers["instances.generate_s"] = _median(r.get("instances.generate", 0.0) for r in by_rep.values())
        layers["core.dumps_s"] = _median(r.get("core.dumps", 0.0) for r in by_rep.values())
        layers["bench.proven_frac"] = quality.get("proven_frac", 0.0)
        layers["oracle.bound_gap"] = quality.get("bound_gap", 0.0)
        # Untraced and traced passes alternate, so their raw medians see
        # the same mix of host phases; per-layer figures are raw medians too.
        layers["trace.untraced_wall_s"] = _median(untraced)
        layers["trace.traced_wall_s"] = _median(p["seconds"] for p in traced)
        layers["trace.overhead_s"] = (
            layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
        )
        values.update(layers)
    listed = bench_spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": trace,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "values": values,
        "setup_s": setup_s,
        "startup_s": startup_s,
        "passes": [
            {
                "seconds": p["seconds"],
                "traced": p["traced"],
                "warmup": p["warmup"],
                "calls": {
                    c["label"]: {"seconds": c["seconds"], "normalized": c["normalized"]}
                    for c in p["calls"]
                },
            }
            for p in worker["passes"]
        ],
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if trace:
        spans = [s.to_dict() for s in setup_tracer.spans] + worker["spans"]
        (results_dir / f"{tag}.spans.json").write_text(json.dumps(spans))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    for reason in reasons[:20]:
        print(f"# FAILED {reason}")
    for m in listed:
        print(f"{m['name']:32s} {values[m['name']]:>14.6g} {m['unit']:8s} ({m['better']} is better)")
    for name in ("fail_frac", "proven_frac", "bound_gap"):
        if values[name] is not None:
            print(f"{name:32s} {values[name]:>14.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
