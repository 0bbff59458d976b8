"""Smoke tests of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from knapdep import cli, core, instances  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_output_schema(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        # Self times partition the traced pass.
        assert values["trace.self_sum_s"] == pytest.approx(values["trace.traced_wall_s"])


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "stream-dense", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny_outputs(name: str, tmp_path: Path):
    """Generate a tiny workload and run its calls once, as a pass would."""
    plan = workloads.build(name, seed=5, tiny=True)
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    out_dir.mkdir()
    generated = {}
    for rel, spec in plan.inputs.items():
        generated[rel] = instances.generate(spec)[0]
        path = in_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(core.dumps_instance(generated[rel]) + "\n")
    for call in plan.calls:
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(call.resolved(in_dir, out_dir)) == 0
    return plan, generated, out_dir


def _tamper(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _first_admitted(doc):
    return next(d for d in doc["decisions"] if d["admitted"])


@pytest.mark.parametrize(
    "name, output, edit",
    [
        ("stream-dense", "validate.json", lambda d: d.update(ok=False)),
        ("stream-dense", "run.json", lambda d: d.update(profit=d["profit"] + 1.0)),
        ("stream-dense", "run.json", lambda d: _first_admitted(d).update(knapsack=None)),
        ("stream-sparse", "run.json", lambda d: [x.update(knapsack=0) for x in d["decisions"]]),
        ("suite-proof", "bench-part0.json", lambda d: d["rows"][0].update(error="boom")),
        ("suite-proof", "bench-part0.json", lambda d: d["rows"][0].update(opt_tag="exact", ratio=0.5, infinite=False)),
        ("suite-proof", "bench-part0.json", lambda d: d["rows"].pop()),
        ("oracle-budget", "opt-uniform-n24-0.json", lambda d: d.update(bound=d["objective"] / 2)),
        ("oracle-budget", "opt-uniform-n24-0.json", lambda d: d.update(objective=d["objective"] + 1.0)),
    ],
)
def test_checks_catch_bad_outputs(tmp_path, name, output, edit):
    plan, generated, out_dir = _tiny_outputs(name, tmp_path)
    problems, _ = workloads.check_outputs(plan, generated, out_dir)
    assert not any(problems.values()), problems
    _tamper(out_dir / output, edit)
    problems, _ = workloads.check_outputs(plan, generated, out_dir)
    assert any(problems.values())
