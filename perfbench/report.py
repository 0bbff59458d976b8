"""Run every workload of BENCHMARK.json once and print all metrics as a table.

    python3 perfbench/report.py --seed 1 [--seconds 18] [--trace 1]

Each workload runs in its own ``run.py`` process, one after another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    listed = spec["per_layer" if args.trace else "end_to_end"]
    results = {}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results)
    print(f"{'metric':30s} {'unit':9s}" + "".join(f"{n:>15s}" for n in names))
    for m in listed:
        cells = "".join(f"{results[n]['metrics'][m['name']]['value']:>15.6g}" for n in names)
        print(f"{m['name']:30s} {m['unit']:9s}{cells}")
    for key in ("correct", "attempted", "failed"):
        print(f"{key:30s} {'':9s}" + "".join(f"{str(results[n][key]):>15s}" for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
