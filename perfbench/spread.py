"""Run one workload over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload lp-search --seeds 1-10

The spread is the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median; it should
stay below a third of the metric's bound in BENCHMARK.json.  Results are
also written to .perfbench/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        results.append({"seed": seed, "exit": done.returncode, "report": json.loads(lines[-2]), **result})
        print(f"seed {seed}: exit {done.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}", flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", f"spread-{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    if len(results) < 2:
        return 0
    steady = True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        s = spread(values) if statistics.median(values) else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and s >= bound / 3:
            flag, steady = "  <-- above a third of the bound", False
        print(f"{name:48s} median {statistics.median(values):.6g}  spread {s:.4f}  bound {bound}{flag}")
    return 0 if steady and all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
