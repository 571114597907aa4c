"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--save FILE]

For every workload and seed this runs ``run.py --trace 0`` in a fresh process
with BENCHMARK.json's run_seconds, then prints per end-to-end metric the
median, the quartiles (statistics.quantiles(n=4)), the spread
(q3 - q1) / median and the ratio of that spread to the metric's bound.
--save writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--save")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, summary = {}, {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in _seeds(args.seeds):
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs[workload].append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}", flush=True)
        summary[workload] = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs[workload]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[workload][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(
                f"  {metric:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                f"spread {spread:6.4f}  spread/bound {spread / bound:5.2f}"
            )
    if args.save:
        env = {"python": platform.python_version(), "cpus": os.cpu_count(), "machine": platform.machine()}
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
