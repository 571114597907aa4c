"""Determinism and correctness check of the benchmark itself.

Usage (from the repository root):

    python3 perfbench/determinism.py [--seed N] [--workloads a,b]

For every workload: two traced runs (fresh processes) on one seed must give
identical per-layer counts and identical output digests, and an untraced run
must check every op correct (failed_ops_ratio = 0).  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gen import WORKLOADS  # noqa: E402

# ratios of two counts are exact too
EXACT_RATIOS = {
    "cones.contains_per_window_point",
    "modules.stage_reuse_ratio",
    "modules.geometric_terms_per_chain",
    "rings.ring_eq_per_compose",
}


def _run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced(workload: str, seed: int):
    result = _run(workload, seed, 1, 1)
    with gzip.open(os.path.join(HERE, "out", f"trace-{workload}-{seed}.json.gz"), "rt") as fh:
        digest = json.load(fh)["output_digest"]
    exact = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "B") or name in EXACT_RATIOS
    }
    return result, exact, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads.split(","):
        first, counts_a, digest_a = _traced(workload, args.seed)
        second, counts_b, digest_b = _traced(workload, args.seed)
        untraced = _run(workload, args.seed, 0, 5)
        diff = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
        failed = [r["failed"] for r in (first, second, untraced)]
        good = not diff and digest_a == digest_b and not any(failed)
        ok = ok and good
        print(
            f"{workload}: {'OK' if good else 'MISMATCH'}  {len(counts_a)} exact per-layer figures, "
            f"differing: {diff or 'none'}; digests {'equal' if digest_a == digest_b else 'differ'} "
            f"({digest_a[:16]}); failed ops traced/traced/untraced = {failed} "
            f"of {first['attempted']}/{second['attempted']}/{untraced['attempted']}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
