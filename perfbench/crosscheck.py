"""Cross-check a filtration op at spread 10 against the ROADMAP baseline.

Usage (from the repository root): python3 perfbench/crosscheck.py

Times `filtration` on the free module R + R(-(10,0)) over R1 (313 window
points), the row the ROADMAP baseline gives as 0.42 s, five times in
process, checks each output and prints the median.  The spread-filtration
workload stops at spread 6; this is its scaling point at spread 10.
"""

from __future__ import annotations

import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import gen  # noqa: E402
from run import OUT, run_op  # noqa: E402


def main() -> int:
    from gradedk0 import cli

    op = gen.free_module_op("R1", [(0, 0), (10, 0)], "filtration")
    os.makedirs(OUT, exist_ok=True)
    job = os.path.join(OUT, f"crosscheck-{os.getpid()}.json")
    times = []
    try:
        for _ in range(5):
            code, out, elapsed = run_op(cli, op, job)
            problems = check.check(op, code, out)
            if problems:
                print("FAILED:", problems)
                return 1
            times.append(elapsed)
    finally:
        os.remove(job)
    points = len(op.expect["quotients"])
    print(
        f"filtration R1, R + R(-(10,0)), {points} window points: median "
        f"{statistics.median(times):.3f} s over 5 runs (ROADMAP baseline 0.42 s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
