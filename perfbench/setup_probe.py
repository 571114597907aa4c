"""Cold start of one CLI invocation, timed from outside by run.py.

Usage: python3 setup_probe.py SRC_DIR JOB_FILE...

Imports gradedk0.cli from SRC_DIR and builds the ring of every job file:
facets, the order witness (pointedness) and the interior vector.
"""

import sys

sys.path.insert(0, sys.argv[1])

import gradedk0.cli  # noqa: E402,F401
from gradedk0.jobspec import build_ring, parse_job  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        ring = build_ring(parse_job(fh.read(), build=False))
    ring.cone.interior_vector()
