"""One benchmark set-up: interpreter start, import, task list, first point.

run.py starts this as ``python3 bench/setup_probe.py WORKLOAD SEED`` several
times and reports the median wall time as ``setup_s``.  The first point
fills the lazy tanh-sinh node cache, which every later point relies on.
"""

import sys

from run import import_program

import_program()

import workloads  # noqa: E402
from wrightlab.verify import evaluate_point  # noqa: E402

first = next(workloads.passes(sys.argv[1], int(sys.argv[2])))[0]
sys.exit(0 if evaluate_point(*first)["status"] in ("pass", "skipped-domain") else 1)
