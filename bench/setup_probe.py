"""Time a fresh process's set-up for one workload and print it in seconds.

    python3 bench/setup_probe.py avg-random

Set-up is `import stabapprox` plus the workload's warm-up solves, the same
span bench/run.py times in its own process.
"""

import time

_T0 = time.perf_counter()

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports stabapprox)

workloads.WORKLOADS[sys.argv[1]].warm_up()
print(repr(time.perf_counter() - _T0))
