"""Set-up probe: a fresh process imports bchyper and runs one first case.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from process start of this script to the end of
the first case of the workload's stream.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports bchyper)

case = next(WORKLOADS[sys.argv[1]].cases(int(sys.argv[2])))
case.run()
print(time.perf_counter() - START)
