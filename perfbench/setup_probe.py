"""Print the seconds taken to import ehpolicy and build one workload's objects.

    PYTHONPATH=src:perfbench python3 perfbench/setup_probe.py WORKLOAD SIZE

run.py starts this in a fresh interpreter for each set-up sample.
"""

import sys
import time

start = time.perf_counter()
import ehpolicy  # noqa: E402,F401  (the import is what is timed)
import workloads  # noqa: E402

workloads.setup(sys.argv[1], sys.argv[2])
print(repr(time.perf_counter() - start))
