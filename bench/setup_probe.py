"""One setup_s sample: seconds from before ``import fracfree`` until one
workload's inputs are ready, printed as the last line of stdout.

    python3 bench/setup_probe.py <workload> <seed> <out_dir>

run.py starts this in a fresh interpreter for every sample, with the same
thread pinning as the measured process.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

start = time.perf_counter()
import workloads  # noqa: E402  (imports fracfree and NumPy, inside the timing)

workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.WORKLOADS[workload][0](seed, out_dir)
print(time.perf_counter() - start)
