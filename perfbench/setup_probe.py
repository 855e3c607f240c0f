"""Times one set-up of a workload in a fresh interpreter: importing hacx,
envsim.load_spec and harness.build_agent (which includes the novelty
calibration when the config asks for it). Prints the seconds.

    python3 perfbench/setup_probe.py WORKLOAD GEOMETRY_FILE
"""

import sys
import time

t0 = time.perf_counter()
import numpy as np  # noqa: E402  (imports are part of what is timed)
from hacx import envsim, harness  # noqa: E402

import workloads  # noqa: E402

cfg = workloads.workload_config(sys.argv[1], sys.argv[2], 1, (0,))
spec = envsim.load_spec(cfg.env)
harness.build_agent(cfg, spec, np.random.default_rng(0))
print(repr(time.perf_counter() - t0))
