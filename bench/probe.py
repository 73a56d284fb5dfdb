"""Set-up probe: import mekit in this fresh interpreter and build one
workload's channels; print the seconds that took.

    python3 bench/probe.py WORKLOAD SEED    (from the repository root, with
                                             src/ on PYTHONPATH)

``cli`` measures the import alone.  ``run.py`` runs this several times per
run and reports the median as ``setup_s``.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

import mekit  # noqa: E402,F401
import inputs  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
inputs.setup_channels(workload, inputs.make(workload, seed))
print(repr(time.perf_counter() - t0))
