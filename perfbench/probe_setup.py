"""Time a fresh interpreter's set-up for one workload, then exit.

Usage: python3 perfbench/probe_setup.py <src dir> <run file> <seed>

Set-up is everything before the first time step: importing snse (numpy and
scipy included), loading the run file (which builds the kernel grid by
quadrature) and building the basis tables.  The last line of output is a
JSON object whose ``ready_s`` is time.perf_counter() when set-up ended; on
Linux that clock is system-wide, so the parent can subtract the moment it
started this process.
"""

import json
import sys
import time

t_start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import snse  # noqa: E402

t_import = time.perf_counter()
run = snse.load_config(sys.argv[2], seed=int(sys.argv[3]))
t_load = time.perf_counter()
run.experiment.basis.synthesis_matrix()
t_ready = time.perf_counter()
print(json.dumps({"ready_s": t_ready, "import_s": t_import - t_start,
                  "load_s": t_load - t_import, "tables_s": t_ready - t_load}))
