"""The benchmark's rep-0 checks as a test: rep 0 of every workload in
``perfbench/workloads.py``, at its reference seed, must pass the
benchmark's own checks against ``perfbench/reference.json``, so a change
that moves seeded results fails here, not only in a benchmark run.

The reps run in a subprocess with BLAS on one thread, as ``perfbench/run.py``
runs them, since the stored rows are one-thread floats. Nothing is written.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = ["src", "perfbench"]
from levycdo.pricing import stcdo_value
from workloads import (REFERENCE_SEED, Checks, Workload, check_martingale,
                       check_oracle, load_reference)

checks = Checks()
for name, seed in REFERENCE_SEED.items():
    wl = Workload(name)
    res, rows = wl.rep(seed)
    if name == "tranche":
        closed = stcdo_value(wl.surface, 0.0, 0.0, wl.tranche,
                             wl.inputs["spread"])
        check_oracle(checks, 0, res, closed, rows, load_reference(name))
    else:
        check_martingale(checks, 0, res, rows, load_reference(name))
    print(name, "checked", flush=True)
print("attempted", checks.attempted)
for failure in checks.failures:
    print("FAILED", failure)
sys.exit(1 if checks.failures else 0)
"""


def test_benchmark_rep0_matches_its_stored_reference():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "attempted 8" in proc.stdout, proc.stdout
