"""Rewrite reference.json: each workload's rep 0 at its reference seed.

    python3 perfbench/make_reference.py

Run from the root of a checkout. Only rerun it when a change to the
package is meant to change seeded Monte Carlo results; say so and why
wherever the change is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run  # noqa: F401  one BLAS thread, set before numpy is imported

sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import (  # noqa: E402
    N_PATHS, REFERENCE_FILE, REFERENCE_SEED, THREADS, Workload)


def main() -> int:
    out = {}
    for name, seed in REFERENCE_SEED.items():
        wl = Workload(name)
        _, rows = wl.rep(seed)
        out[name] = {"seed": seed, "n_paths": N_PATHS, "threads": THREADS,
                     **rows}
        print(name, "done", file=sys.stderr)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
