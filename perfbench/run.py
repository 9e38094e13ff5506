"""Benchmark of the levycdo package: one workload per call, or all of them.

    python3 perfbench/run.py --workload jump_loss --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout: it imports the package from ``src/``
there and nowhere else. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. Each run also writes ``perfbench/results/BENCH_<workload>
[_trace].json`` with the run metadata, and a traced run writes its spans to
``perfbench/results/spans_<workload>.npz``. See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

# Every workload runs on one thread, BLAS included: by default OpenBLAS
# splits the report assembly's matrix products over every CPU, which on a
# shared machine makes `every_node` both slower and far noisier. Set
# before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
ALL = ("jump_loss", "every_node", "tranche")


def _git_commit(root: Path):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _package_version(root: Path):
    import tomllib
    try:
        with open(root / "pyproject.toml", "rb") as fh:
            return tomllib.load(fh)["project"]["version"]
    except (OSError, KeyError):
        return None


def run_metadata(root: Path) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "levycdo").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "package_version": _package_version(root),
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
    }


def run_one(args, root: Path) -> int:
    from workloads import run_workload

    RESULTS.mkdir(exist_ok=True)
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), RESULTS)
    checks = res["checks"]
    failed = len(checks.failures)
    record = {
        "run": run_metadata(root),
        **res["meta"],
        "trace": bool(args.trace),
        "attempted": checks.attempted,
        "failed": failed,
        "fail_ratio": failed / checks.attempted,
        "failures": checks.failures,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()},
        "notes": [
            "manifest_lane is what run_martingale_test writes: the requested "
            "lane, usually 'auto' (known defect); resolved_lane comes from "
            "coeffs.b_x_flat",
        ],
    }
    suffix = "_trace" if args.trace else ""
    with open(RESULTS / f"BENCH_{args.workload}{suffix}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    for k, m in record["metrics"].items():
        print(f"{args.workload:14s} {k:28s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:14s} {'fail_ratio':28s} {record['fail_ratio']:.6g}"
          f" ({failed}/{checks.attempted})")
    # The result line carries exactly the metrics BENCHMARK.json declares
    # for this mode; the others are printed above and kept in the record.
    with open(root / "BENCHMARK.json") as fh:
        declared = [m["name"] for m in
                    json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    missing = [k for k in declared if k not in record["metrics"]]
    if missing:
        raise KeyError(f"declared metrics not measured: {missing}")
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed,
                      "metrics": {k: record["metrics"][k] for k in declared}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced and then traced."""
    summary = {}
    for name in ALL:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {trace}) exited with "
                      f"{proc.returncode}", file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]))
            summary[(name, trace)] = json.loads(lines[-1])
    print()
    print(f"{'workload':14s} {'fail_ratio':>12s} {'paths/s':>12s} "
          f"{'traced':>12s} {'tracing overhead':>18s}")
    total = failed = 0
    for name in ALL:
        plain, traced = summary[(name, 0)], summary[(name, 1)]
        a = plain["attempted"] + traced["attempted"]
        f = plain["failed"] + traced["failed"]
        total, failed = total + a, failed + f
        untr = plain["metrics"]["paths_per_s"]["value"]
        tr = traced["metrics"]["trace.paths_per_s"]["value"]
        print(f"{name:14s} {f / a:12.4g} {untr:12.6g} {tr:12.6g} "
              f"{untr - tr:10.4g} ({(untr - tr) / untr:+.1%})")
    print(json.dumps({"correct": failed == 0, "attempted": total,
                      "failed": failed,
                      "metrics": {f"{n}/{k}": v for (n, t), s in
                                  summary.items() for k, v in
                                  s["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=ALL + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    src = root / "src"
    if not (src / "levycdo" / "engine.py").is_file():
        print(f"no levycdo sources under {src}: run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args, root)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
