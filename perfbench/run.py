"""Benchmark for the MFBC stack: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mfbc-dist --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` instead wraps every layer's entry points, runs the same calls
untraced and traced, and reports the per-layer metrics plus the self-tests'
outcome.  Metric names and units come from ``BENCHMARK.json``.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it records the environment the numbers came from.  The
package is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: environment the program reads, pinned so ambient settings (a CI leg's
#: executor or checking level, say) cannot change what is measured
PINNED_ENV = {
    "REPRO_EXECUTOR": "serial",
    "REPRO_KERNEL": "auto",
    "REPRO_CHECK": "off",
    "REPRO_FAULTS": "none",
    "REPRO_ELASTIC": "off",
    "REPRO_MEMORY": "none",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CLEARED_ENV = ("REPRO_CHECK_DIR",)
#: spill segments (none are written unless memory is pressured) stay in
#: the checkout
SPILL_DIR = ROOT / ".bench_spill"

WORKLOAD_NAMES = ("mfbc-seq", "mfbc-dist", "adaptive-weighted-ca", "serve-mixed")


def source_identity() -> dict:
    """The commit when run from a git checkout, and always a digest of the
    package sources (an exported source tree has no git metadata)."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()[:16]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():  # e.g. benchmark files alone
        print(f"perfbench: no package at {SRC / 'repro'}; nothing to measure",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    os.environ["REPRO_SPILL_DIR"] = str(SPILL_DIR)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))

    import numpy
    import scipy

    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics, tally = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        [m["name"] for m in spec["per_layer"]],
    )
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    for problem in tally.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **source_identity(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_env": PINNED_ENV,
        "measured": tally.notes,
    }
    print("# env " + json.dumps(env, sort_keys=True))
    failed = tally.ops_failed + tally.tests_failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.ops + tally.tests,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
