#!/usr/bin/env python3
"""qclattice benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload code-example1 --seed 0 --seconds 25 --trace 0

The program under test is always the ``src/qclattice`` next to this
directory, never an installed copy; without it the benchmark exits with
code 2 and prints no result.  BLAS is pinned to one thread before numpy is
imported.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("code-example1", "lattice-wimax1152", "distance-wimax1152")


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=_non_negative)
    ap.add_argument("--seconds", required=True, type=_positive,
                    help="length of the timed phase")
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1),
                    help="0: end-to-end metrics; 1: per-layer metrics")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every operation (smoke test only)")
    return ap.parse_args(argv)


def prepare() -> bool:
    """Pin BLAS to one thread and put this checkout's src/ first on sys.path.

    One thread ran example1 sweeps faster than two on a 2-core machine and
    keeps the timed call on one core.
    """
    if not (SRC / "qclattice" / "__init__.py").is_file():
        print(f"perfbench: no qclattice sources under {SRC}", file=sys.stderr)
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2
    import bench  # imports numpy and qclattice, so only after prepare()

    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
