"""Benchmark of the nsnet pipeline; see README.md in this directory.

    python3 nsbench/run.py --workload count_bp --seed 1 --seconds 25 --trace 0

runs one workload in this process and prints, as the last line of standard
output, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
traced run also writes its spans and their summary under ``nsbench/out/``.
It exits with code 2, printing no result, when the checkout's ``src/nsnet``
cannot be imported.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

# BLAS threads are fixed before numpy loads: one thread keeps the figures
# steady on a shared two-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# glibc raises its mmap threshold as large blocks are freed, so whether a
# temporary of a few hundred KiB is a fresh mapping (and pays page faults) or
# reuses heap memory depends on the process's history. That made the same
# work differ by up to 40% between processes. Setting the threshold pins it
# at glibc's start-up value of 128 KiB: every larger temporary is a fresh
# mapping, in every process and on every call.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 * 1024


def pin_mmap_threshold() -> int | None:
    """Fix glibc's mmap threshold; returns it, or None off glibc."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return MMAP_THRESHOLD if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 else None


HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("sat_nsnet_sls", "count_bp", "train_count")


def import_program() -> str | None:
    """Import ``nsnet`` from this checkout's ``src``, never from elsewhere;
    returns what went wrong, or None."""
    sys.path.insert(0, str(SRC))
    try:
        import nsnet
    except ImportError as exc:
        return f"nsbench: cannot import nsnet from {SRC}: {exc}"
    if Path(nsnet.__file__).resolve().parent.parent != SRC:
        return f"nsbench: nsnet was imported from {nsnet.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    mmap_threshold = pin_mmap_threshold()
    problem = import_program()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import json

    import bench
    import workloads

    cls, cfg = workloads.FULL[args.workload]
    result, info = bench.run(cls(cfg, args.seed), args.seconds, bool(args.trace), OUT)
    info["blas_threads"] = BLAS_THREADS
    info["mmap_threshold"] = mmap_threshold
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
