#!/usr/bin/env python3
"""Benchmark for graphdenoise.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` of the checkout this
file lives in, and everything the run writes goes under ``.perfbench/`` at
the checkout's root. See ``harness.py`` for what a run measures. Exit code 0
means the last stdout line is the result; 2 means no result was printed.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def pin_blas_threads():
    """Run BLAS on one thread, as the library itself runs (threads=1).

    On a 2-vCPU host a second BLAS thread made every workload slower, not
    faster, while it doubled the CPU time that the run spent.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description="graphdenoise benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    pin_blas_threads()  # before numpy loads BLAS
    sys.path.insert(0, SRC)
    try:
        import graphdenoise
    except ImportError as exc:
        print(f"error: cannot import graphdenoise from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(graphdenoise.__file__).startswith(SRC + os.sep):
        print(f"error: graphdenoise was imported from {graphdenoise.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import harness
    return harness.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
