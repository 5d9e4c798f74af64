"""Benchmark entry point for subseg.

    python3 bench/run.py --workload hopkins-small --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) against the package in ``src/``
of the checkout this file sits in, prints every metric with its unit and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` replays the
pipeline layer by layer and reports the per-layer metrics.  ``--smoke``
shrinks every scene so a run takes seconds.

BLAS is capped at the number of usable cores and ``SUBSEG_THREADS`` is
removed from the environment before numpy is imported, so every run
measures the default vectorized solver under the same thread budget.
"""

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def cap_threads(environ):
    """Limit BLAS threads to the usable cores; drop SUBSEG_THREADS.

    Returns whether SUBSEG_THREADS was set on entry.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(environ[var])
        except (KeyError, ValueError):
            wanted = nproc
        environ[var] = str(max(1, min(wanted, nproc)))
    return environ.pop("SUBSEG_THREADS", None) is not None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenes and one cold start, for tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    subseg_threads_set = cap_threads(os.environ)
    sys.path.insert(0, str(SRC_DIR))
    try:
        import subseg
    except ImportError as exc:
        print(f"cannot import subseg from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    if not Path(subseg.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"subseg imported from {subseg.__file__}, not from {SRC_DIR}",
              file=sys.stderr)
        return 2
    import harness
    return harness.run(args, SRC_DIR, subseg_threads_set)


if __name__ == "__main__":
    sys.exit(main())
