"""Run one workload of the taskmon benchmark and print its metrics.

    python3 perfbench/run.py --workload live_recover --seed 1 --seconds 12 --trace 0

Run it from anywhere inside a checkout: it imports taskmon from the
checkout's own src/ and nothing else. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. A failed output check prints the problems on standard error and exits
with code 1.
"""

import os

# One OpenBLAS thread. The library sizes its pool when numpy loads, so this
# must come before any import that loads numpy; the net's matrices are too
# small for threads to pay, and a second thread would share the two cores
# with the measured process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = _args(argv)
    src = ROOT / "src"
    if not (src / "taskmon" / "__init__.py").is_file():
        print(f"perfbench: no taskmon sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
