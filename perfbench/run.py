"""End-to-end and per-layer benchmark for convexcodes code classification.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload census4 --seed 1 --seconds 15 --trace 0

Workloads: census4, search7, spheres (see README.md).  The package is
imported from ``src`` of the checkout this file sits in.  A checkout
without it, or without ``tests/oracles.py`` (the independent reference the
probes use), exits with status 2 and prints no result.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "convexcodes"


def prepare() -> None:
    """Check the checkout and put its ``src`` first on the import path."""
    for required in (PACKAGE / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not required.is_file():
            print(f"perfbench: {required} is missing; run from a source checkout",
                  file=sys.stderr)
            sys.exit(2)
    # numpy's BLAS would start a thread pool; each workload runs on one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import convexcodes

    if Path(convexcodes.__file__).resolve().parent != PACKAGE:
        print(f"perfbench: imported convexcodes from {convexcodes.__file__}, "
              f"not from {PACKAGE}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    prepare()
    import bench

    bench.main()
