"""Set-up time of one workload, measured in this fresh process.

Usage: python3 bench/setup_probe.py <workload> <params-json-file>

Times the import of ``fracdim2d`` and the construction of the workload's
sources (staircase seam checks included).  The seeded params are generated
by the caller beforehand, so their generation is not timed.  Prints one
JSON object ``{"setup_s": ...}``.
"""

import time

t0 = time.perf_counter()

import fracdim2d  # noqa: E402,F401  (the import is what is timed)

t_import = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from jobs import build_sources  # noqa: E402


def main() -> int:
    workload, params_path = sys.argv[1], sys.argv[2]
    with open(params_path) as fh:
        params = json.load(fh)
    t1 = time.perf_counter()
    build_sources(workload, params)
    t2 = time.perf_counter()
    print(json.dumps({"setup_s": (t_import - t0) + (t2 - t1), "import_s": t_import - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
