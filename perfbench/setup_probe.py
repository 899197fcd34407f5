"""Time one workload set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <workdir>`` from
the root of a checkout.  Prints one JSON line with ``import_s`` (``import
wlns``) and ``setup_s`` (import plus the workload's ``setup``), both
measured from before the import; interpreter start-up is not counted.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import wlns  # noqa: E402

T1 = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    if not os.path.abspath(wlns.__file__).startswith(SRC + os.sep):
        print(f"error: imported wlns from {wlns.__file__}, not {SRC}", file=sys.stderr)
        return 2
    name, seed, workdir = argv[1], int(argv[2]), argv[3]
    WORKLOADS[name].setup(seed, workdir)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": T1 - T0, "setup_s": t2 - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
