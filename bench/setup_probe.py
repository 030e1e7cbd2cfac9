"""Time one benchmark set-up in a fresh interpreter.

Usage: python bench/setup_probe.py <workload> <seed>

Imports tcpkit (tcpkit.cli for cli-cold), builds the workload's inputs, and
prints the seconds both took.
"""

import os
import sys
from time import perf_counter


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = perf_counter()
    if workload == "cli-cold":
        import tcpkit.cli  # noqa: F401
    else:
        import tcpkit  # noqa: F401
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    workloads.build(workload, seed, os.getcwd())
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
