"""Run one tcpkit CLI command with the benchmark's tracing installed.

Usage: python bench/traced_cli.py <tcpkit cli arguments...>

The CLI's stdout and exit code are unchanged.  Spans and counts go to the
.npz path in the TCPKIT_BENCH_TRACE_OUT environment variable.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tcpkit.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    out = os.environ["TCPKIT_BENCH_TRACE_OUT"]
    tracer = Tracer(os.path.dirname(out))
    tracer.install()
    try:
        code = tracer.op(tcpkit.cli.main, sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
