"""Print a fingerprint of every benchmark op of one checkout, one line each.

    python tests/fingerprints.py CHECKOUT SEED [WORKLOAD]

CHECKOUT is the root of a tcpkit tree (its ``src/`` and ``bench/`` are
used, nothing else).  The ops are those the benchmark builds from SEED
(``bench/workloads.build``): every ``stability-suite`` op of its 8 passes,
the first 200 ``membership-m3n2`` ops, the first 240 ``membership-n3`` ops
and the 8 ``cli-cold`` commands, or only those of WORKLOAD when it is
given.  Each line reads ``workload pass label fingerprint``, the last the
digest ``bench/workloads.fingerprint`` takes of the op's result, or
``error:<type>`` for an op that raised.  Two checkouts whose outputs are
meant to be unchanged print identical lines; compare with

    diff <(python tests/fingerprints.py OLD 2024) <(python tests/fingerprints.py NEW 2024)

or, for a change that touches one workload's path, diff that workload's
lines alone:

    diff <(python tests/fingerprints.py OLD 2024 stability-suite) \
         <(python tests/fingerprints.py NEW 2024 stability-suite)

It is a script, not a test: pytest does not collect it.
"""

from __future__ import annotations

import os
import sys

# workload -> ops read from the first passes
LIMITS = {"stability-suite": None, "membership-m3n2": 200, "membership-n3": 240,
          "cli-cold": None}


def lines(root: str, seed: int, names=tuple(LIMITS)):
    """The fingerprint lines of the workloads names of the checkout at
    root, in workload order."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import workloads

    for name, limit in LIMITS.items():
        if name not in names:
            continue
        wl = workloads.build(name, seed, root)
        left = limit
        for p, ops in enumerate(wl.passes):
            for op in ops[:left]:
                try:
                    digest = workloads.fingerprint(name, op.run(None))
                except Exception as e:  # an op that raises prints its error type
                    digest = f"error:{type(e).__name__}"
                yield f"{name} {p} {op.label} {digest}"
            if left is not None:
                left -= len(ops[:left])
                if not left:
                    break


def main(argv) -> int:
    if len(argv) not in (2, 3) or argv[2:] and argv[2] not in LIMITS:
        print("usage: python tests/fingerprints.py CHECKOUT SEED [WORKLOAD]\n"
              f"WORKLOAD is one of {', '.join(LIMITS)}", file=sys.stderr)
        return 2
    root, seed = os.path.abspath(argv[0]), int(argv[1])
    for line in lines(root, seed, argv[2:] or tuple(LIMITS)):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
