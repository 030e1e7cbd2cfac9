"""Seeded workloads of the tcpkit benchmark.

A workload is a sequence of passes; a pass is a list of ops built from the
workload seed before timing starts.  An op is one ``q_membership`` call, one
stability probe call, or one CLI command.  ``Op.run`` looks every tcpkit
function up at call time, so a traced run sees the wrapped functions.

Building inputs uses only tcpkit's constructors (fixtures, the splitmix
stream, tensors, the orthant and ``TcpInstance``).  The CLI workload imports
no tcpkit code in the benchmark process at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

DEFAULT_SEED = 2024
M3N2_CASES = 200  # one criterion-3 corpus; the first pass at seed 2024 is it
M3N2_PASSES = 5
N3_CASES = 60
N3_PASSES = 4
STABILITY_PASSES = 8
CLI_TIMEOUT_S = 170

# Environment of every process the benchmark starts: one BLAS/OpenMP thread.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONSTARTUP", None)
    return env


@dataclass
class Op:
    """One benchmark operation.  ``run(tracer)`` performs it and returns the
    raw result; ``data`` keeps what the checks need to rebuild the input."""

    label: str
    run: Callable[[Any], Any]
    data: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    passes: list          # list of lists of Op
    stream: bool          # stop between any two ops (True) or between passes
    min_ops: int          # never stop before this many ops
    min_passes: int = 1   # whole-pass workloads: never stop before this many


# --- membership --------------------------------------------------------------

def _membership_op(case: int, A, q) -> Op:
    import tcpkit.compcones as cc

    def run(_tracer):
        return cc.q_membership(A, q)

    return Op(f"case-{case}", run, {"case": case, "dense": A.to_dense(), "q": q})


def m3n2_cases(seed: int, count: int):
    """(dense, q) pairs drawn exactly as criterion 3 draws them."""
    import numpy as np

    from tcpkit._rng import SplitMix64

    rng = SplitMix64(seed)
    for t in range(count):
        tr = rng.spawn(t + 1)
        dense = np.array([tr.uniform(-2.0, 2.0) for _ in range(8)]).reshape(2, 2, 2)
        q = np.array([tr.uniform(-2.0, 2.0) for _ in range(2)])
        yield dense, q


def build_m3n2(seed: int) -> Workload:
    from tcpkit.tensor import tensor_from_dense

    cases = list(m3n2_cases(seed, M3N2_CASES * M3N2_PASSES))
    passes = []
    for p in range(M3N2_PASSES):
        ops = []
        for t in range(p * M3N2_CASES, (p + 1) * M3N2_CASES):
            dense, q = cases[t]
            ops.append(_membership_op(t, tensor_from_dense(dense), q))
        passes.append(ops)
    return Workload("membership-m3n2", passes, stream=True, min_ops=M3N2_CASES)


def build_n3(seed: int) -> Workload:
    import numpy as np

    from tcpkit._rng import SplitMix64
    from tcpkit.fixtures import random_tensor

    rng = SplitMix64(seed)
    passes = []
    t = 0
    for p in range(N3_PASSES):
        ops = []
        for _ in range(N3_CASES):
            tr = rng.spawn(t + 1)
            A = random_tensor("general", 3, 3, seed=int(tr.next_u64() % 10**9))
            q = np.array([tr.uniform(-2.0, 2.0) for _ in range(3)])
            ops.append(_membership_op(t, A, q))
            t += 1
        passes.append(ops)
    return Workload("membership-n3", passes, stream=True, min_ops=11)


# --- stability ---------------------------------------------------------------

def stability_seeds(seed: int, p: int) -> list[int]:
    from tcpkit._rng import SplitMix64

    stream = SplitMix64(seed).spawn(p + 1)
    return [int(stream.next_u64() % 10**6) for _ in range(5)]


def build_stability(seed: int) -> Workload:
    """Criterion 7 on identity32 plus the two persistence probes.

    The criterion-7 probes keep its trial counts (50).  The openness probe
    runs 5 trials: at 50 it alone would take as long as the rest of a pass.
    """
    import numpy as np

    import tcpkit.stability as st
    from tcpkit import fixtures as fx
    from tcpkit.cones import orthant
    from tcpkit.solver import TcpInstance

    inst = TcpInstance(orthant(2), np.array([-1.0, -1.0]), fx.identity(3, 2))
    xbar = np.array([1.0, 1.0])
    e1, e4, q_e1 = fx.E1(), fx.E4(), np.array([1.0, -1.0])
    K2 = orthant(2)
    passes = []
    for p in range(STABILITY_PASSES):
        s_exist, s_eb, s_usc, s_unsolv, s_open = stability_seeds(seed, p)
        ops = [
            Op("local_uniqueness_certificate",
               lambda _t: st.local_uniqueness_certificate(inst, xbar)),
            Op("perturb_existence",
               lambda _t, s=s_exist: st.perturb_existence(inst, 1e-3, 50, seed=s)),
            Op("error_bound_probe/1e-3",
               lambda _t, s=s_eb: st.error_bound_probe(inst, xbar, 0.1, 1e-3, 50, s)),
            Op("error_bound_probe/1e-4",
               lambda _t, s=s_eb: st.error_bound_probe(inst, xbar, 0.1, 1e-4, 50, s)),
            Op("usc_probe",
               lambda _t, s=s_usc: st.usc_probe(inst, 1e-3, 50, seed=s)),
            Op("unsolvable_neighborhood_probe",
               lambda _t, s=s_unsolv: st.unsolvable_neighborhood_probe(
                   e1, q_e1, 1e-4, 30, seed=s)),
            Op("nonsingularity_openness_probe",
               lambda _t, s=s_open: st.nonsingularity_openness_probe(
                   K2, e4, 1e-3, 5, seed=s)),
        ]
        for op in ops:
            op.data["pass"] = p
        passes.append(ops)
    return Workload("stability-suite", passes, stream=False, min_ops=11,
                    min_passes=2)


# --- CLI ---------------------------------------------------------------------

def cli_commands(seed: int) -> list[list[str]]:
    """The criterion-9 command list with --seed values from the workload seed."""
    r = random.Random(seed)
    s_member, s_exist, s_usc = (r.randrange(1, 10**6) for _ in range(3))
    return [
        ["classify", "--fixture", "E1"],
        ["classify", "--fixture", "E4", "--principal"],
        ["solve", "--fixture", "E1", "--q=-1,-1", "--all"],
        ["membership", "--fixture", "E4", "--q=-0.5,-1", "--seed", str(s_member)],
        ["distance", "--cone1", "orthant2", "--cone2", "ray10", "--samples", "2000"],
        ["perturb", "existence", "--fixture", "identity32", "--q=-1,-1",
         "--eps", "1e-3", "--trials", "5", "--seed", str(s_exist)],
        ["perturb", "usc", "--fixture", "identity32", "--q=-1,-4",
         "--eps", "1e-3", "--trials", "5", "--seed", str(s_usc)],
        ["fixtures", "--name", "E2"],
    ]


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes


def _cli_op(root: str, argv: list[str]) -> Op:
    def run(tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "tcpkit.cli"] + argv
            env = child_env(root)
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py")] + argv
            env = child_env(root)
            env["TCPKIT_BENCH_TRACE_OUT"] = tracer.child_output_path()
        p = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                           timeout=CLI_TIMEOUT_S)
        return CliResult(p.returncode, p.stdout, p.stderr)

    return Op(" ".join(argv), run, {"argv": argv})


def build_cli(seed: int, root: str) -> Workload:
    """Every pass repeats the same commands; two passes at least, so each
    command's output can be compared across repetitions."""
    commands = cli_commands(seed)
    ops = [_cli_op(root, argv) for argv in commands]
    return Workload("cli-cold", [ops], stream=True, min_ops=2 * len(ops))


# --- registry ----------------------------------------------------------------

WORKLOADS = ("membership-m3n2", "membership-n3", "stability-suite", "cli-cold")


def build(name: str, seed: int, root: str) -> Workload:
    if name == "membership-m3n2":
        return build_m3n2(seed)
    if name == "membership-n3":
        return build_n3(seed)
    if name == "stability-suite":
        return build_stability(seed)
    if name == "cli-cold":
        return build_cli(seed, root)
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# --- outcomes ----------------------------------------------------------------

def outcome(name: str, op: Op, result) -> str:
    """Short verdict of one op, for the histogram and the unknown rate."""
    if name.startswith("membership"):
        return {True: "member", False: "non-member", None: "unknown"}[result.member]
    if name == "cli-cold":
        return {0: "exit-0", 3: "unknown"}.get(result.returncode,
                                             f"exit-{result.returncode}")
    label = op.label
    if label == "local_uniqueness_certificate":
        return "unknown" if result.status == "unknown" else f"uniqueness-{result.status}"
    if label == "perturb_existence":
        return f"existence-solvable-{result.solvable_fraction:g}"
    if label.startswith("error_bound_probe"):
        return f"error-bound-solvable-{result.solvable_fraction:g}"
    if label == "usc_probe":
        return f"usc-unsolved-{result['unsolved_trials']}"
    if label == "unsolvable_neighborhood_probe":
        return (f"unsolvable-{result['fraction_unsolvable']:g}"
                f"-unknown-{result['unknown_trials']}")
    return f"nonsingular-{result['fraction_nonsingular']:g}"


def fingerprint(name: str, result) -> str:
    """Digest of everything an op returned, to compare traced and untraced runs."""
    if name.startswith("membership"):
        payload = json.dumps(result.to_json(), sort_keys=True)
    elif name == "cli-cold":
        payload = f"{result.returncode}:" + result.stdout.decode("utf-8", "replace")
    else:
        payload = json.dumps(result if isinstance(result, dict) else result.to_json(),
                             sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
