"""Acceptance gate: one test per criterion, one pass/fail line each.

The lines are printed in the pytest terminal summary (see conftest); every
criterion also asserts, so a FAIL line always comes with a failing test.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import tcpkit as tk
from tcpkit import fixtures as fx
from tcpkit._rng import SplitMix64
from tcpkit.cones import delta_metric, dual, from_generators, orthant
from tcpkit.solver import TcpInstance, residual, solve_enumerate
from tcpkit.tensor import (
    IndexSet,
    apply_m1,
    apply_m2,
    apply_off,
    frobenius_distance,
    power_vec,
    principal_subtensor,
    tensor_from_dense,
    unit_tensor,
)

from conftest import CRITERIA_RESULTS, fd_jacobian
from exact_oracle import exact_membership
from oracle import MEMBER, UNKNOWN, grid_tcp_oracle


def record(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    CRITERIA_RESULTS.append(f"CRITERION {num} [{desc}]: {status}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def check(failures, cond, msg):
    if not cond:
        failures.append(msg)


def test_criterion_1_fixture_classification():
    t0 = time.time()
    f = []
    e1, e2, e3, e4 = fx.E1(), fx.E2(), fx.E3_bar(), fx.E4()
    K = orthant(2)

    check(f, tk.is_copositive(e1).status == "holds", "E1 copositive")
    v = tk.is_strictly_copositive(e1)
    check(f, v.status == "fails", "E1 strictly copositive must fail")
    check(f, min(abs(v.witness)) <= 1e-9, "E1 strict witness on an axis")
    check(f, tk.is_K_nonsingular(e1, K).status == "holds", "E1 nonsingular")

    v = tk.is_K_nonsingular(e2, K)
    check(f, v.status == "fails", "E2 singular")
    check(f, np.linalg.norm(apply_m1(e2, v.witness)) <= 1e-9,
          "E2 witness re-check")
    check(f, np.linalg.norm(apply_m1(e2, [1.0, 0.0])) == 0.0,
          "E2 singular at (1,0)")

    check(f, tk.is_K_nonsingular(e3, K).status == "fails", "E3 matrix singular")

    check(f, tk.is_copositive(e4).status == "holds", "E4 copositive")
    v = tk.is_strictly_copositive(e4)
    check(f, v.status == "fails", "E4 strictly copositive must fail")
    check(f, np.allclose(v.witness, [1, 1] / np.sqrt(2), atol=1e-6),
          "E4 strict witness is the diagonal direction")
    check(f, tk.all_principal_nonsingular(e4).status == "holds",
          "E4 principal sweep")

    elapsed = time.time() - t0
    check(f, elapsed < 5.0, f"runtime {elapsed:.1f}s >= 5s")
    record(1, "example-fixture classification", f)


def test_criterion_2_complementary_identities():
    f = []
    rng = SplitMix64(99)
    cases = list(itertools.product([2, 3, 4], [2, 3]))
    for i in range(50):
        m, n = cases[i % len(cases)]
        A = fx.random_tensor("general", m, n, seed=int(rng.next_u64() % 10**9))
        C0 = tk.complementary_tensor(A, ())
        check(f, dict(C0.entries) == dict(unit_tensor(m, n).entries),
              f"C(empty) != I at case {i}")
        Cfull = tk.complementary_tensor(A, tuple(range(1, n + 1)))
        check(f, dict(Cfull.entries) == {k: -v for k, v in A.entries.items()},
              f"C(full) != -A at case {i}")
        for r in range(1, n):
            for alpha in itertools.combinations(range(1, n + 1), r):
                iset = IndexSet(alpha, n)
                C = tk.complementary_tensor(A, iset)
                u = np.array([0.2 + 0.4 * j for j in range(n)])
                out = apply_m1(C, u)
                ua = u[[j - 1 for j in alpha]]
                comp = iset.complement
                exp = np.zeros(n)
                exp[[j - 1 for j in alpha]] = -apply_m1(
                    principal_subtensor(A, iset), ua)
                exp[[j - 1 for j in comp]] = (
                    -apply_off(A, iset, ua)
                    + power_vec(u[[j - 1 for j in comp]], m - 1))
                check(f, np.allclose(out, exp, atol=1e-12),
                      f"block formula off at case {i}, alpha {alpha}")
        if f:
            break
    record(2, "complementary-tensor identities", f)


def test_criterion_3_decomposition_equivalence():
    t0 = time.time()
    f = []
    rng = SplitMix64(2024)
    agree = disagree = unknown = 0
    exact, exact_disagree = {True: 0, False: 0, None: 0}, 0
    lib_s = oracle_s = 0.0
    for t in range(200):
        tr = rng.spawn(t + 1)
        dense = np.array([tr.uniform(-2.0, 2.0)
                          for _ in range(8)]).reshape(2, 2, 2)
        q = np.array([tr.uniform(-2.0, 2.0) for _ in range(2)])
        t1 = time.perf_counter()
        res = tk.q_membership(tensor_from_dense(dense), q)
        t2 = time.perf_counter()
        verdict, _ = grid_tcp_oracle(dense, q)
        lib_s += t2 - t1
        oracle_s += time.perf_counter() - t2
        truth = exact_membership(dense, q)
        exact[truth] += 1
        if truth is not None:
            exact_disagree += res.member not in (None, truth)
            exact_disagree += verdict != UNKNOWN and (verdict == MEMBER) != truth
        if res.member is None or verdict == UNKNOWN:
            unknown += 1
        elif res.member == (verdict == MEMBER):
            agree += 1
        else:
            disagree += 1
    elapsed = time.time() - t0
    check(f, disagree == 0, f"{disagree} disagreements")
    check(f, unknown <= 20, f"unknown rate {unknown}/200 > 10%")
    check(f, elapsed < 300.0, f"runtime {elapsed:.0f}s >= 5min")
    check(f, exact_disagree == 0, f"{exact_disagree} disagreements with the exact oracle")
    check(f, exact[None] == 0, f"exact oracle left {exact[None]} cases undecided")
    CRITERIA_RESULTS.append(
        f"CRITERION 3 [detail]: agree={agree} unknown={unknown} "
        f"exact={exact[True]}/{exact[False]}/{exact[None]} exact_disagree={exact_disagree} "
        f"time={elapsed:.0f}s lib={lib_s:.1f}s oracle={oracle_s:.1f}s")
    record(3, "decomposition equivalence vs grid oracle", f)


def test_criterion_4_soundness_and_homogeneity():
    f = []
    fixture_instances = [
        (fx.E1(), [-1.0, -1.0]), (fx.E1(), [1.0, 1.0]),
        (fx.E4(), [-0.5, -1.0]), (fx.E4(), [2.0, 0.1]),
        (fx.identity(3, 2), [-1.0, -4.0]), (fx.identity(3, 2), [0.5, 0.5]),
        (fx.identity(3, 3), [-1.0, -8.0, 2.0]),
    ]
    for A, q in fixture_instances:
        q = np.array(q)
        inst = TcpInstance(orthant(A.dim), q, A)
        out = solve_enumerate(inst)
        for s in out.solutions:
            check(f, max(residual(inst, s.x)) <= 1e-7,
                  f"residual violation at q={q}")
            for t in (0.25, 4.0):
                scaled = TcpInstance(orthant(A.dim), t * q, A)
                xs = t ** (1.0 / (A.order - 1)) * s.x
                check(f, max(residual(scaled, xs)) <= 1e-8,
                      f"scaling law violation at q={q}, t={t}")
    record(4, "solution soundness and homogeneity", f)


def test_criterion_5_example3_nonclosedness():
    f = []
    abar = fx.E3_bar()
    for l in range(1, 101):
        Al = fx.E3_family(l)
        x_l = np.array([2.0 + 2 * l, float(l)])
        check(f, np.allclose(apply_m1(Al, x_l), [1.0, 2.0], atol=1e-10),
              f"A^l x^l != (1,2) at l={l}")
        d = frobenius_distance(Al, abar)
        check(f, abs(d - 1.0 / l) <= 5e-16, f"Frobenius distance off at l={l}")
        if l & (l - 1) == 0:  # power of two: exactly representable offset
            check(f, d == 1.0 / l, f"distance not exact at l={l}")
    v = tk.tpos_contains(orthant(2), abar, [1.0, 2.0])
    check(f, v.status == "fails", "tpos_contains must fail for (1,2)")
    check(f, abs(v.certificate - 1.0 / np.sqrt(10.0)) <= 1e-12,
          f"distance certificate {v.certificate} != 1/sqrt(10)")
    record(5, "example 3 non-closedness reproduction", f)


def test_criterion_6_jacobian_check():
    f = []
    rng = SplitMix64(7)
    for i in range(100):
        m = 2 + i % 3
        n = 2 + i % 2
        A = fx.random_tensor("subsymmetric", m, n,
                             seed=int(rng.next_u64() % 10**9))
        x = np.array([rng.uniform(-2.0, 2.0) for _ in range(n)])
        num = fd_jacobian(lambda v: apply_m1(A, v), x)
        ana = (m - 1) * apply_m2(A, x)
        scale = max(1.0, float(np.abs(num).max()))
        check(f, float(np.abs(ana - num).max()) / scale <= 1e-5,
              f"Jacobian mismatch at case {i}")
        if f:
            break
    record(6, "sub-symmetric Jacobian law", f)


def test_criterion_7_stability_suite():
    t0 = time.time()
    f = []
    I32 = fx.identity(3, 2)
    inst = TcpInstance(orthant(2), np.array([-1.0, -1.0]), I32)
    xbar = np.array([1.0, 1.0])

    v = tk.local_uniqueness_certificate(inst, xbar)
    check(f, v.status == "holds" and v.certificate >= 0.9,
          f"uniqueness certificate {v.certificate}")

    r = tk.perturb_existence(inst, 1e-3, 50, seed=7)
    check(f, r.solvable_fraction == 1.0,
          f"solvable fraction {r.solvable_fraction}")

    r3 = tk.error_bound_probe(inst, xbar, 0.1, 1e-3, 50, 7)
    r4 = tk.error_bound_probe(inst, xbar, 0.1, 1e-4, 50, 7)
    check(f, r3.error_ratio_max <= 5.0, f"error ratio {r3.error_ratio_max}")
    hi = max(r3.error_ratio_max, r4.error_ratio_max)
    lo = min(r3.error_ratio_max, r4.error_ratio_max)
    check(f, hi <= 2.0 * lo, f"ratios not within 2x: {lo} vs {hi}")

    u = tk.usc_probe(inst, 1e-3, 50, seed=7)
    check(f, u["max_excursion"] <= 0.01, f"excursion {u['max_excursion']}")

    elapsed = time.time() - t0
    check(f, elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s")
    record(7, "stability suite", f)


def test_criterion_8_cone_metric():
    f = []
    ray = from_generators([[1.0, 0.0]])
    ice = from_generators([[2.0, 1.0], [1.0, 2.0]])
    ray01 = from_generators([[0.0, 1.0]])
    wide3 = from_generators([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])

    for K in (orthant(2), ray, ice, orthant(3)):
        check(f, delta_metric(K, K, 200) == 0.0, "delta(K,K) != 0")

    d = delta_metric(ray, orthant(2), 10_000)
    check(f, abs(d - 1.0) <= 0.02, f"delta(ray, orthant) = {d}")

    pairs = [(orthant(2), ray), (orthant(2), ice), (ray, ice), (ray, ray01),
             (ice, ray01), (orthant(2), orthant(2)), (ray, ray),
             (orthant(3), wide3), (orthant(2), ray01), (ice, ice)]
    for i, (K1, K2) in enumerate(pairs):
        dd = abs(delta_metric(K1, K2, 2000)
                 - delta_metric(dual(K1), dual(K2), 2000))
        check(f, dd <= 0.05, f"isometry violated on pair {i}: {dd:.3f}")
    record(8, "cone metric", f)


def test_criterion_9_cli_determinism(tmp_path):
    f = []
    commands = [
        ["classify", "--fixture", "E1"],
        ["classify", "--fixture", "E4", "--principal"],
        ["solve", "--fixture", "E1", "--q=-1,-1", "--all"],
        ["membership", "--fixture", "E4", "--q=-0.5,-1", "--seed", "3"],
        ["distance", "--cone1", "orthant2", "--cone2", "ray10",
         "--samples", "2000"],
        ["perturb", "existence", "--fixture", "identity32", "--q=-1,-1",
         "--eps", "1e-3", "--trials", "5", "--seed", "9"],
        ["perturb", "usc", "--fixture", "identity32", "--q=-1,-4",
         "--eps", "1e-3", "--trials", "5", "--seed", "4"],
        ["fixtures", "--name", "E2"],
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            p = subprocess.run([sys.executable, "-m", "tcpkit.cli"] + argv,
                               capture_output=True)
            check(f, p.returncode == 0,
                  f"{argv[0]} exited {p.returncode}: {p.stderr[:120]}")
            outs.append(p.stdout)
        check(f, outs[0] == outs[1], f"{argv} not byte-identical")
        check(f, outs[0].endswith(b"\n") and json.loads(outs[0]),
              f"{argv} not JSON")
    record(9, "CLI determinism", f)
