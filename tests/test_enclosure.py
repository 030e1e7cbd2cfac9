"""The support scan's certificates against challengers that share no tcpkit code.

A support system A_aa u^{m-1} + q_a = 0 that the scan certifies infeasible
must have no root u >= 0 that a projected damped Newton, written here on
dense einsum contractions, finds from many seeded starts; the same Newton
must find the roots of the systems the scan leaves with roots, so it is
shown able to.  A support that the walk settles though its equations have
roots must have no root the Newton finds whose complement rows A_{c,a}
u^{m-1} + q_c are >= -SLACK_TOL.  A target that tpos_contains refutes must
have no preimage that the Newton finds on the systems lifted to the cone's
generators.

Every open scan names why it is open; the reasons are checked on systems
open by construction (E2, whose A (1, 0)^2 = 0 is a root at infinity, and
its padding to k = 4), and on seeded systems that reach the leaf and the
depth cap.  A tensor with entries near 1e308 is searched scaled, with no
warning.  A scalar support is settled in closed form at any nonzero
coefficient, and a support with q_a = 0 is enclosed with its slack rows.
"""

import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import nnls

from tcpkit import _polysys
from tcpkit._forms import _Forms
from tcpkit import fixtures as fx
from tcpkit.cli import main
from tcpkit.compcones import q_membership, tpos_contains
from tcpkit.cones import from_generators, orthant
from tcpkit.solver import TcpInstance, solve_enumerate
from tcpkit.tensor import IndexSet, Tensor, principal_subtensor, tensor_from_dense

ROOT_TOL = 1e-12  # max |F_i| at which a challenger point is a root


def dense_apply(D, X):
    """D x^{m-1} for every row of X, by einsum over the dense array D."""
    T = np.broadcast_to(D, (len(X),) + D.shape)
    for _ in range(D.ndim - 1):
        T = np.einsum("sik...,sk->si...", T, X)
    return T


def dense_jacobian(D, X):
    """The Jacobian of x -> D x^{m-1} at every row of X."""
    J = np.zeros((len(X),) + D.shape[:1] + X.shape[1:])
    for pos in range(1, D.ndim):
        T = np.broadcast_to(np.moveaxis(D, pos, -1), (len(X),) + np.moveaxis(D, pos, -1).shape)
        for _ in range(D.ndim - 2):
            T = np.einsum("sik...,sk->si...", T, X)
        J += T
    return J


def challenger_roots(D, q, seed, starts=48, iters=60):
    """Points u >= 0 with max_i |(D u^{m-1} + q)_i| <= ROOT_TOL that Newton
    steps through the pseudo-inverse, projected on the orthant and halved
    until the residual falls, find from seeded starts of every scale."""
    rng = np.random.default_rng(seed)
    k = len(q)
    scale = (1.0 + np.abs(q).max()) ** (1.0 / (D.ndim - 1))
    X = np.vstack([np.eye(k) * scale, rng.uniform(0.0, 3.0 * scale, (starts, k)),
                   rng.exponential(scale, (starts, k)) * (rng.random((starts, k)) < 0.7)])
    live = np.ones(len(X), dtype=bool)  # a start stops once no halving lowers its residual
    with np.errstate(all="ignore"):
        for _ in range(iters):
            idx = np.flatnonzero(live)
            F = dense_apply(D, X[idx]) + q
            r = np.abs(F).max(axis=1)
            d = -(np.linalg.pinv(dense_jacobian(D, X[idx])) @ F[:, :, None])[:, :, 0]
            t = np.ones(len(idx))
            moving = np.isfinite(d).all(axis=1) & (r > ROOT_TOL * 1e-3)
            moved = np.zeros(len(idx), dtype=bool)
            for _ in range(30):
                rows = np.flatnonzero(moving)
                if not len(rows):
                    break
                cand = np.maximum(X[idx[rows]] + t[rows, None] * d[rows], 0.0)
                ok = np.abs(dense_apply(D, cand) + q).max(axis=1) < r[rows]
                X[idx[rows[ok]]] = cand[ok]
                moved[rows[ok]] = True
                moving[rows[ok]] = False
                t[moving] *= 0.5
            live[idx[~moved]] = False
            if not live.any():
                break
        F = dense_apply(D, X) + q
        return X[np.abs(F).max(axis=1) <= ROOT_TOL]


def corpus(m, n, count, seed):
    """Seeded general tensors with q uniform in [-2, 2]^n."""
    rng = np.random.default_rng(seed)
    return [(fx.random_tensor("general", m, n, seed + i), rng.uniform(-2.0, 2.0, n))
            for i in range(count)]


@pytest.mark.parametrize("m, n, count", [(3, 3, 30), (3, 4, 12), (4, 3, 15)])
def test_no_certified_support_has_a_root(m, n, count):
    # every support of every instance: a certified system has no root the
    # challenger finds; a system the scan found roots of, the challenger
    # solves too (so it can find roots), and the scan leaves some open; a
    # support the walk settles though its equations have roots has no root
    # the challenger finds with every complement row >= -SLACK_TOL
    certified = solved = slack_settled = 0
    for c, (A, q) in enumerate(corpus(m, n, count, 77 + 10 * m + n)):
        dense = A.to_dense()
        settled = {alpha.members: not open_[0]
                   for alpha, *_, open_ in _polysys.walk_supports(_Forms([A]), np.array([q]))}
        for r in range(1, n + 1):
            for alpha in itertools.combinations(range(n), r):
                scan = _polysys.scan_system(principal_subtensor(A, IndexSet(
                    [i + 1 for i in alpha], n)), q[list(alpha)])
                D = dense[np.ix_(*[alpha] * m)]
                if scan.certified_infeasible:
                    certified += 1
                    roots = challenger_roots(D, q[list(alpha)], seed=c)
                    assert not len(roots), (c, alpha, scan.reason, roots[0])
                elif scan.roots and r >= 2:
                    roots = challenger_roots(D, q[list(alpha)], seed=c)
                    solved += len(roots) > 0
                    if settled[tuple(i + 1 for i in alpha)]:
                        slack_settled += 1
                        comp = [j for j in range(n) if j not in alpha]
                        X = np.zeros((len(roots), n))
                        X[:, list(alpha)] = roots
                        W = dense_apply(dense, X)[:, comp] + q[comp]
                        feasible = (W >= -_polysys.SLACK_TOL).all(axis=1)
                        assert not feasible.any(), (c, alpha, roots[feasible][0])
    assert certified >= count and solved >= 2 and slack_settled >= 1


def test_membership_unknown_rate_at_n3():
    # a tracked rate: 100 seeded m = 3, n = 3 cases leave at most 1 unknown
    # (12 before the slack rows joined the enclosure), and no member or
    # non-member verdict contradicts the enumeration solver's solutions
    unknown = 0
    for A, q in corpus(3, 3, 100, 2024):
        member = q_membership(A, q).member
        outcome = solve_enumerate(TcpInstance(orthant(3), q, A))
        unknown += member is None
        if member is not None:
            assert member == bool(outcome.solutions) and not outcome.unknown
    assert unknown <= 1


@pytest.mark.parametrize("n", [2, 3])
def test_no_refuted_target_has_a_preimage(n):
    # m = 3: a fails must survive the challenger on the system lifted to
    # every set of n generators of a full-rank cone; the corpus has fails
    rng = np.random.default_rng(40 + n)
    fails = 0
    for i in range(30):
        A = fx.random_tensor(("general", "copositive", "symmetric")[i % 3], 3, n, 900 + i)
        gens = i // 3 % 3
        K = orthant(n) if gens == 0 else from_generators(
            list(np.abs(rng.normal(size=(n + gens, n))) + 0.05))
        y = rng.uniform(-2.0, 2.0, n)
        if tpos_contains(K, A, y).status != "fails":
            continue
        fails += 1
        G = np.column_stack([np.asarray(g, float) / np.linalg.norm(g) for g in K.generators])
        for S in itertools.combinations(range(G.shape[1]), n):
            if np.linalg.matrix_rank(G[:, S]) == n:
                D = A.to_dense()
                B = np.einsum("ijk,ja,kb->iab", D, G[:, S], G[:, S])
                assert not len(challenger_roots(B, -y, seed=i)), (i, S)
    assert fails >= 5


def test_challenger_lift_matches_the_image():
    # the einsum lift maps lam to A (G_S lam)^2
    rng = np.random.default_rng(1)
    D, G, lam = rng.normal(size=(3, 3, 3)), rng.random((3, 3)), rng.random(3)
    B = np.einsum("ijk,ja,kb->iab", D, G, G)
    assert np.allclose(dense_apply(B, lam[None])[0], dense_apply(D, (G @ lam)[None])[0])


def e2_padded(n):
    """E2 on the indices 1, 2 beside u_j^2 on every other index j."""
    entries = {(1, 1, 2): 1.0, (1, 2, 1): 1.0, (2, 2, 1): 1.0, (2, 1, 2): 1.0}
    entries.update({(j, j, j): 1.0 for j in range(3, n + 1)})
    return Tensor(3, n, entries)


def test_every_open_reason_is_distinct():
    reasons = {_polysys._AT_INFINITY, *_polysys._OPEN.values()}
    assert len(reasons) == 6


@pytest.mark.parametrize("n", [2, 4])
def test_a_root_at_infinity_names_itself(n, capsys):
    # E2 (1, 0)^2 = 0: the system 2 u_1 u_2 = 1, 2 u_1 u_2 = 2 (and u_j^2 = 1)
    # has no root, but its homogenization vanishes at (e_1, t = 0)
    A, q = e2_padded(n), -np.array([1.0, 2.0] + [1.0] * (n - 2))
    scan = _polysys.scan_system(A, q)
    assert scan.reason == _polysys._AT_INFINITY
    assert not scan.certified_infeasible and not scan.roots
    assert q_membership(A, q).member is None
    outcome = solve_enumerate(TcpInstance(orthant(n), q, A))
    assert outcome.unknown and outcome.open_supports == (
        (tuple(range(1, n + 1)), _polysys._AT_INFINITY),)
    assert main(["solve", "--fixture", "E2", "--q=-1,-2"]) == 3
    assert _polysys._AT_INFINITY in capsys.readouterr().out
    if n == 2:  # the image of E2 is the ray of (1, 1)
        v = tpos_contains(orthant(2), A, [1.0, 2.0])
        assert v.status == "unknown" and v.per_alpha == {"1,2": "rows 1,2: "
                                                         + _polysys._AT_INFINITY}


def test_the_caps_name_themselves(monkeypatch):
    # seeded systems that reach the leaf cap (k = 4) and the depth cap
    # (k = 3); and u_1^2 - u_1 u_2 + u_2^2 = -1, with no root, past an entry
    # cap lowered below its 2 * 3^2 entries, is left to one Newton start
    A, q = fx.random_tensor("general", 3, 4, 0), np.random.default_rng(0).uniform(-2, 2, 4)
    assert _polysys.scan_system(A, q).reason == _polysys._OPEN[2]
    A, q = fx.random_tensor("general", 3, 3, 13), np.random.default_rng(13).uniform(-2, 2, 3)
    assert _polysys.scan_system(A, q).reason == _polysys._OPEN[0]
    D = np.array([[1.0, -0.5], [-0.5, 1.0]])
    A = tensor_from_dense(np.array([D, D]))
    assert _polysys.scan_system(A, np.ones(2)).reason == "Bernstein enclosure"
    monkeypatch.setattr(_polysys, "_SCAN_ENTRIES", 17)
    scan = _polysys.scan_system(A, np.ones(2))
    assert scan.reason == _polysys._OPEN[3] and not scan.certified_infeasible


@pytest.mark.parametrize("K", [orthant(2), from_generators([[1.0, 0.2], [0.3, 1.0], [1.0, 1.0]])])
def test_entries_near_the_largest_float_are_searched_scaled(K):
    # the image of 1e308 (x_1 + x_2)^2 (1, 1) over K is the ray of (1, 1):
    # (1, 1) holds with a witness of size 1e-154 and (1, -1) fails, with no
    # overflow warning
    A = tensor_from_dense(np.full((2, 2, 2), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = tpos_contains(K, A, [1.0, 1.0])
        w = tpos_contains(K, A, [1.0, -1.0])
    assert v.status == "holds" and w.status == "fails"
    x = v.witness * 1e154  # A x^2 = (1e154 (x_1 + x_2))^2 (1, 1)
    assert abs(x.sum() ** 2 - 1.0) <= 1e-6
    G = np.column_stack([np.asarray(g, float) / np.linalg.norm(g) for g in K.generators])
    assert nnls(G, x)[1] <= 1e-9 * np.linalg.norm(x)


def test_a_scalar_support_is_settled_only_at_a_zero_coefficient():
    # 1e-13 u^2 = 1 has the root u = 10^6.5; at a = 1e-320, -q/a overflows
    # and the support stays open under a reason of its own
    res = q_membership(tensor_from_dense(np.array([[[1e-13]]])), [-1.0])
    assert res.member is True and res.residual <= 1e-15
    assert res.u[0] == pytest.approx(10 ** 6.5, rel=1e-15)
    A = tensor_from_dense(np.array([[[1e-320]]]))
    scan = _polysys.scan_system(A, [-1.0])
    assert not scan.certified_infeasible and not scan.roots_complete and not scan.roots
    assert scan.reason not in ("scalar zero coefficient", "scalar closed form")
    assert q_membership(A, [-1.0]).member is None
    assert solve_enumerate(TcpInstance(orthant(1), np.array([-1.0]), A)).open_supports == (
        ((1,), scan.reason),)


def test_a_support_with_q_zero_is_enclosed():
    # q_a = 0 on {1, 2}: the equations' one root u = 0 fails the slack row
    # q_3 = -1, and the slack rows clear the vertex t = 1, at which the
    # equations' subdivision stops
    A, q = fx.random_tensor("general", 3, 3, 5), np.array([0.0, 0.0, -1.0])
    walk = {alpha.members: (U.tolist(), _polysys._REASONS[open_[0]])
            for alpha, U, _, _, open_ in _polysys.walk_supports(_Forms([A]), np.array([q]))}
    assert walk[(1, 2)] == ([], "")
    assert (1, 2) not in dict(solve_enumerate(TcpInstance(orthant(3), q, A)).open_supports)
