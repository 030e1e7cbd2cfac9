"""The row-batched iterative routines against their one-start rule.

damped_newton and descend_on_simplex take every start as one row of an
array.  Each row must follow the documented one-start rule on its own: the
tests run it alone, and through a plain per-start loop written here from the
docstrings, and compare bit for bit.  The maps written here (dense cubic
forms, a linear form, a rescaled quadratic) are evaluated with elementwise
products and sums over trailing axes, so a row's value never depends on the
other rows of its batch.  The maps that min_over_basis and
local_uniqueness_certificate build must keep that property too, and are
checked the same way.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcpkit import classify
from tcpkit import fixtures as fx
from tcpkit import stability
from tcpkit._polysys import _smallest, damped_newton, scan_system
from tcpkit.classify import SearchBudget, descend_on_simplex, min_over_basis
from tcpkit.cones import from_generators
from tcpkit.solver import TcpInstance


def cubic(D):
    """F(x)_i = sum_jl D_ijl x_j x_l, its Jacobian and x.F(x), row by row."""
    Dsym = D + D.transpose(0, 2, 1)

    def F(X):
        return (D[None] * X[:, None, :, None] * X[:, None, None, :]).sum(axis=(2, 3))

    def J(X):
        return (Dsym[None] * X[:, None, None, :]).sum(axis=3)

    def xF(X):
        return (X * F(X)).sum(axis=1)

    def grad_xF(X):
        return F(X) + (J(X) * X[:, :, None]).sum(axis=1)

    return F, J, xF, grad_xF


def newton_one_start(F, J, x, iters, tol, project):
    """The one-start rule of damped_newton, as a plain loop."""
    Fx = F(x[None])[0]
    r = np.linalg.norm(Fx)
    for _ in range(iters):
        if r <= tol:
            break
        Jx = J(x[None])[0]
        try:
            d = np.linalg.solve(Jx, -Fx)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(Jx, -Fx, rcond=None)[0]
        if not np.all(np.isfinite(d)):
            break
        t = 1.0
        while t > 1e-14:
            xn = project(x + t * d)
            Fn = F(xn[None])[0]
            rn = np.linalg.norm(Fn)
            if rn < r * (1.0 - 1e-4 * t) or rn <= tol:
                x, Fx, r = xn, Fn, rn
                break
            t *= 0.5
        else:
            break
    return x, r


def simplex_projection(v):
    """Euclidean projection onto the simplex (sort and threshold)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, len(v) + 1)
    cond = u - css / ind > 0
    return np.maximum(v - css[cond][-1] / ind[cond][-1], 0.0)


def descent_one_start(f, grad, lam, iters):
    """The one-start rule of descend_on_simplex, as a plain loop; returns the
    step length a next step would start from as well."""
    val = f(lam[None])[0]
    evals, step = 1, 1.0
    for _ in range(iters):
        g = grad(lam[None])[0]
        if not np.linalg.norm(g) > 1e-14:
            break
        t = step
        for _ in range(30):
            cand = simplex_projection(lam - t * g)
            fc = f(cand[None])[0]
            evals += 1
            if fc < val:
                lam, val, step = cand, fc, min(2.0 * t, 1e6)
                break
            t *= 0.5
        else:
            break
    return lam, val, evals, step


def clamp(V):
    return np.maximum(V, 0.0)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), S=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_newton_rows_end_where_each_start_ends_alone(k, S, seed):
    rng = np.random.default_rng(seed)
    D = rng.uniform(-2.0, 2.0, (k, k, k))
    q = rng.uniform(-2.0, 2.0, k)
    F, J, _, _ = cubic(D)
    Fq = lambda X: F(X) + q
    X0 = rng.uniform(0.0, 2.0, (S, k))
    X0[rng.random((S, k)) < 0.2] = 0.0  # some starts on the boundary
    kept = X0.copy()
    X, r = damped_newton(Fq, J, X0, 40, 1e-11, project=clamp)
    assert X.shape == (S, k) and r.shape == (S,)
    assert np.array_equal(X0, kept)  # the starts are not modified
    for s in range(S):
        x1, r1 = damped_newton(Fq, J, X0[s:s + 1], 40, 1e-11, project=clamp)
        assert np.array_equal(X[s], x1[0]) and r[s] == r1[0]
        xr, rr = newton_one_start(Fq, J, X0[s], 40, 1e-11, clamp)
        assert np.array_equal(X[s], xr) and r[s] == rr


def test_singular_row_takes_least_squares_alone():
    # F(x) = x * x - c: the Jacobian diag(2 x) is singular on a zero coordinate
    c = np.array([1.0, 4.0])
    F = lambda X: X * X - c
    J = lambda X: 2.0 * X[:, :, None] * np.eye(2)
    X0 = np.array([[0.5, 3.0], [0.0, 1.0], [2.0, 0.7]])
    X, r = damped_newton(F, J, X0, 50, 1e-12)
    regular = damped_newton(F, J, X0[[0, 2]], 50, 1e-12)
    assert np.array_equal(X[[0, 2]], regular[0]) and np.array_equal(r[[0, 2]], regular[1])
    assert np.allclose(X[[0, 2]], [[1.0, 2.0], [1.0, 2.0]])
    # the singular row takes minimum-norm steps: its zero coordinate stays
    # put, so its residual never drops below |0 * 0 - 1|
    xs, rs = newton_one_start(F, J, X0[1], 50, 1e-12, lambda v: v)
    assert np.array_equal(X[1], xs) and r[1] == rs
    assert X[1, 0] == 0.0 and X[1, 1] > 1.0 and r[1] >= 1.0


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), S=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_descent_rows_end_where_each_start_ends_alone(k, S, seed):
    rng = np.random.default_rng(seed)
    _, _, xF, grad_xF = cubic(rng.uniform(-2.0, 2.0, (k, k, k)))
    L0 = rng.dirichlet(np.ones(k), S)
    L0[0] = np.eye(k)[0]  # a vertex start
    lam, val, evals = assert_rows_follow_one_start_rule(xF, grad_xF, L0, 60)
    assert lam.shape == (S, k) and val.shape == (S,) and evals.shape == (S,)
    assert np.allclose(lam.sum(axis=1), 1.0) and np.all(lam >= 0.0)


def assert_rows_follow_one_start_rule(f, grad, L0, iters):
    """Every row of one descend_on_simplex call ends as its start does alone
    and as the plain loop does, with the same number of evaluations."""
    lam, val, evals = descend_on_simplex(f, grad, L0, iters)
    for s in range(len(L0)):
        l1, v1, e1 = descend_on_simplex(f, grad, L0[s:s + 1], iters)
        assert np.array_equal(lam[s], l1[0]) and val[s] == v1[0] and evals[s] == e1[0]
        lr, vr, er, _ = descent_one_start(f, grad, L0[s], iters)
        assert np.array_equal(lam[s], lr) and val[s] == vr and evals[s] == er
    return lam, val, evals


def test_descent_row_out_of_rungs_beside_row_taking_first_rung():
    # f(x) = c.x is smallest at the vertex e_1, and every rung from there
    # projects back onto it: that row spends all 30 rungs in its first step
    # and stops, while the row from (0, 1/2, 1/2) takes its first rung, t = 1,
    # in the same step, then t = 2 onto e_1, then runs out of rungs there
    c = np.array([0.0, 1.0, 2.0])
    f = lambda X: (X * c).sum(axis=1)
    grad = lambda X: np.broadcast_to(c, X.shape).copy()
    L0 = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.2, 0.3, 0.5]])
    _, _, evals = assert_rows_follow_one_start_rule(f, grad, L0, 20)
    assert evals[0] == 1 + 30 and evals[1] == 1 + 1 + 1 + 30


def test_descent_row_with_step_shrunk_over_many_iterations():
    # the search direction of ||x - p||^2, scaled by ||x - p||^-4: only
    # steps of about ||x - p||^4 decrease f, so the accepted step length
    # falls by many orders of magnitude, a few halvings per iteration
    p = np.array([0.3, 0.7])
    f = lambda X: ((X - p) ** 2).sum(axis=1)

    def grad(X):
        D = X - p
        with np.errstate(divide="ignore", invalid="ignore"):
            return D / ((D * D).sum(axis=1)[:, None] ** 2)

    L0 = np.array([[0.9, 0.1], [0.6, 0.4], [0.0, 1.0], [0.3, 0.7]])
    assert_rows_follow_one_start_rule(f, grad, L0, 200)
    _, _, evals, step = descent_one_start(f, grad, L0[0], 200)
    assert step < 1e-40 and evals > 200


@pytest.mark.parametrize("n, k, seed", [(2, 3, 1), (3, 4, 2), (4, 5, 3), (3, 6, 4)])
def test_min_over_basis_polishes_each_start_as_alone(monkeypatch, n, k, seed):
    # on a generated cone the map from the simplex into the cone mixes the
    # generators; it must still give each start the bits it gets alone
    calls = []
    monkeypatch.setattr(classify, "descend_on_simplex",
                        lambda *args: calls.append(args) or descend_on_simplex(*args))
    rng = np.random.default_rng(seed)
    K = from_generators(list(np.abs(rng.normal(size=(k, n))) + 0.1))
    A = fx.random_tensor("general", 3, n, seed)
    for objective in ("xm", "norm_m1", "abs_xm"):
        min_over_basis(objective, A, K, SearchBudget(multistarts=16, polish_iters=60))
    for f, grad, L0, iters in calls:
        assert_rows_follow_one_start_rule(f, grad, L0, iters)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_uniqueness_descent_follows_one_start_rule(monkeypatch, seed):
    # a matrix on a generated cone at xbar = 0, q = 0: the slice is the cone
    # itself, so the Rayleigh quotient mixes all its generators
    calls = []
    monkeypatch.setattr(stability, "descend_on_simplex",
                        lambda *args: calls.append(args) or descend_on_simplex(*args))
    rng = np.random.default_rng(seed)
    K = from_generators(list(np.abs(rng.normal(size=(3, 2))) + 0.1))
    A = fx.random_tensor("general", 2, 2, seed)
    stability.local_uniqueness_certificate(TcpInstance(K, np.zeros(2), A), np.zeros(2))
    (f, grad, L0, iters), = calls
    _, _, evals = assert_rows_follow_one_start_rule(f, grad, L0, iters)
    assert evals[0] > 1


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(0, 4), min_size=1, max_size=60),
       N=st.integers(1, 80), nan_at=st.integers(0, 100))
def test_smallest_matches_stable_argsort(values, N, nan_at):
    v = np.array(values, dtype=float)
    if nan_at < len(v):
        v[nan_at] = np.nan
    assert np.array_equal(_smallest(v, N), np.argsort(v, kind="stable")[:N])


def test_scan_system_memory_stays_blocked():
    # the residual grid is 262 144 x 2 floats (4 MiB) and the peak about
    # 10 MiB; unblocked contraction temporaries, or a second whole-grid copy
    # of the residuals, push it past 11 MiB
    A, q = fx.identity(3, 2), np.array([-1.0, -1.0])
    scan_system(A, q)
    tracemalloc.start()
    try:
        scan = scan_system(A, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scan.roots) == 1 and np.allclose(scan.roots[0], [1.0, 1.0])
    assert peak <= 11 * 2**20
