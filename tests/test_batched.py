"""The row-batched iterative routines against their one-start rule.

damped_newton and descend_on_simplex take every start as one row of an
array.  Each row must follow the documented one-start rule on its own: the
tests run it alone, and through a plain per-start loop written here from the
docstrings, and compare bit for bit.  The maps written here (dense cubic
forms, a linear form, a rescaled quadratic) are evaluated with elementwise
products and sums over trailing axes, so a row's value never depends on the
other rows of its batch.  The maps that min_over_basis and
local_uniqueness_certificate build must keep that property too, and are
checked the same way.  descend_on_simplex tells its maps which start each
row descends from, so one call can carry rows of different objectives: the
stacked basis minimisation scores each row with its own tensor, and must
give every tensor what min_over_basis gives it alone.  damped_newton tells
its maps the same, so the stacked support walk refines the starts of many
instances in one call, and must give every instance what its own walk and
solve_enumerate give it; its row solve keeps the regular rows batched when
some are singular, with the bits of a plain per-row loop.

The root-box grid of scan_system, its start selection and its root dedup
are checked against references written here the same way; the pruned
start selection is checked against the full grid, scored point by point
with the same formula, and the sphere bound against its row-first
expression.  The walk's one cut of each group's sub-forms per support
must give every instance what principal_subtensor gives it.

The Bernstein enclosure that decides the probes' gates before any descent
must clear only tensors the stacked descent says hold, and only tensors
whose objective clears the enclosure's threshold on a dense einsum grid
written here.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcpkit import classify
from tcpkit import fixtures as fx
from tcpkit import solver, stability
from tcpkit import _forms, _polysys, _simplex
from tcpkit._grid import _block_bounds, _contract, _grid_picks
from tcpkit._polysys import _dedup, damped_newton, scan_system, walk_supports
from tcpkit.classify import SearchBudget, _min_over_stack, descend_on_simplex, min_over_basis
from tcpkit.compcones import q_membership
from tcpkit.cones import from_generators, orthant
from tcpkit.solver import TcpInstance, _solve_stack, is_solution, residual, solve_enumerate
from tcpkit.tensor import (IndexSet, Tensor, _derivative, _monomials, _power_coefficients,
                           _rows_m1, apply_m1, batch_apply_m1, jacobian_m1, principal_subtensor,
                           tensor_from_dense)


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


def newton_one_start(F, J, x, iters, tol, project, row=0):
    """The one-start rule of damped_newton, as a plain loop, for the start
    at index row of its X."""
    at = np.array([row])
    Fx = F(x[None], at)[0]
    r = np.linalg.norm(Fx)
    for _ in range(iters):
        if r <= tol:
            break
        Jx = J(x[None], at)[0]
        try:
            d = np.linalg.solve(Jx, -Fx)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(Jx, -Fx, rcond=None)[0]
        if not np.all(np.isfinite(d)):
            break
        t = 1.0
        while t > 1e-14:
            xn = project(x + t * d)
            Fn = F(xn[None], at)[0]
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


def descent_one_start(f, grad, lam, iters, row=0):
    """The one-start rule of descend_on_simplex, as a plain loop, for the
    start at index row of its Lam0; returns the step length a next step
    would start from as well."""
    at = np.array([row])
    val = f(lam[None], at)[0]
    evals, step = 1, 1.0
    for _ in range(iters):
        g = grad(lam[None], at)[0]
        if not np.linalg.norm(g) > 1e-14:
            break
        t = step
        for _ in range(30):
            cand = simplex_projection(lam - t * g)
            fc = f(cand[None], at)[0]
            evals += 1
            if fc < val and abs(cand.sum() - 1.0) <= 1e-9:
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
    Fq, Jr = (lambda X, _: F(X) + q), (lambda X, _: J(X))
    X0 = rng.uniform(0.0, 2.0, (S, k))
    X0[rng.random((S, k)) < 0.2] = 0.0  # some starts on the boundary
    kept = X0.copy()
    X, r = damped_newton(Fq, Jr, X0, 40, 1e-11, project=clamp)
    assert X.shape == (S, k) and r.shape == (S,)
    assert np.array_equal(X0, kept)  # the starts are not modified
    for s in range(S):
        x1, r1 = damped_newton(Fq, Jr, X0[s:s + 1], 40, 1e-11, project=clamp)
        assert np.array_equal(X[s], x1[0]) and r[s] == r1[0]
        xr, rr = newton_one_start(Fq, Jr, X0[s], 40, 1e-11, clamp)
        assert np.array_equal(X[s], xr) and r[s] == rr


def test_singular_row_takes_least_squares_alone():
    # F(x) = x * x - c: the Jacobian diag(2 x) is singular on a zero coordinate
    c = np.array([1.0, 4.0])
    F = lambda X, _: X * X - c
    J = lambda X, _: 2.0 * X[:, :, None] * np.eye(2)
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
@given(n=st.integers(1, 4), k=st.integers(1, 4), S=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_non_square_rows_take_least_squares_steps_alone(n, k, S, seed):
    # F maps R^k to R^n: with n > k each step is a Gauss-Newton step, with
    # n < k the minimum-norm solution; the plain loop takes np.linalg.lstsq
    # at every step, since np.linalg.solve rejects a non-square J
    if n == k:
        n = k + 1
    rng = np.random.default_rng(seed)
    F, J, _, _ = cubic(rng.uniform(-2.0, 2.0, (n, k, k)))
    y = F(rng.uniform(0.0, 1.0, (1, k)))[0]  # reachable, so some rows converge
    Fy, Jr = (lambda X, _: F(X) - y), (lambda X, _: J(X))
    X0 = rng.uniform(0.0, 2.0, (S, k))
    X, r = damped_newton(Fy, Jr, X0, 30, 1e-12, project=clamp)
    assert X.shape == (S, k) and r.shape == (S,)
    for s in range(S):
        xr, rr = newton_one_start(Fy, Jr, X0[s], 30, 1e-12, clamp)
        assert np.array_equal(X[s], xr) and r[s] == rr


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), S=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_newton_rows_of_different_systems_end_as_alone(k, S, seed):
    # start s solves system s % 3 (two cubic systems, and x * x = c, whose
    # Jacobian is singular on a zero coordinate), all in one call: each row
    # ends as the Newton run of its own system from its start alone
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(2):
        F, J, _, _ = cubic(rng.uniform(-2.0, 2.0, (k, k, k)))
        q = rng.uniform(-2.0, 2.0, k)
        systems.append((lambda X, F=F, q=q: F(X) + q, J))
    c = rng.uniform(0.5, 2.0, k)
    systems.append((lambda X: X * X - c, lambda X: 2.0 * X[:, :, None] * np.eye(k)))

    def by_row(i):
        def h(X, rows):
            out = np.empty(X.shape + X.shape[1:] * i)  # values, or Jacobians
            for j, system in enumerate(systems):
                mine = rows % 3 == j
                out[mine] = system[i](X[mine])
            return out
        return h

    X0 = rng.uniform(0.0, 2.0, (S, k))
    X0[rng.random((S, k)) < 0.2] = 0.0  # some starts on the boundary
    X, r = damped_newton(by_row(0), by_row(1), X0, 40, 1e-11, project=clamp)
    for s in range(S):
        F, J = systems[s % 3]
        x1, r1 = damped_newton(lambda X, _: F(X), lambda X, _: J(X), X0[s:s + 1], 40, 1e-11,
                               project=clamp)
        assert np.array_equal(X[s], x1[0]) and r[s] == r1[0]
        xr, rr = newton_one_start(by_row(0), by_row(1), X0[s], 40, 1e-11, clamp, row=s)
        assert np.array_equal(X[s], xr) and r[s] == rr


def solve_rows_loop(J, b):
    """The row solve as a plain loop: np.linalg.solve, or least squares
    where it raises; and the rows solved by least squares."""
    out, lone = np.empty(b.shape), []
    for s in range(len(b)):
        try:
            out[s] = np.linalg.solve(J[s], b[s])
        except np.linalg.LinAlgError:
            out[s] = np.linalg.lstsq(J[s], b[s], rcond=None)[0]
            lone.append(s)
    return out, lone


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), S=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       singular=st.integers(0, 3))
def test_solve_rows_keeps_the_regular_rows_batched(k, S, seed, singular):
    # up to 3 singular rows (a zero row, which gives an exact zero pivot, or
    # two equal rows, which may not): every row gets the bits of the plain
    # loop, and only the rows it solves by least squares are solved alone
    rng = np.random.default_rng(seed)
    J, b = rng.uniform(-2.0, 2.0, (S, k, k)), rng.uniform(-2.0, 2.0, (S, k))
    bad = rng.choice(S, min(singular, S), replace=False)
    for s in bad:
        if k > 1 and rng.random() < 0.5:
            J[s, 1] = J[s, 0]
        else:
            J[s, rng.integers(k)] = 0.0
    calls = []
    lstsq = np.linalg.lstsq
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or lstsq(*a, **kw))
        got = _polysys._solve_rows(J, b)
    ref, lone = solve_rows_loop(J, b)
    assert got.tobytes() == ref.tobytes()
    assert len(calls) == len(lone)
    assert all(s in lone for s in bad if not J[s].any(axis=1).all())  # the zero rows


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), S=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       rung_points=st.integers(1, 12))
def test_descent_rung_pieces_keep_the_one_start_rule(k, S, seed, rung_points):
    # the rungs past the first 3 are scored in pieces of about rung_points
    # points, only for the rows that took none yet: any cut gives every row
    # the first accepted rung, bits and evaluations of the one-rung rule
    rng = np.random.default_rng(seed)
    _, _, xF, grad_xF = cubic(rng.uniform(-2.0, 2.0, (k, k, k)))
    L0 = rng.dirichlet(np.ones(k), S)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_simplex, "_RUNG_POINTS", rung_points)
        assert_rows_follow_one_start_rule(lambda X, _: xF(X), lambda X, _: grad_xF(X), L0, 40)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), S=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_descent_rows_end_where_each_start_ends_alone(k, S, seed):
    rng = np.random.default_rng(seed)
    _, _, xF, grad_xF = cubic(rng.uniform(-2.0, 2.0, (k, k, k)))
    L0 = rng.dirichlet(np.ones(k), S)
    L0[0] = np.eye(k)[0]  # a vertex start
    lam, val, evals = assert_rows_follow_one_start_rule(lambda X, _: xF(X),
                                                        lambda X, _: grad_xF(X), L0, 60)
    assert lam.shape == (S, k) and val.shape == (S,) and evals.shape == (S,)
    assert np.allclose(lam.sum(axis=1), 1.0) and np.all(lam >= 0.0)


def assert_rows_follow_one_start_rule(f, grad, L0, iters):
    """Every row of one descend_on_simplex call ends as its start does alone
    (still known to f and grad as start s) and as the plain loop does, with
    the same number of evaluations."""
    lam, val, evals = descend_on_simplex(f, grad, L0, iters)
    for s in range(len(L0)):
        l1, v1, e1 = descend_on_simplex(lambda X, r: f(X, r + s), lambda X, r: grad(X, r + s),
                                        L0[s:s + 1], iters)
        assert np.array_equal(lam[s], l1[0]) and val[s] == v1[0] and evals[s] == e1[0]
        lr, vr, er, _ = descent_one_start(f, grad, L0[s], iters, s)
        assert np.array_equal(lam[s], lr) and val[s] == vr and evals[s] == er
    return lam, val, evals


def test_descent_row_out_of_rungs_beside_row_taking_first_rung():
    # f(x) = c.x is smallest at the vertex e_1, and every rung from there
    # projects back onto it: that row spends all 30 rungs in its first step
    # and stops, while the row from (0, 1/2, 1/2) takes its first rung, t = 1,
    # in the same step, then t = 2 onto e_1, then runs out of rungs there
    c = np.array([0.0, 1.0, 2.0])
    f = lambda X, _: (X * c).sum(axis=1)
    grad = lambda X, _: np.broadcast_to(c, X.shape).copy()
    L0 = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.2, 0.3, 0.5]])
    _, _, evals = assert_rows_follow_one_start_rule(f, grad, L0, 20)
    assert evals[0] == 1 + 30 and evals[1] == 1 + 1 + 1 + 30


def test_descent_row_with_step_shrunk_over_many_iterations():
    # the search direction of ||x - p||^2, scaled by ||x - p||^-4: only
    # steps of about ||x - p||^4 decrease f, so the accepted step length
    # falls by many orders of magnitude, a few halvings per iteration
    p = np.array([0.3, 0.7])
    f = lambda X, _: ((X - p) ** 2).sum(axis=1)

    def grad(X, _):
        D = X - p
        with np.errstate(divide="ignore", invalid="ignore"):
            return D / ((D * D).sum(axis=1)[:, None] ** 2)

    L0 = np.array([[0.9, 0.1], [0.6, 0.4], [0.0, 1.0], [0.3, 0.7]])
    assert_rows_follow_one_start_rule(f, grad, L0, 200)
    _, _, evals, step = descent_one_start(f, grad, L0[0], 200)
    assert step < 1e-40 and evals > 200


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), S=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_descent_rows_of_different_objectives_end_as_alone(k, S, seed):
    # start s descends objective s % 3 (a cubic form, a linear form, a
    # squared distance), all in one call: each row ends as the descent of its
    # own objective from its start alone
    rng = np.random.default_rng(seed)
    _, _, xF, grad_xF = cubic(rng.uniform(-2.0, 2.0, (k, k, k)))
    c, p = rng.uniform(-1.0, 1.0, k), rng.dirichlet(np.ones(k))
    objectives = [(xF, grad_xF),
                  (lambda X: (X * c).sum(axis=1), lambda X: np.broadcast_to(c, X.shape).copy()),
                  (lambda X: ((X - p) ** 2).sum(axis=1), lambda X: 2.0 * (X - p))]

    def by_row(i):
        def h(X, rows):
            out = np.empty(X.shape[:1] + X.shape[1:] * i)  # values, or gradients
            for j, obj in enumerate(objectives):
                mine = rows % 3 == j
                out[mine] = obj[i](X[mine])
            return out
        return h

    L0 = rng.dirichlet(np.ones(k), S)
    lam, val, evals = assert_rows_follow_one_start_rule(by_row(0), by_row(1), L0, 60)
    for s in range(S):
        f, grad = objectives[s % 3]
        l1, v1, e1 = descend_on_simplex(lambda X, _: f(X), lambda X, _: grad(X), L0[s:s + 1], 60)
        assert np.array_equal(lam[s], l1[0]) and val[s] == v1[0] and evals[s] == e1[0]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 5), n=st.integers(1, 4), S=st.integers(1, 8), R=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_rows_get_their_own_tensors_bits(m, n, S, R, seed):
    # tensors on one support with different values: row r, scored with the
    # coefficients of tensor own[r], gets the bits apply_m1 and jacobian_m1
    # give it with that tensor
    rng = np.random.default_rng(seed)
    base, _ = sparse_system(n, m, seed)
    tensors = [Tensor._from_form(m, n, base._tails, rng.uniform(-2.0, 2.0, base._coef.shape))
               for _ in range(S)]
    X = rng.uniform(0.0, 2.0, (R, n))
    own = rng.integers(0, S, R)
    C = np.stack([A._coef for A in tensors])[own]
    F, J = _rows_m1(base, X, C), _derivative(base, X, range(m - 1), C)
    for r in range(R):
        A = tensors[own[r]]
        assert np.array_equal(F[r], apply_m1(A, X)[r])
        assert np.array_equal(J[r], jacobian_m1(A, X)[r])


@st.composite
def cut_stacks(draw):
    """1..8 tensors of one order m in 2..4 and dimension n in 1..4, all cut
    from the full support: each keeps the rows of one of three random
    patterns of rows (rows dropped outside a support make tensors whose
    cuts share tails though their _tails differ) and zeroes entries of its
    own, so one group's instances drop different rows on a cut; some
    entries are given as -0.0, and a pattern may keep no row inside a
    cut."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tails = np.indices((n,) * (m - 1)).reshape(m - 1, -1).T
    patterns = rng.random((3, len(tails), 1)) < rng.uniform(0.2, 1.0, (3, 1, 1))
    tensors = []
    for p in rng.integers(0, 3, draw(st.integers(1, 8))):
        coef = np.round(rng.uniform(-2.0, 2.0, (len(tails), n)), 1)  # 0.0 and -0.0 among them
        coef[rng.random(coef.shape) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = -0.0
        tensors.append(Tensor._from_form(m, n, tails, coef * patterns[p]))
    return tensors


def shared_cut_stack():
    """Two tensors whose _tails differ only in a tail that holds index 3 and
    a third with an all-zero component: cut to {1, 2}, the first two give
    equal tails from two groups, and the third has no entry left in
    component 1 of the cut."""
    A = Tensor(3, 3, {(1, 1, 1): 1.0, (2, 1, 2): -0.0, (2, 2, 2): 2.0})
    B = Tensor(3, 3, {(1, 1, 1): 3.0, (2, 2, 2): -1.0, (1, 3, 3): 5.0})
    C = Tensor(3, 3, {(3, 1, 1): 1.0, (2, 2, 2): 4.0})
    return [A, B, C, A]


@settings(max_examples=60, deadline=None)
@given(tensors=cut_stacks())
@example(tensors=shared_cut_stack())
def test_cut_gives_each_instance_its_principal_subtensor(tensors):
    # on every support, each instance reads from its group of the cut the
    # tails and coefficient bits principal_subtensor gives it, its row in
    # instance order within the group
    n = tensors[0].dim
    forms = _forms._Forms(tensors)
    for r in range(1, n + 1):
        for a in itertools.combinations(range(n), r):
            cut = forms.cut(list(a))
            for i, A in enumerate(tensors):
                sub = principal_subtensor(A, IndexSet([j + 1 for j in a], n))
                B, coef = cut.groups[cut.group[i]]
                row = coef[cut.slot[i]]
                assert (B.order, B.dim) == (sub.order, sub.dim)
                assert B._tails.shape == sub._tails.shape and np.array_equal(B._tails, sub._tails)
                assert row.shape == sub._coef.shape and row.tobytes() == sub._coef.tobytes()
            for g in range(len(cut.groups)):
                members = np.flatnonzero(cut.group == g)
                assert np.array_equal(cut.slot[members], np.arange(len(members)))
                assert len(cut.groups[g][1]) == len(members)


@st.composite
def tensor_stacks(draw):
    """1..8 tensors of one order m in 2..4 and dimension n in 1..4, on one to
    three random supports (stored zeros included), so a stack mixes tensors
    that share _tails with tensors that do not; and the orthant or a cone of
    1..4 generators."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    supports = [sparse_system(n, m, int(rng.integers(2**32)))[0]
                for _ in range(draw(st.integers(1, 3)))]
    picks = rng.integers(0, len(supports), draw(st.integers(1, 8)))
    tensors = [Tensor._from_form(m, n, supports[i]._tails,
                                 rng.uniform(-2.0, 2.0, supports[i]._coef.shape)) for i in picks]
    k = draw(st.integers(0, 4))  # 0: the orthant
    K = orthant(n) if k == 0 else from_generators(list(np.abs(rng.normal(size=(k, n))) + 0.1))
    return tensors, K


@settings(max_examples=40, deadline=None)
@given(stack=tensor_stacks(), res=st.sampled_from([4, 8, 16]), multistarts=st.integers(1, 8),
       iters=st.integers(5, 60), rung_points=st.integers(1, 40),
       stack_entries=st.integers(1, 200))
def test_stacked_minimiser_gives_each_tensor_its_own_minimum(stack, res, multistarts, iters,
                                                             rung_points, stack_entries):
    # value, witness bytes and evaluations of every tensor equal those of
    # min_over_basis on it alone, for any cut of the rungs into scored
    # pieces and of the rows into gathered blocks
    tensors, K = stack
    budget = SearchBudget(grid_resolution=res, multistarts=multistarts, polish_iters=iters)
    for objective in ("xm", "norm_m1", "abs_xm"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_simplex, "_RUNG_POINTS", rung_points)
            mp.setattr(_forms, "_STACK_ENTRIES", stack_entries)
            got = _min_over_stack(objective, tensors, K, budget)
        assert len(got) == len(tensors)
        for A, (v, x, used) in zip(tensors, got):
            v1, x1, used1 = min_over_basis(objective, A, K, budget)
            assert np.array_equal(v, v1, equal_nan=True)
            assert x.tobytes() == x1.tobytes() and used == used1


@pytest.mark.parametrize("n, k, seed", [(2, 3, 1), (3, 4, 2), (4, 5, 3), (3, 6, 4)])
def test_min_over_basis_polishes_each_start_as_alone(monkeypatch, n, k, seed):
    # on a generated cone the map from the simplex into the cone mixes the
    # generators; it must still give each start the bits it gets alone
    calls = []
    monkeypatch.setattr(_simplex, "descend_on_simplex",
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


def with_axis_zeros(A):
    """A with e_1 and e_2 in its homogeneous solution set: a_{j j..j} = 0 and
    a_{i j..j} >= 0, so A e_j^{m-1} >= 0 and A e_j^m = 0."""
    e = dict(A.entries)
    for j in (1, 2):
        for i in range(1, A.dim + 1):
            idx = (i,) + (j,) * (A.order - 1)
            e[idx] = 0.0 if i == j else abs(e.get(idx, 1.0))
    return Tensor(A.order, A.dim, e)


@pytest.mark.parametrize("kind, m, n, seed", [("general", 3, 2, 0), ("general", 3, 3, 1),
                                              ("symmetric", 4, 3, 2), ("copositive", 2, 4, 3)])
@pytest.mark.parametrize("N", [1, 8, 16])
def test_s_cone_samples_polish_each_candidate_as_alone(monkeypatch, kind, m, n, seed, N):
    # one descent from every candidate, then the keep rule, in candidate
    # order: the same samples as one descent per candidate, stopping at N
    calls = []
    monkeypatch.setattr(classify, "descend_on_simplex",
                        lambda *args: calls.append(args) or descend_on_simplex(*args))
    A = with_axis_zeros(fx.random_tensor(kind, m, n, seed))
    budget = SearchBudget()
    samples = classify.s_cone_samples(A, N, budget)
    (f, grad, L0, iters), = calls
    assert iters == budget.polish_iters and len(L0) >= 2
    ref = []
    for lam in L0:
        x = descend_on_simplex(f, grad, lam[None], iters)[0][0]
        u = x / np.linalg.norm(x)
        Fu = A.to_dense()
        for _ in range(m - 1):  # contract the last index with u
            Fu = Fu @ u
        if Fu.min() >= -budget.margin and abs(u @ Fu) <= budget.margin:
            if all(np.linalg.norm(u - p) > 1e-6 for p in ref):
                ref.append(u)
        if len(ref) >= N:
            break
    assert 1 <= len(samples) == len(ref) <= N
    assert all(np.array_equal(a, b) for a, b in zip(samples, ref))


def sparse_system(k, m, seed):
    """A random k-dimensional tensor of order m with about half its entries
    stored, some of them stored as exact zeros, and a random q."""
    rng = np.random.default_rng(seed)
    entries = {}
    for idx in itertools.product(range(1, k + 1), repeat=m):
        u = rng.random()
        if u < 0.5:
            entries[idx] = 0.0 if u < 0.1 else rng.uniform(-2.0, 2.0)
    return Tensor(m, k, entries), rng.uniform(-2.0, 2.0, k)


def reference_grid_residual(A, q, axis):
    """max_i |(A u^{m-1} + q)_i| at every point u of the grid axis^k, as its
    defining sum over A.entries, one point at a time; and a bound on the size
    of its terms (for round-off)."""
    out = np.empty((len(axis),) * A.dim)
    for a in itertools.product(range(len(axis)), repeat=A.dim):
        u = axis[list(a)]
        F = list(q)
        for idx, val in A.entries.items():
            F[idx[0] - 1] += val * math.prod(u[j - 1] for j in idx[1:])
        out[a] = max(abs(f) for f in F)
    mag = sum(abs(v) for v in A.entries.values()) * axis[-1] ** (A.order - 1)
    return out, mag + np.abs(q).max()


def full_grid_residual(A, q, axis, coef=None):
    """max_i |(A u^{m-1} + q)_i| at every point of the grid axis^k, as a
    (g,) * k array: the formula scan_system scores its blocks with, applied
    to the whole axis as one block.  coef, of A._coef's shape, stands for
    A's coefficients."""
    k = A.dim
    C = np.moveaxis(_power_coefficients(A, coef), -1, 0)
    P = axis[:, None] ** np.arange(A.order)
    F = _contract(C[:, None], [P[None]] * k)[:, 0] + q.reshape((k,) + (1,) * k)
    return np.abs(F).max(axis=0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 3), m=st.integers(2, 5), g=st.integers(2, 7),
       R=st.floats(0.01, 20.0), seed=st.integers(0, 2**32 - 1))
def test_grid_residual_matches_its_defining_sum(k, m, g, R, seed):
    A, q = sparse_system(k, m, seed)
    axis = np.linspace(0.0, R, g)
    resid = full_grid_residual(A, q, axis)
    ref, mag = reference_grid_residual(A, q, axis)
    assert resid.shape == (g,) * k
    assert np.all(np.abs(resid - ref) <= 1e-12 * mag)


def sphere_bounds_alone(A, coef, abs_sums, V, h):
    """_sphere_bounds written row first: the products (S, rows, k), and the
    squares of each row's k components summed by np.add.reduce over the
    trailing axis."""
    least = np.inf
    step = max(1, 2**16 // max(len(A._tails), 1))
    for s in range(0, len(V), step):
        F = _monomials(A, V[s:s + step]).T @ coef
        F *= F
        least = np.minimum(least, np.add.reduce(F, axis=2).min(axis=1))
    return [max(est - (A.order - 1) * a * h, 0.0)
            for est, a in zip(np.sqrt(least).tolist(), abs_sums)]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 12), m=st.integers(2, 3), S=st.integers(1, 8),
       rows=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]))
def test_sphere_bounds_keep_the_row_first_bits(k, m, S, rows, seed, bad):
    # the component-first products give every tensor of the stack the bits
    # of the row-first sum, for k below 8 (summed in order) and from 8 on
    # (pairwise); a NaN or infinite coefficient poisons only its tensor.
    # The sphere grid is replaced by random directions, so k = 12 stays
    # small, and abs_sums by 0, so no Lipschitz term clips a bound to 0
    rng = np.random.default_rng(seed)
    A = sparse_system(k, m, seed)[0] if k <= 4 else Tensor._from_form(
        m, k, np.indices((k,) * (m - 1)).reshape(m - 1, -1).T,
        rng.uniform(-2.0, 2.0, (k ** (m - 1), k)) * (rng.random((k ** (m - 1), 1)) < 0.5))
    coef = A._coef[None] * 10.0 ** rng.integers(-3, 4, (S, 1, k))
    if bad is not None and coef.shape[1]:  # one tail row of one tensor
        coef[rng.integers(S), rng.integers(coef.shape[1])] = bad
    V = np.abs(rng.normal(size=(rows, k)))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    with np.errstate(all="ignore"):
        abs_sums = [0.0] * S
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_polysys, "_sphere_grid", lambda k, res: V)
            got = _polysys._sphere_bounds(A, coef, abs_sums)
        res = 4096 if k <= 2 else (48 if k == 3 else 12)
        ref = sphere_bounds_alone(A, coef, abs_sums, V,
                                  (math.pi / 2) / (res - 1) if k == 2 else 2.0 / res)
    assert repr(got) == repr(ref)


@st.composite
def grid_systems(draw):
    """A sparse system on a grid, with heavy ties drawn in: some q_i set to
    0, some components with every coefficient 0, R down to 1e-9."""
    k, m = draw(st.integers(2, 3)), draw(st.integers(2, 5))
    A, q = sparse_system(k, m, draw(st.integers(0, 2**32 - 1)))
    zero_q = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    zero_rows = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    q[zero_q] = 0.0
    A = Tensor(m, k, {idx: v for idx, v in A.entries.items() if not zero_rows[idx[0] - 1]})
    g = draw(st.integers(2, 40 if k == 2 else 12))
    R = draw(st.sampled_from([1e-9, 1e-3]) | st.floats(0.01, 20.0))
    return A, q, np.linspace(0.0, R, g)


@settings(max_examples=80, deadline=None)
@given(system=grid_systems(), cut=st.integers(1, 8))
def test_block_bounds_bracket_every_point(system, cut):
    # any cut of the axis into runs of points: every point value of the full
    # grid lies within the bounds of its block
    A, q, axis = system
    k, g = A.dim, len(axis)
    C = np.moveaxis(_power_coefficients(A), -1, 0)
    starts = np.arange(0, g, cut)
    pos = np.minimum(starts[:, None] + np.arange(cut), g - 1)  # the last block padded
    lows, highs = (axis[pos[:, end]][None, :, None] ** np.arange(A.order) for end in (0, -1))
    low, up = _block_bounds(C[:, None], q[None], [lows] * k, [highs] * k)
    low, up = low[0], up[0]
    resid = full_grid_residual(A, q, axis)
    of_point = np.ix_(*[np.arange(g) // cut] * k)
    assert np.all(low[of_point] <= resid) and np.all(resid <= up[of_point])


@st.composite
def grid_stacks(draw):
    """1..8 systems of one grid_systems tensor's tails, each with its own
    coefficients (the tensor's, perturbed or not), q and axis; the grid
    sizes include ragged last coarse blocks (g = 40 and 130 at k = 2: 10
    and 17 fine blocks; g = 66 at k = 3: 14), and R = 1e160 makes the
    powers overflow at m >= 3, so bounds and residuals are NaN."""
    A, q, _ = draw(grid_systems())
    k, m = A.dim, A.order
    g = draw(st.integers(2, 40) | st.sampled_from([130]) if k == 2
             else st.integers(2, 12) | st.just(66))
    S = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coef = np.repeat(A._coef[None], S, axis=0)
    coef[1:] += rng.uniform(-1.0, 1.0, coef[1:].shape) * draw(st.sampled_from([0.0, 1e-3, 1.0]))
    Q = np.repeat(q[None], S, axis=0)
    Q[1:] += rng.uniform(-0.5, 0.5, Q[1:].shape) * draw(st.sampled_from([0.0, 1.0]))
    R = [draw(st.sampled_from([1e-9, 1e-3, 1e160]) | st.floats(0.01, 20.0)) for _ in range(S)]
    return A, coef, Q, np.array([np.linspace(0.0, r, g) for r in R])


def nan_block_stack():
    """1e-8 u_i^4 - 1e300 on g = 130 points up to 1.29e77: the root is at
    point 100 of each axis, u^4 overflows from point 116 on, so the coarse
    block [96, 127]^2 that holds the best points has NaN bounds, while the
    blocks below it hold more than 96 points with finite bounds."""
    A = Tensor(5, 2, {(1, 1, 1, 1, 1): 1e-8, (2, 2, 2, 2, 2): 1e-8})
    return A, A._coef[None], np.array([[-1e300, -1e300]]), np.linspace(0.0, 1.29e77, 130)[None]


@settings(max_examples=80, deadline=None)
@given(stack=grid_stacks(), N=st.integers(1, 100) | st.sampled_from([2000, 10000]))
@example(stack=(fx.identity(3, 3), fx.identity(3, 3)._coef[None],
                np.array([[-1.0, -0.5, -1.0]]), np.linspace(0.0, 2.0, 66)[None]), N=10000)
@example(stack=nan_block_stack(), N=96)
def test_pruned_selection_is_the_full_stable_argsort(stack, N):
    # every system of the stack gets the picks and least residual of the
    # full grid: a coarse block holds 4 x 4 (x 4) fine blocks, 16 points on
    # an axis at g = 130 and 20 at g = 66, so N = 10000 (and N = 2000 at
    # k = 3) needs more than one coarse block; N >= g^k selects every point
    A, coef, Q, axes = stack
    with np.errstate(all="ignore"):
        best, least = _grid_picks(A, coef, Q, axes, N)
        resid = [full_grid_residual(A, q, axis, c).ravel() for c, q, axis in zip(coef, Q, axes)]
    for b, lo, r in zip(best, least, resid):
        assert np.array_equal(b, np.argsort(r, kind="stable")[:N])
        assert repr(lo) == repr(r.min())


@settings(max_examples=16, deadline=None)
@given(k=st.integers(2, 3), m=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       multistarts=st.integers(1, 30))
def test_scan_starts_are_the_best_grid_points(k, m, seed, multistarts):
    # the starts scan_system refines are the N grid points of smallest
    # residual on the full grid, ties by index, and every coordinate is a
    # point of the axis
    A, q = sparse_system(k, m, seed)
    seen = {}
    select, refine = _polysys._grid_picks, _polysys._refine_rows

    def spy_select(A, coef, Q, axes, N):
        seen["grid"] = axes[0], N
        return select(A, coef, Q, axes, N)

    def spy_refine(forms, Q, U0, own):
        seen["starts"] = U0
        return refine(forms, Q, U0, own)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_polysys, "_grid_picks", spy_select)
        mp.setattr(_polysys, "_refine_rows", spy_refine)
        scan = scan_system(A, q, multistarts=multistarts)
    if "grid" not in seen:  # settled before the grid: sign analysis
        return
    axis, N = seen["grid"]
    assert N == max(4 * multistarts, 8)
    resid = full_grid_residual(A, q, axis)
    best = np.argsort(resid.ravel(), kind="stable")[:N]
    starts = np.column_stack([axis[a] for a in np.unravel_index(best, resid.shape)])
    assert np.array_equal(seen["starts"], starts)
    assert np.isin(seen["starts"], axis).all()
    assert scan.grid_min_residual == resid.min()


@st.composite
def instance_stacks(draw, max_n=3, extremes=False):
    """1..8 orthant TCPs of one order m in 2..4 and dimension n in 1..max_n:
    the tensors perturb one random support (shared _tails), copy it exactly
    (eps = 0) or take another support (mixed _tails); q has zero entries.
    With extremes a tensor may also be the shared support scaled by 1e-3 (a
    sphere bound at or below _C_MIN), made nonnegative with q > 0 (the sign
    test settles it) or scaled to entries of 1e306 (bounds that overflow),
    and q may be 0."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base, _ = sparse_system(n, m, int(rng.integers(2**32)))
    insts = []
    for _ in range(draw(st.integers(1, 8))):
        kind = rng.integers(6 if extremes else 3)
        if kind == 0:
            A = Tensor._from_form(m, n, base._tails,
                                  base._coef + rng.uniform(-1e-3, 1e-3, base._coef.shape))
        elif kind < 3:
            A = base if kind == 1 else sparse_system(n, m, int(rng.integers(2**32)))[0]
        elif kind == 3:
            A = base.scale(1e-3)
        elif kind == 4:
            A = Tensor._from_form(m, n, base._tails, np.abs(base._coef))
        else:
            A = base.scale(1e306 / np.abs(base._coef).max(initial=1.0))
        q = rng.uniform(-2.0, 2.0, n)
        q[rng.random(n) < 0.3] = 0.0
        if kind == 4:
            q = np.abs(q) + 0.5
        if extremes and rng.random() < 0.15:
            q = np.zeros(n)
        insts.append(TcpInstance(orthant(n), q, A))
    return insts


def outcome_bytes(outcome):
    return (outcome.unknown, [(s.x.tobytes(), s.w.tobytes(), s.primal_dist, s.dual_dist,
                               s.comp_gap, s.alpha, s.converged) for s in outcome.solutions])


@settings(max_examples=30, deadline=None)
@given(insts=instance_stacks())
def test_stacked_walk_gives_each_instance_its_own_outcome(insts):
    # every support of the stacked walk gives each instance the feasible
    # roots, slacks and settled flag of its own walk, and the stacked solve
    # the outcome of its own solve_enumerate, bit for bit
    walks = [list(walk_supports([i.A], [i.q], 16)) for i in insts]
    stacked = list(walk_supports([i.A for i in insts], [i.q for i in insts], 16))
    assert len(stacked) == 2 ** insts[0].A.dim
    for step, (alpha, feasible, settled) in enumerate(stacked):
        assert len(feasible) == len(settled) == len(insts)
        for t, walk in enumerate(walks):
            alpha1, (feasible1,), (settled1,) = walk[step]
            assert alpha == alpha1 and settled[t] == settled1
            assert [(u.tobytes(), w.tobytes()) for u, w in feasible[t]] == \
                [(u.tobytes(), w.tobytes()) for u, w in feasible1]
    for inst, outcome in zip(insts, _solve_stack(insts)):
        assert outcome_bytes(outcome) == outcome_bytes(solve_enumerate(inst))


def head_alone(A, q, multistarts):
    """The head of scan_system(A, q, multistarts) by its per-tensor rules,
    written out: the fields of the scan it settles or leaves open, and
    (starts, slack) of an open scan, else None."""
    k, m = A.dim, A.order
    rows = A.to_dense().reshape(k, -1)  # component i's entries in index order
    if np.any((np.all(rows >= 0, axis=1) & (q > 1e-12))
              | (np.all(rows <= 0, axis=1) & (q < -1e-12))):
        return (True, "sign analysis", [], False, math.inf), None
    if k == 1:
        a, q0 = float(rows[0, 0]), float(q[0])
        if abs(a) > 1e-12:
            t = -q0 / a
            roots = [np.array([t ** (1.0 / (m - 1))])] if t >= 0.0 else []
            return (t < 0.0, "scalar closed form", roots, t >= 0.0, math.inf), None
        if abs(q0) <= 1e-9:
            return (False, "scalar degenerate", [np.zeros(1)], False, math.inf), None
        return (True, "scalar zero coefficient", [], False, math.inf), None
    qn = float(np.linalg.norm(q))
    if qn <= 1e-9:
        return (False, "", [np.zeros(k)], False, qn), None
    # the sphere bound: least norm on the sphere grid less a Lipschitz term
    res = 4096 if k <= 2 else (48 if k == 3 else 12)
    est = float(np.linalg.norm(batch_apply_m1(A, _polysys._sphere_grid(k, res)), axis=1).min())
    lip = (m - 1) * float(np.max(np.abs(rows).sum(axis=1)))
    c = max(est - lip * ((math.pi / 2) / (res - 1) if k == 2 else 2.0 / res), 0.0)
    bounded = 0.05 < c < math.inf  # an overflowed (inf) or NaN bound bounds no box
    R = (qn / (0.5 * c)) ** (1.0 / (m - 1)) if bounded else (1.0 + qn) ** (1.0 / (m - 1)) * 10.0
    if k > 3:
        U = np.random.default_rng(0).random((4 * multistarts, k))
        return (False, "", [], False, math.inf), (np.vstack([np.zeros(k), R * U]), None)
    g = max(min(int(300_000 ** (1.0 / k)), 512), 8)
    axis = np.linspace(0.0, R, g)
    resid = full_grid_residual(A, q, axis)
    best = np.argsort(resid.ravel(), kind="stable")[:max(4 * multistarts, 8)]
    starts = np.column_stack([axis[a] for a in np.unravel_index(best, resid.shape)])
    slack = lip * max(R, 1.0) ** (m - 2) * (R / (g - 1)) * math.sqrt(k) / 2.0 if bounded else None
    return (False, "", [], False, float(resid.min())), (starts, slack)


def overflow_stack():
    """Two systems of order 4: 1e153 (u_1 - u_2)^3 in both components, whose
    sphere bound is 0, so its root box is unbounded and its block bounds
    overflow to NaN; and identity(4, 2) beside it."""
    cube = {(i,) + t: 1e153 * math.prod(1 if a == 1 else -1 for a in t)
            for i in (1, 2) for t in itertools.product((1, 2), repeat=3)}
    return [TcpInstance(orthant(2), np.array([-1e152, 5e151]), Tensor(4, 2, cube)),
            TcpInstance(orthant(2), np.array([-1.0, -1.0]), fx.identity(4, 2))]


def overflow_square():
    """Order 3, n = 2, both components 1e306 (u_1 - u_2)^2 and q = (-1, -1):
    the squared norms of its sphere bound overflow, so the bound is inf,
    though u = (1e-153, 0) is a root."""
    square = {(i, j, k): 1e306 * (1 if j == k else -1)
              for i in (1, 2) for j in (1, 2) for k in (1, 2)}
    return TcpInstance(orthant(2), np.array([-1.0, -1.0]), Tensor(3, 2, square))


@settings(max_examples=100, deadline=None)
@given(insts=instance_stacks(max_n=4, extremes=True), multistarts=st.integers(1, 30))
@example(insts=overflow_stack(), multistarts=24)
@example(insts=[overflow_square(), TcpInstance(orthant(2), -np.ones(2), fx.identity(3, 2))],
         multistarts=24)
def test_stacked_head_is_the_per_instance_head(insts, multistarts):
    # the sign test and start phase of a stack, grouped by _tails and run in
    # blocks of tensors, give every system the scan fields, starts and slack
    # of its own head, bit for bit (NaN included)
    tensors, qs = [i.A for i in insts], [i.q for i in insts]
    with np.errstate(all="ignore"):
        scans, heads = _polysys._scan_heads(_forms._Forms(tensors), np.array(qs), multistarts)
        for A, q, scan, head in zip(tensors, qs, scans, heads):
            fields, ref = head_alone(A, q, multistarts)
            got = (scan.certified_infeasible, scan.reason, scan.roots, scan.roots_complete,
                   scan.grid_min_residual)
            assert repr(got[:2] + got[3:]) == repr(fields[:2] + fields[3:])
            assert [u.tobytes() for u in got[2]] == [u.tobytes() for u in fields[2]]
            assert (head is None) == (ref is None)
            if head is not None:
                assert head[0].tobytes() == ref[0].tobytes() and head[0].shape == ref[0].shape
                assert repr(head[1]) == repr(ref[1])


def test_overflow_stack_has_a_nan_grid_minimum():
    # the example above reaches the NaN branch: no box bound, block bounds
    # that overflow, so every block is scored and the grid minimum is NaN,
    # beside a finite system
    (A, q), _ = [(i.A, i.q) for i in overflow_stack()]
    with np.errstate(all="ignore"):
        scans, heads = _polysys._scan_heads(_forms._Forms([A, fx.identity(4, 2)]),
                                            np.array([q, [-1.0, -1.0]]), 24)
        points = np.linspace(0.0, 1e52, 4)[None, :, None] ** np.arange(4)  # blocks of one point
        _, up = _block_bounds(np.moveaxis(_power_coefficients(A), -1, 0)[:, None], q[None],
                              [points] * 2, [points] * 2)
    assert heads[0][1] is None and np.isnan(up).any()
    assert math.isnan(scans[0].grid_min_residual) and math.isfinite(scans[1].grid_min_residual)


def test_overflowed_sphere_bound_certifies_nothing():
    # an inf sphere bound gave R = 0, and the box [0, 0] certified the
    # system infeasible; it now bounds no box, so the scan is inconclusive
    inst = overflow_square()
    assert np.array_equal(apply_m1(inst.A, np.array([1e-153, 0.0])) + inst.q, [0.0, 0.0])
    with np.errstate(all="ignore"):
        assert _polysys.min_sphere_norm(inst.A) == math.inf
        scan = scan_system(inst.A, inst.q)
        (alpha, _, settled), = [s for s in walk_supports([inst.A], [inst.q], 24)
                                if len(s[0]) == 2]
    assert not scan.certified_infeasible and scan.reason.startswith("no box bound")
    assert settled == [False]


def test_overflowed_bounds_raise_no_warning():
    # the start phase's bounds may overflow to inf or NaN, as their docstrings
    # say; that is no fault, so under warnings as errors the scan, the sphere
    # bound and the membership still return what they return
    inst = overflow_square()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = scan_system(inst.A, inst.q)
        bound = _polysys.min_sphere_norm(inst.A)
        res = q_membership(inst.A, inst.q)
    assert scan.reason == "no box bound (near-singular on the orthant)"
    assert scan.roots == [] and not scan.certified_infeasible and not scan.roots_complete
    assert math.isnan(scan.grid_min_residual) and bound == math.inf
    assert res.member and res.alpha.members == (1,) and np.array_equal(res.u, [1e-153, 0.0])


@settings(max_examples=40, deadline=None)
@given(insts=instance_stacks(), seed=st.integers(0, 2**32 - 1))
def test_solved_rows_is_is_solution_row_by_row(insts, seed):
    # random rows, some just outside the orthant, checked at 1e-9 and at
    # tolerances equal to (and one ulp below) residuals of the rows
    rng = np.random.default_rng(seed)
    n = insts[0].A.dim
    own = rng.integers(0, len(insts), 16)
    X = rng.uniform(-1e-8, 2.0, (16, n))
    X[rng.random((16, n)) < 0.4] = 0.0
    triples = [residual(insts[o], x) for o, x in zip(own, X)]
    tols = [1e-9] + [t for r in triples[:4] for v in r for t in (v, np.nextafter(v, 0.0))]
    for tol in tols:
        got = solver._solved_rows(insts, X, own, tol)
        assert got.tolist() == [is_solution(insts[o], x, tol) for o, x in zip(own, X)]


@pytest.mark.parametrize("n", [2, 3])
def test_solved_rows_at_the_tolerance_and_the_snap(n):
    # rows whose verdict turns on one ulp: a primal, a dual and a gap residual
    # of exactly 1e-9, and a primal distance at dist's snap boundary
    # 1e-12 max(1, ||x||) (above 1e-9 here); each with its next float out
    A, zero = fx.random_tensor("general", 3, n, 5), Tensor(3, n, {})

    def out(v):  # the next float away from 0
        return np.nextafter(v, 2 * v)

    e0, en = np.eye(n)[0], np.eye(n)[-1]
    snap = 1e-12 * 1e4
    rows = []  # (x, tensor, q)
    for v in (-1e-9, out(-1e-9)):
        x = v * e0
        rows.append((x, A, -apply_m1(A, x)))  # w = 0
    for v in (-1e-9, out(-1e-9)):
        rows.append((np.zeros(n), A, v * e0))  # w = q at x = 0
    for v in (1e-9, out(1e-9)):
        rows.append((e0, zero, v * e0))  # x.w = v
    for v in (snap, out(snap)):
        x = 1e4 * e0 - v * en
        rows.append((x, A, -apply_m1(A, x)))
    insts = [TcpInstance(orthant(n), q, T) for _, T, q in rows]
    X = np.array([x for x, _, _ in rows])
    got = solver._solved_rows(insts, X, np.arange(len(rows)), 1e-9)
    assert got.tolist() == [is_solution(i, x, 1e-9) for i, x in zip(insts, X)]
    assert got.tolist() == [True, False] * 4


def dedup_loop(roots, tol=1e-6):
    """The dedup rule as a plain loop: in lexicographic order, keep a root
    when it is more than tol from every root kept before it."""
    kept = []
    for u in sorted(roots, key=tuple):
        if all(np.linalg.norm(u - w) > tol for w in kept):
            kept.append(u)
    return kept


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 4), S=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_dedup_keeps_the_roots_of_the_plain_loop(k, S, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 2.0, (3, k))
    roots = centers[rng.integers(0, 3, S)] + rng.normal(0.0, 1e-6, (S, k))
    roots[rng.random(S) < 0.2, 0] = 1.0  # some ties in the first coordinate
    kept, ref = roots[_dedup(roots)], dedup_loop(list(roots))
    assert len(kept) == len(ref)
    assert all(np.array_equal(a, b) for a, b in zip(kept, ref))


def test_scan_system_memory_stays_blocked():
    # the 512 x 512 residual grid alone would be 2 MiB; its 64 coarse blocks
    # are bounded, then the 16 blocks inside each of the 4 coarse ones that
    # can hold a start, and only the blocks that can hold one are scored
    # (1 024 points here), so the peak is the sphere bound, the Newton rows
    # and the block bounds, about 0.2 MiB
    A, q = fx.identity(3, 2), np.array([-1.0, -1.0])
    scan_system(A, q)
    tracemalloc.start()
    try:
        scan = scan_system(A, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scan.roots) == 1 and np.allclose(scan.roots[0], [1.0, 1.0])
    assert peak <= 2**20


def test_perturb_existence_gates_stay_blocked():
    # the 50 trial tensors are gated by the Bernstein enclosure, its leaves
    # bounded in blocks (a tensor it left open would go to one stacked
    # descent, its rungs past the third scored in pieces of about 1 024
    # points), and solved in one stacked walk that cuts the trials'
    # coefficients once per support, runs their start phase 8 tensors at a
    # time (the sphere bound in blocks of about 2^16 products), and refines
    # 3 200 rows in place, the coefficients gathered 512 rows at a time:
    # about 0.85 MiB in all, the start phase and the Newton rows the
    # largest parts
    inst = TcpInstance(orthant(2), np.array([-1.0, -1.0]), fx.identity(3, 2))
    stability.perturb_existence(inst, 1e-3, 50, seed=7)
    tracemalloc.start()
    try:
        report = stability.perturb_existence(inst, 1e-3, 50, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.solvable_fraction == 1.0
    assert peak <= 2**20


def test_usc_probe_stays_blocked():
    # the 51 instances are the sparse base, a _tails group of its own, and
    # the 50 dense trials, cut once per support; the trials' start phase
    # runs 8 tensors at a time, and the Newton stage refines their rows in
    # place: about 0.85 MiB
    inst = TcpInstance(orthant(2), np.array([-1.0, -1.0]), fx.identity(3, 2))
    stability.usc_probe(inst, 1e-3, 50, seed=7)
    tracemalloc.start()
    try:
        report = stability.usc_probe(inst, 1e-3, 50, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["unsolved_trials"] == 0 and report["base_solution_count"] == 1
    assert peak <= 2**20


# --- the Bernstein enclosure of the probes' gates ---------------------------

MARGIN = SearchBudget().margin
CLEAR_AT = {"xm": -0.5 * MARGIN, "abs_xm": 2.0 * MARGIN, "norm_m1": 2.0 * MARGIN}


def basis_grid(K, res):
    """The points x = G lam of the basis, lam on the lattice of step 1/res
    of the simplex, G the normalized generators of K."""
    G = np.column_stack([np.asarray(g, float) / np.linalg.norm(g) for g in K.generators])
    k = G.shape[1]
    lam = np.array([c for c in itertools.product(range(res + 1), repeat=k) if sum(c) == res]) / res
    return lam @ G.T


def grid_objective(objective, D, X):
    """The basis objective of the dense tensor D at every row of X, by einsum."""
    m = D.ndim
    F = np.einsum(D, list(range(m)), *[a for j in range(1, m) for a in (X, [m, j])], [m, 0])
    if objective == "norm_m1":
        return np.sqrt((F * F).sum(axis=1))
    xm = (X * F).sum(axis=1)
    return np.abs(xm) if objective == "abs_xm" else xm


def enclosure_stack(n, m, K, seed):
    """Dense tensors around every verdict threshold: random ones, near-unit
    ones perturbed at eps 1e-2..1e-5, the negative unit tensor, a
    copositive form with a zero inside the basis (like E4's), and two
    families scaled across +-margin that are constant on the basis: the
    form s (1'lam)^m, and s (1'lam)^{m-1} in row 1 only."""
    rng = np.random.default_rng(seed)
    G = np.column_stack([np.asarray(g, float) / np.linalg.norm(g) for g in K.generators])
    c = np.linalg.solve(G.T, np.ones(n))  # c'G = 1', so c'x = 1'lam
    power = c
    for _ in range(m - 2):
        power = np.multiply.outer(power, c)
    flat, row = np.multiply.outer(c, power), np.zeros((n,) * m)
    row[0] = power
    unit = np.zeros((n,) * m)
    unit[(np.arange(n),) * m] = 1.0
    out = [rng.normal(size=(n,) * m) for _ in range(4)]
    out += [unit + eps * rng.normal(size=(n,) * m) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
    out += [-unit, unit - flat / n ** (m - 1)]  # on the orthant the second is 0 at the barycentre
    out += [s * MARGIN * T for T in (flat, row)
            for s in (-3.0, -1.0, -0.75, -0.5, -0.25, 0.0, 0.5, 1.0, 1.5, 1.9, 2.1, 3.0)]
    return out


@pytest.mark.parametrize("generated", [False, True])
@pytest.mark.parametrize("n, m", [(n, m) for n in (2, 3, 4) for m in (2, 3, 4)])
def test_bernstein_clears_only_what_holds(n, m, generated):
    # every cleared tensor holds by the stacked descent and clears its
    # threshold on a dense grid of the basis; the unit tensor (and its
    # negative, under the two-sided rules) is cleared, which takes cuts
    rng = np.random.default_rng(10 * n + m)
    K = from_generators(list(np.eye(n) + 0.3 * rng.random((n, n)))) if generated else orthant(n)
    dense = enclosure_stack(n, m, K, seed=n * m)
    tensors = [tensor_from_dense(D) for D in dense]
    X = basis_grid(K, {2: 512, 3: 48, 4: 16}[n])
    budget = SearchBudget()
    for objective in ("xm", "abs_xm", "norm_m1"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cleared = _simplex._bernstein_clears(objective, tensors, K, budget.margin)
        assert cleared[4] and (objective == "xm" or cleared[8])  # unit + 1e-2 noise, -unit
        if not generated:
            assert cleared[7] and (objective != "xm" or cleared[9])  # eps 1e-5; a zero inside
        picked = np.flatnonzero(cleared)
        for t, (v, x, used) in zip(picked, _min_over_stack(objective, [tensors[t] for t in picked],
                                                           K, budget)):
            vd = (classify._psd_verdict("", budget, v, x, used) if objective == "xm"
                  else classify._nonsingular_verdict(budget, v, x, used))
            assert vd.status == "holds", (objective, t, v)
            assert grid_objective(objective, dense[t], X).min() >= CLEAR_AT[objective], (objective, t)


def test_bernstein_clears_nothing_that_overflows():
    # entries of 1e306: the descent's squares overflow, so nothing is
    # cleared, and the enclosure raises no warning
    A = tensor_from_dense(np.full((2, 2, 2), 1e306))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for objective in ("xm", "abs_xm", "norm_m1"):
            assert not _simplex._bernstein_clears(objective, [A, fx.identity(3, 2)], orthant(2),
                                                  MARGIN)[0]
