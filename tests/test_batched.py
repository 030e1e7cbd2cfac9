"""The row-batched iterative routines against their one-start rule.

damped_newton takes every start as one row of an array.  Each row must
follow the documented one-start rule on its own: the tests run it alone,
and through a plain per-start loop written here from the docstring, and
compare bit for bit.  The maps written here (dense cubic forms, x * x - c)
are evaluated with elementwise products and sums over trailing axes, so a
row's value never depends on the other rows of its batch.  The maps that
the polish of the enclosures builds must keep that property too, and are
checked the same way.  damped_newton tells its maps which start each row
comes from, so the stacked support walk refines the starts of many
instances in one call, and must give every instance what its own walk and
solve_enumerate give it; its row solve keeps the regular rows batched when
some are singular, with the bits of a plain per-row loop.  The stacked
basis enclosure must give every tensor what min_over_basis gives it alone.

The scan of a stack of systems must give every system the scan it gets
alone, its starts must be the centroids of the leaves its shallow
subdivision leaves open, and its root dedup must keep the roots of a
plain loop written here.  The walk's one cut of each group's sub-forms per
support must give every instance what principal_subtensor gives it.

The Bernstein enclosure that decides the probes' gates must hold only for
tensors whose objective clears the enclosure's threshold on a dense einsum
grid written here, and give each the status its public verdict gives it.
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
from tcpkit._polysys import _dedup, scan_system, walk_supports
from tcpkit._simplex import MARGIN, damped_newton
from tcpkit.classify import _holds, _minima, min_over_basis
from tcpkit.compcones import q_membership
from tcpkit.cones import from_generators, orthant
from tcpkit.solver import TcpInstance, _solve_stack, is_solution, residual, solve_enumerate
from tcpkit.tensor import (IndexSet, Tensor, _dense_stack, _derivative, _rows_m1, apply_m1,
                           jacobian_m1, principal_subtensor, tensor_from_dense)


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
        got = _simplex._solve_rows(J, b)
    ref, lone = solve_rows_loop(J, b)
    assert got.tobytes() == ref.tobytes()
    assert len(calls) == len(lone)
    assert all(s in lone for s in bad if not J[s].any(axis=1).all())  # the zero rows


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


def forms_fields(forms, own=True):
    """Every group of a _Forms, bit for bit: its tensor's order, dimension,
    tails and (if own) coefficients, its stacked coefficients, and each
    instance's group and slot."""
    return ([(A.order, A.dim, A._tails.tobytes(), A._tails.shape, own and A._coef.tobytes(),
              A._coef.shape, coef.tobytes(), coef.shape) for A, coef in forms.groups],
            forms.group.tolist(), forms.slot.tolist(), forms.off)


@st.composite
def dense_stacks(draw):
    """1..12 dense (n,) * m arrays whose rows (the n entries of one tail)
    are zeroed on per-instance patterns, some to -0.0 and some to a mix of
    0.0 and -0.0, so instances share, or do not share, their nonzero rows."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S, rows = draw(st.integers(1, 12)), n ** (m - 1)
    D = np.round(rng.uniform(-2.0, 2.0, (S, n, rows)), 1)  # 0.0 and -0.0 among them
    patterns = rng.random((draw(st.integers(1, 3)), rows)) < 0.4
    zero = patterns[rng.integers(0, len(patterns), S)][:, None, :]
    D = np.where(zero, np.where(rng.random(D.shape) < 0.5, -0.0, 0.0), D)
    D[rng.random(D.shape) < 0.1] = -0.0
    return D.reshape((S,) + (n,) * m)


@settings(max_examples=80, deadline=None)
@given(D=dense_stacks())
@example(D=np.array([[[-0.0, -0.0], [0.0, -0.0]], [[1.0, 0.0], [0.0, 2.0]]]).reshape(1, 2, 2, 2))
def test_dense_forms_are_the_forms_of_the_dense_tensors(D):
    # the forms built from the stack itself have the groups, in order, and
    # the coefficient bits of the forms of its tensors: each instance keeps
    # its nonzero rows, a -0.0 is stored as 0.0, and an all-zero row (of
    # -0.0 too) is dropped
    got, ref = _forms._Forms.dense(D), _forms._Forms(_dense_stack(D))
    assert forms_fields(got) == forms_fields(ref)
    assert not any((np.signbit(coef) & (coef == 0.0)).any() for _, coef in got.groups)
    X = np.random.default_rng(len(D)).uniform(-1.0, 1.0, (3 * len(D), D.shape[1]))
    own = np.repeat(np.arange(len(D)), 3)
    assert got.m1(X, own).tobytes() == ref.m1(X, own).tobytes()


@settings(max_examples=60, deadline=None)
@given(D=dense_stacks(), seed=st.integers(0, 2**32 - 1))
def test_forms_take_is_the_forms_of_the_rows(D, seed):
    # the walk's forms of its live instances: those of their tensors alone,
    # groups in order of their first instance among the rows; a group's
    # tensor gives its tails, and keeps the coefficients of the instance it
    # was built from, which nothing reads
    tensors = _dense_stack(D)
    rng = np.random.default_rng(seed)
    rows = np.flatnonzero(rng.random(len(D)) < 0.6)
    got = _forms._Forms(tensors).take(rows)
    assert forms_fields(got, False) == forms_fields(_forms._Forms([tensors[i] for i in rows]), False)


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
@given(stack=tensor_stacks(), block=st.integers(1, 2**14), stack_entries=st.integers(1, 200))
def test_stacked_minimiser_gives_each_tensor_its_own_minimum(stack, block, stack_entries):
    # value, witness bytes, evaluations and lower bound of every tensor equal
    # those of min_over_basis on it alone, for any cut of the leaves into
    # blocks and of the polished rows into gathered blocks
    tensors, K = stack
    for objective in ("xm", "norm_m1", "abs_xm"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_simplex, "_CLEAR_BLOCK", block)
            mp.setattr(_forms, "_STACK_ENTRIES", stack_entries)
            got = _minima(objective, tensors, K)
        assert len(got) == len(tensors)
        for A, (v, x, used, lower) in zip(tensors, got):
            v1, x1, used1, lower1 = min_over_basis(objective, A, K)
            assert np.array_equal([v, lower], [v1, lower1], equal_nan=True)
            assert x.tobytes() == x1.tobytes() and used == used1


def assert_newton_rows_end_as_alone(calls):
    """Every row of every recorded damped_newton call ends as the plain loop
    ends its start alone (still known to the maps as start s)."""
    for F, J, X0, iters, tol in calls:
        X, r = damped_newton(F, J, X0, iters, tol)
        for s in range(len(X0)):
            xs, rs = newton_one_start(F, J, X0[s], iters, tol, lambda v: v, row=s)
            assert np.array_equal(X[s], xs) and r[s] == rs


@pytest.mark.parametrize("n, k, seed", [(2, 3, 1), (3, 4, 2), (4, 5, 3), (3, 6, 4)])
def test_min_over_basis_polishes_each_start_as_alone(monkeypatch, n, k, seed):
    # on a generated cone the map from the simplex into the cone mixes the
    # generators; every polished start must still end where it ends alone.
    # A x^3 = (d.x) |x|^2 plus a little noise, d the difference of two unit
    # generators, changes sign inside the basis, so its zeros are polished
    calls = []
    monkeypatch.setattr(_simplex, "damped_newton",
                        lambda *args: calls.append(args) or damped_newton(*args))
    rng = np.random.default_rng(seed)
    gens = np.abs(rng.normal(size=(k, n))) + 0.1
    K = from_generators(list(gens))
    d = gens[0] / np.linalg.norm(gens[0]) - gens[1] / np.linalg.norm(gens[1])
    A = tensor_from_dense(np.einsum("i,jk->ijk", d, np.eye(n))
                          + 0.01 * fx.random_tensor("general", 3, n, seed).to_dense())
    for objective in ("xm", "norm_m1", "abs_xm"):
        min_over_basis(objective, A, K)
    assert calls
    assert_newton_rows_end_as_alone(calls)


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
    # the candidates of every face size are polished in one damped Newton,
    # each row ending where it ends alone; then the keep rule, in candidate
    # order: the same samples, stopping at N, e_1 and e_2 first
    calls, polished = [], []
    monkeypatch.setattr(_simplex, "damped_newton",
                        lambda *args: calls.append(args) or damped_newton(*args))

    def spy(forms, own, G, L0, rows):
        start, L = polish(forms, own, G, L0, rows)
        polished.extend((G[start] @ L[:, :, None])[:, :, 0])
        return start, L

    polish = classify._polish
    monkeypatch.setattr(classify, "_polish", spy)
    A = with_axis_zeros(fx.random_tensor(kind, m, n, seed))
    samples = classify.s_cone_samples(A, N)
    assert_newton_rows_end_as_alone(calls)
    ref = []
    for x in polished:
        u = x / np.linalg.norm(x)
        Fu = A.to_dense()
        for _ in range(m - 1):  # contract the last index with u
            Fu = Fu @ u
        if Fu.min() >= -MARGIN and abs(u @ Fu) <= MARGIN:
            if all(np.linalg.norm(u - p) > 1e-6 for p in ref):
                ref.append(u)
    assert 1 <= len(samples) == min(len(ref), N)
    assert all(np.array_equal(a, b) for a, b in zip(samples, ref))
    assert np.array_equal(samples[0], np.eye(n)[0]) and (N == 1 or np.array_equal(samples[1], np.eye(n)[1]))


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


@settings(max_examples=16, deadline=None)
@given(k=st.integers(2, 4), m=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_scan_starts_are_the_open_leaf_centroids(k, m, seed):
    # the starts scan_system refines are the centroids c of the leaves its
    # shallow subdivision leaves open, at u = c_u / c_t: at most 64 leaves,
    # each a simplex in the standard simplex of R^{k+1} whose vertices are
    # dyadic after at most 8 cuts
    A, q = sparse_system(k, m, seed)
    seen = {}
    subdivide, refine = _polysys._subdivide, _polysys._refine_rows

    def spy_subdivide(*args):
        out = subdivide(*args)
        seen.setdefault("leaves", out[1])
        return out

    def spy_refine(forms, Q, U0, own):
        seen["starts"] = U0
        return refine(forms, Q, U0, own)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_polysys, "_subdivide", spy_subdivide)
        mp.setattr(_polysys, "_refine_rows", spy_refine)
        scan = scan_system(A, q)
    if "starts" not in seen:  # settled before the enclosure: sign analysis or q = 0
        return
    W = seen["leaves"]
    c = W.mean(axis=2)
    assert np.array_equal(seen["starts"], c[:, :k] / c[:, k:])
    assert len(W) <= 64 and W.shape[1:] == (k + 1, k + 1)
    assert np.all(W >= 0.0) and np.all(W.sum(axis=1) == 1.0)
    assert np.array_equal(W * 2**8, np.round(W * 2**8))
    if not len(W):  # every leaf cleared in the shallow pass
        assert scan.certified_infeasible and not scan.roots



@st.composite
def instance_stacks(draw, max_n=3, extremes=False):
    """1..8 orthant TCPs of one order m in 2..4 and dimension n in 1..max_n:
    the tensors perturb one random support (shared _tails), copy it exactly
    (eps = 0) or take another support (mixed _tails); q has zero entries.
    With extremes a tensor may also be the shared support scaled by 1e-3,
    made nonnegative with q > 0 (the sign test settles it) or scaled to
    entries of 1e306 (enclosures and Newton rows that overflow), and q may
    be 0."""
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
    return (outcome.unknown, outcome.open_supports,
            [(s.x.tobytes(), s.w.tobytes(), s.primal_dist, s.dual_dist, s.comp_gap, s.alpha,
              s.converged) for s in outcome.solutions])


def stack(insts):
    """(forms, Q, cone), the arrays the stacked entry points take, of
    instances of one cone."""
    return _forms._Forms([i.A for i in insts]), np.array([i.q for i in insts]), insts[0].cone


def walk_lists(step, count):
    """A step (alpha, U, slack, owner, open_) of walk_supports over count
    instances as (alpha, the (u, slack) pairs of every instance's feasible
    roots, why each instance is open: "" when settled)."""
    alpha, U, slack, owner, open_ = step
    assert len(U) == len(slack) == len(owner) and len(open_) == count
    return (alpha, [[(u, w) for u, w, o in zip(U, slack, owner) if o == t] for t in range(count)],
            [_polysys._REASONS[c] for c in open_])


@settings(max_examples=30, deadline=None)
@given(insts=instance_stacks())
def test_stacked_walk_gives_each_instance_its_own_outcome(insts):
    # every support of the stacked walk gives each instance the feasible
    # roots, slacks and settled flag of its own walk, and the stacked solve
    # the outcome of its own solve_enumerate, bit for bit
    walks = [[walk_lists(s, 1) for s in walk_supports(*stack([i])[:2])] for i in insts]
    stacked = [walk_lists(s, len(insts))
               for s in walk_supports(*stack(insts)[:2])]
    assert len(stacked) == 2 ** insts[0].A.dim
    for step, (alpha, feasible, settled) in enumerate(stacked):
        assert len(feasible) == len(settled) == len(insts)
        for t, walk in enumerate(walks):
            alpha1, (feasible1,), (settled1,) = walk[step]
            assert alpha == alpha1 and settled[t] == settled1
            assert [(u.tobytes(), w.tobytes()) for u, w in feasible[t]] == \
                [(u.tobytes(), w.tobytes()) for u, w in feasible1]
    found = _solve_stack(*stack(insts))
    for t, inst in enumerate(insts):
        assert outcome_bytes(solver._outcome(found, t)) == outcome_bytes(solve_enumerate(inst))


def scan_fields(scan):
    """Every field of a SystemScan, its roots by bytes."""
    return (scan.certified_infeasible, scan.reason, [u.tobytes() for u in scan.roots],
            scan.roots_complete)


def overflow_stack():
    """Two systems of order 4: 1e153 (u_1 - u_2)^3 in both components, zero
    on the line u_1 = u_2 up to its root at infinity, whose Newton rows
    overflow; and identity(4, 2) beside it."""
    cube = {(i,) + t: 1e153 * math.prod(1 if a == 1 else -1 for a in t)
            for i in (1, 2) for t in itertools.product((1, 2), repeat=3)}
    return [TcpInstance(orthant(2), np.array([-1e152, 5e151]), Tensor(4, 2, cube)),
            TcpInstance(orthant(2), np.array([-1.0, -1.0]), fx.identity(4, 2))]


def overflow_square():
    """Order 3, n = 2, both components 1e306 (u_1 - u_2)^2 and q = (-1, -1):
    its roots u_1 - u_2 = +-1e-153, such as u = (1e-153, 0), and q itself
    lie far below the rounding slack of its enclosure."""
    square = {(i, j, k): 1e306 * (1 if j == k else -1)
              for i in (1, 2) for j in (1, 2) for k in (1, 2)}
    return TcpInstance(orthant(2), np.array([-1.0, -1.0]), Tensor(3, 2, square))


def overflow_slack():
    """Order 3, n = 2, both components 1e308 (u_1^2 - u_1 u_2 + u_2^2) and
    q = (1, 1), a system with no root: the sum of |entries| of its
    homogenization overflows, so its rounding slack is inf."""
    D = 1e308 * np.array([[1.0, -0.5], [-0.5, 1.0]])
    return TcpInstance(orthant(2), np.ones(2), tensor_from_dense(np.array([D, D])))


@settings(max_examples=100, deadline=None)
@given(insts=instance_stacks(max_n=4, extremes=True))
@example(insts=overflow_stack())
@example(insts=[overflow_square(), TcpInstance(orthant(2), -np.ones(2), fx.identity(3, 2))])
@example(insts=[overflow_slack(), TcpInstance(orthant(2), np.array([1.0, -1.0]), fx.E1())])
def test_stacked_scan_is_the_per_instance_scan(insts):
    # the sign test, the subdivision and the Newton stage of a stack,
    # grouped by _tails, give every system the scan it gets alone, bit for
    # bit (NaN included)
    tensors, qs = [i.A for i in insts], [i.q for i in insts]
    with np.errstate(all="ignore"):
        scans = _polysys._scan_stack(_forms._Forms(tensors), np.array(qs),
                                     list(range(tensors[0].dim)))
        alone = [scan_system(A, q) for A, q in zip(tensors, qs)]
    assert len(scans.reason) == len(insts) and np.array_equal(scans.owner, np.sort(scans.owner))
    assert [repr(scan_fields(_polysys._system_scan(scans, i))) for i in range(len(insts))] == \
        [repr(scan_fields(s)) for s in alone]


def test_overflowed_sphere_bound_certifies_nothing():
    # a rounding slack that overflows clears no leaf: the scan of a system
    # with no root stays open and names the overflow, the walk leaves its
    # support open for that reason, and the sphere bound shows nothing
    inst = overflow_slack()
    with np.errstate(all="ignore"):
        assert _polysys.min_sphere_norm(inst.A) == 0.0
        scan = scan_system(inst.A, inst.q)
        (alpha, _, open_), = [walk_lists(s, 1) for s in walk_supports(*stack([inst])[:2])
                              if len(s[0]) == 2]
    assert not scan.certified_infeasible and scan.reason == _polysys._OPEN[4]
    assert open_ == [scan.reason]


def test_overflowed_bounds_raise_no_warning():
    # the enclosure of 1e306 (u_1 - u_2)^2 may overflow, as _subdivide's
    # docstring says; that is no fault, so under warnings as errors the
    # scan, the sphere bound and the membership still return what they
    # return.  q = (-1, -1) lies far below the enclosure's rounding slack
    # 2^-30 sum|a|, so the vertex u = 0 is a near-root the scan names
    inst = overflow_square()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = scan_system(inst.A, inst.q)
        bound = _polysys.min_sphere_norm(inst.A)
        res = q_membership(inst.A, inst.q)
    assert scan.reason == _polysys._OPEN[1]
    assert scan.roots == [] and not scan.certified_infeasible and not scan.roots_complete
    assert bound == 0.0
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
        got = solver._solved_rows(*stack(insts), X, own, tol)
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
    got = solver._solved_rows(*stack(insts), X, np.arange(len(rows)), 1e-9)
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
    kept, ref = roots[_dedup(roots, np.zeros(S, dtype=np.intp))], dedup_loop(list(roots))
    assert len(kept) == len(ref)
    assert all(np.array_equal(a, b) for a, b in zip(kept, ref))


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 4), sizes=st.lists(st.integers(0, 12), min_size=1, max_size=30),
       seed=st.integers(0, 2**32 - 1))
def test_segment_dedup_keeps_every_systems_plain_loop_roots(k, sizes, seed):
    # the roots of a stack of systems, some with none, shuffled together:
    # clusters, ties in the first coordinate, and chains 0.6 _DEDUP_DIST
    # apart, of which the greedy rule keeps every other point.  _dedup
    # orders what it keeps by system, and keeps of each what the plain loop
    # keeps of its roots alone
    rng = np.random.default_rng(seed)
    rows, owner, chains = [], [], {}
    for i, size in enumerate(sizes):
        kind = rng.integers(3)
        if kind == 0:
            centers = rng.uniform(0.0, 2.0, (2, k))
            pts = centers[rng.integers(0, 2, size)] + rng.normal(0.0, 1e-6, (size, k))
        elif kind == 1:
            step = np.abs(rng.normal(size=k)) + 0.1
            step *= 0.6 * _polysys._DEDUP_DIST / np.linalg.norm(step)
            pts, chains[i] = rng.uniform(0.0, 2.0, k) + np.arange(size)[:, None] * step, size
        else:
            pts = rng.uniform(0.0, 3e-6, (size, k))
            pts[:, 0] = 1.0
        rows.append(pts)
        owner += [i] * size
    X, own = np.concatenate(rows).reshape(-1, k), np.array(owner, dtype=np.intp)
    perm = rng.permutation(len(X))
    X, own = X[perm], own[perm]
    keep = _dedup(X, own)
    assert np.array_equal(own[keep], np.sort(own[keep]))
    for i in range(len(sizes)):
        kept, ref = X[keep[own[keep] == i]], dedup_loop(list(X[own == i]))
        assert len(kept) == len(ref)
        assert i not in chains or len(kept) == (chains[i] + 1) // 2  # every other point
        assert all(np.array_equal(a, b) for a, b in zip(kept, ref))


@pytest.mark.parametrize("m, n", [(3, 3), (4, 2)])
def test_stacked_solve_of_a_sparse_base_and_dense_trials(m, n):
    # as usc_probe stacks them: the sparse identity tensor beside dense
    # perturbations of it, two tail groups of _Forms.  Every support of the
    # stacked walk and the stacked solve give each instance what it gets
    # alone, bit for bit
    base = TcpInstance(orthant(n), -np.ones(n), fx.identity(m, n))
    *_, D, Q = stability._perturbations(base.A.to_dense(), base.q,
                                        stability._trial_streams(5, 11), 0.3)
    insts = [base] + [TcpInstance(base.cone, q, tensor_from_dense(A)) for A, q in zip(D, Q)]
    assert len(_forms._Forms([i.A for i in insts]).groups) == 2
    stacked = [walk_lists(s, len(insts)) for s in walk_supports(*stack(insts)[:2])]
    for t, inst in enumerate(insts):
        for (alpha, feasible, why), (alpha1, (feasible1,), (why1,)) in zip(
                stacked, [walk_lists(s, 1) for s in walk_supports(*stack([inst])[:2])]):
            assert alpha == alpha1 and why[t] == why1
            assert [(u.tobytes(), w.tobytes()) for u, w in feasible[t]] == \
                [(u.tobytes(), w.tobytes()) for u, w in feasible1]
    found = _solve_stack(*stack(insts))
    assert np.array_equal(found[1], np.sort(found[1]))  # by instance
    for t, inst in enumerate(insts):
        assert outcome_bytes(solver._outcome(found, t)) == outcome_bytes(solve_enumerate(inst))
    assert any(outcome.solutions for outcome in map(solve_enumerate, insts))


def bisect_reference(W):
    """_bisect by its definition: each leaf cut at the midpoint of its
    longest edge, the first of all k x k pairs (a, b) in row-major order,
    each squared length summed over the coordinates in order."""
    halves = []
    for w in W:
        k, best, cut = len(w), -1.0, None
        for a in range(k):
            for b in range(k):
                d2 = 0.0
                for c in range(k):
                    d2 += (w[c, a] - w[c, b]) * (w[c, a] - w[c, b])
                if d2 > best:
                    best, cut = d2, (a, b)
        a, b = cut
        mid = 0.5 * (w[:, a] + w[:, b])
        for j in (a, b):
            h = w.copy()
            h[:, j] = mid
            halves.append(h)
    return np.array(halves).reshape(-1, *W.shape[1:])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_bisect_cuts_the_first_longest_edge(k):
    # the standard simplex ties every edge, its halves tie some; four rounds
    # of cuts, random leaves and leaves with a repeated vertex (a zero edge
    # among longer ties) against the definition over every pair
    W = np.eye(k)[None]
    leaves = [W]
    for _ in range(4):
        W = _simplex._bisect(W)
        leaves.append(W)
    rng = np.random.default_rng(k)
    R = rng.dirichlet(np.ones(k), size=(6, k)).transpose(0, 2, 1)
    twin = np.eye(k)[None].repeat(2, axis=0)
    twin[:, :, -1] = twin[:, :, 0]
    for W in leaves + [R, twin, 0.5 * np.round(4 * R) / 2]:
        assert _simplex._bisect(W).tobytes() == bisect_reference(W).tobytes()


def test_scan_system_memory_stays_blocked():
    # the shallow subdivision bounds its leaves in blocks of about 2^14
    # coefficients and keeps 16 open leaves here, whose centroids are the
    # Newton rows: about 23 KiB
    A, q = fx.identity(3, 2), np.array([-1.0, -1.0])
    scan_system(A, q)
    tracemalloc.start()
    try:
        scan = scan_system(A, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scan.roots) == 1 and np.allclose(scan.roots[0], [1.0, 1.0])
    assert peak <= 2**17


def test_perturb_existence_gates_stay_blocked():
    # the 50 trial tensors are gated by the Bernstein enclosure, its leaves
    # bounded in blocks (a tensor it left open would go to one stacked
    # descent, its rungs past the third scored in pieces of about 1 024
    # points), and solved in one stacked walk that cuts the trials'
    # coefficients once per support, subdivides their homogenized systems
    # as one stack in blocks of leaves, and refines the open leaves'
    # centroids in place, the coefficients gathered 512 rows at a time:
    # about 0.45 MiB in all
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
    # the 50 dense trials, cut once per support; their subdivision bounds
    # leaves in blocks, and the Newton stage refines their rows in place:
    # about 0.45 MiB
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
    families scaled across +-MARGIN that are constant on the basis: the
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
    # every tensor the stacked gate passes holds by its public verdict and
    # clears its threshold on a dense grid of the basis; the unit tensor
    # (and its negative, under the two-sided rules) passes, which takes cuts
    rng = np.random.default_rng(10 * n + m)
    K = from_generators(list(np.eye(n) + 0.3 * rng.random((n, n)))) if generated else orthant(n)
    dense = enclosure_stack(n, m, K, seed=n * m)
    tensors = [tensor_from_dense(D) for D in dense]
    X = basis_grid(K, {2: 512, 3: 48, 4: 16}[n])
    verdict = {"xm": classify.is_K_psd, "abs_xm": classify.is_K_regular,
               "norm_m1": classify.is_K_nonsingular}
    for objective in ("xm", "abs_xm", "norm_m1"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cleared = _holds(objective, np.array(dense), K)
        assert cleared[4] and (objective == "xm" or cleared[8])  # unit + 1e-2 noise, -unit
        if not generated:
            assert cleared[7] and (objective != "xm" or cleared[9])  # eps 1e-5; a zero inside
        for t, held in enumerate(cleared):
            assert held == (verdict[objective](tensors[t], K).status == "holds")
            if held:
                assert grid_objective(objective, dense[t], X).min() >= CLEAR_AT[objective], \
                    (objective, t)


def test_bernstein_clears_nothing_that_overflows():
    # entries of 1.5e308: the sum of |entries|, and so the rounding slack,
    # overflows, so no leaf clears; entries of 1e306 keep every sum finite
    # and hold; neither raises a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for objective in ("xm", "abs_xm", "norm_m1"):
            for c, held in ((1.5e308, False), (1e306, True)):
                D = np.array([np.full((2, 2, 2), c), fx.identity(3, 2).to_dense()])
                assert _holds(objective, D, orthant(2)) == [held, True]
