import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcpkit import fixtures as fx
from tcpkit.compcones import complementary_tensor
from tcpkit.tensor import (
    IndexSet,
    ShapeError,
    Tensor,
    _dense_stack,
    apply_m,
    apply_m1,
    apply_m2,
    apply_off,
    batch_apply_m1,
    frobenius_distance,
    is_subsymmetric,
    is_symmetric,
    jacobian_m1,
    power_vec,
    principal_subtensor,
    tensor_from_dense,
    tensor_from_json,
    tensor_to_json,
    unit_tensor,
)

from conftest import fd_jacobian


def random_tensors():
    return st.builds(
        fx.random_tensor,
        st.sampled_from(["general", "symmetric", "subsymmetric"]),
        st.integers(2, 4),
        st.integers(2, 3),
        st.integers(0, 10_000),
    )


def vectors_for(A, draw_floats):
    return np.array(draw_floats[: A.dim])


class TestConstruction:
    def test_zero_entries_dropped(self):
        A = Tensor(2, 2, {(1, 1): 0.0, (1, 2): 3.0})
        assert A.nnz == 1

    def test_bad_index_length(self):
        with pytest.raises(ShapeError):
            Tensor(3, 2, {(1, 1): 1.0})

    def test_index_out_of_range(self):
        with pytest.raises(ShapeError):
            Tensor(2, 2, {(1, 3): 1.0})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Tensor(2, 2, {(1, 1): math.inf})

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            Tensor(1, 2, {})

    def test_immutable(self):
        A = Tensor(2, 2, {(1, 1): 1.0})
        with pytest.raises(TypeError):
            A.entries[(1, 2)] = 5.0

    @pytest.mark.parametrize("idx", [(1.5, 1), (1, 2.0000001), (math.nan, 1)])
    def test_non_integral_index_rejected(self, idx):
        with pytest.raises(ShapeError):
            Tensor(2, 2, {idx: 1.0})

    def test_integral_float_index_accepted(self):
        assert dict(Tensor(2, 2, {(1.0, 2.0): 3.0}).entries) == {(1, 2): 3.0}

    @pytest.mark.parametrize("order, dim", [(2.7, 2), (2, 2.5), (math.inf, 2)])
    def test_non_integral_order_or_dim_rejected(self, order, dim):
        with pytest.raises(ValueError):
            Tensor(order, dim, {})


class TestContractions:
    def test_e1_apply_m1(self, e1):
        # component 1 is x2^2 + 2 x1 x2, component 2 is x1^2 + 2 x1 x2
        assert np.allclose(apply_m1(e1, [1.0, 1.0]), [3.0, 3.0])

    def test_unit_tensor_power(self):
        I = unit_tensor(3, 2)
        assert np.allclose(apply_m1(I, [2.0, 3.0]), [4.0, 9.0])

    def test_e2_axis_annihilated(self, e2):
        assert np.allclose(apply_m1(e2, [1.0, 0.0]), [0.0, 0.0])

    def test_e1_apply_m(self, e1):
        # 3 x1 x2 (x1 + x2) at (1, 2)
        assert apply_m(e1, [1.0, 2.0]) == pytest.approx(18.0)

    def test_e4_apply_m_factored(self, e4):
        # (x1 + x2)(x1 - x2)^2 vanishes on the diagonal
        assert apply_m(e4, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_apply_m_zero(self, e1):
        assert apply_m(e1, [0.0, 0.0]) == 0.0

    def test_e1_apply_m2(self, e1):
        assert np.allclose(apply_m2(e1, [1.0, 1.0]), [[1.0, 2.0], [2.0, 1.0]])

    def test_identity_apply_m2(self):
        I = unit_tensor(3, 2)
        assert np.allclose(apply_m2(I, [1.0, 1.0]), np.eye(2))

    def test_order2_apply_m2_is_matrix(self, e3bar):
        assert np.allclose(apply_m2(e3bar, [5.0, 7.0]),
                           [[1.0, -2.0], [1.0, -2.0]])

    def test_dimension_mismatch(self, e1):
        with pytest.raises(ShapeError):
            apply_m1(e1, [1.0, 2.0, 3.0])

    def test_unit_tensor_m4(self):
        assert apply_m(unit_tensor(4, 2), [1.0, 1.0]) == pytest.approx(2.0)


class TestJacobian:
    def test_e1_symmetric_matches_m2(self, e1):
        x = np.array([1.0, 1.0])
        num = fd_jacobian(lambda v: apply_m1(e1, v), x)
        assert np.allclose(2.0 * apply_m2(e1, x), num, rtol=1e-6, atol=1e-6)

    def test_exact_jacobian_general(self):
        A = fx.random_tensor("general", 3, 3, seed=42)
        x = np.array([0.3, -1.2, 0.7])
        num = fd_jacobian(lambda v: apply_m1(A, v), x)
        assert np.allclose(jacobian_m1(A, x), num, rtol=1e-5, atol=1e-5)

    def test_subsymmetric_law(self):
        for seed in range(5):
            A = fx.random_tensor("subsymmetric", 3, 2, seed=seed)
            x = np.array([0.5 + seed, 1.5])
            assert np.allclose(jacobian_m1(A, x),
                               (A.order - 1) * apply_m2(A, x), atol=1e-12)


class TestSubtensors:
    def test_e1_singleton_is_zero(self, e1):
        sub = principal_subtensor(e1, IndexSet((2,), 2))
        assert sub.nnz == 0 and sub.dim == 1

    def test_e4_singleton(self, e4):
        sub = principal_subtensor(e4, IndexSet((1,), 2))
        assert dict(sub.entries) == {(1, 1, 1): 1.0}

    def test_full_subset_identity(self, e1):
        sub = principal_subtensor(e1, IndexSet((1, 2), 2))
        assert dict(sub.entries) == dict(e1.entries)

    def test_empty_subset_rejected(self, e1):
        with pytest.raises(ValueError):
            principal_subtensor(e1, IndexSet((), 2))

    @pytest.mark.parametrize("members, n", [((1.5, 2.9), 3), ((1, 2.0000001), 3),
                                            ((math.nan,), 2), ((1,), 2.5), ((1,), math.inf)])
    def test_non_integral_index_set_rejected(self, members, n):
        # int() would truncate them: (1.5, 2.9) would become (1, 2)
        with pytest.raises(ValueError):
            IndexSet(members, n)

    def test_integral_float_index_set_accepted(self):
        iset = IndexSet((3.0, 1, np.int64(2)), 3.0)
        assert iset == IndexSet((1, 2, 3), 3) and iset.n == 3 and iset.complement == ()

    def test_apply_off_e1(self, e1):
        out = apply_off(e1, IndexSet((1,), 2), np.array([1.0]))
        assert np.allclose(out, [1.0])  # a_211

    def test_apply_off_e4(self, e4):
        t = 3.0
        out = apply_off(e4, IndexSet((2,), 2), np.array([t]))
        assert np.allclose(out, [-t * t])  # a_122 = -1

    def test_block_law(self):
        # A x^{m-1} at (u_alpha, 0) splits into the principal and off blocks
        for seed in range(10):
            A = fx.random_tensor("general", 3, 3, seed=seed)
            alpha = IndexSet((1, 3), 3)
            u = np.array([0.7, 1.3])
            x = np.array([u[0], 0.0, u[1]])
            full = apply_m1(A, x)
            assert np.allclose(full[[0, 2]],
                               apply_m1(principal_subtensor(A, alpha), u))
            assert np.allclose(full[[1]], apply_off(A, alpha, u))


class TestHelpers:
    def test_power_vec(self):
        assert np.allclose(power_vec([4.0, 9.0], 0.5), [2.0, 3.0])
        assert np.allclose(power_vec([2.0, 3.0], 2), [4.0, 9.0])
        x = np.array([5.0, -1.0])
        assert np.allclose(power_vec(x, 1), x)
        with pytest.raises(ValueError):
            power_vec([-1.0], 0.5)

    def test_symmetry_checks(self, e4):
        sym = Tensor(3, 2, {idx: 1.0 for idx in
                            [(1, 2, 2), (2, 1, 2), (2, 2, 1),
                             (2, 1, 1), (1, 2, 1), (1, 1, 2)]})
        assert is_symmetric(sym)
        assert not is_subsymmetric(e4)  # a_112 = -1 but a_121 = 0
        I = unit_tensor(3, 2)
        assert is_symmetric(I) and is_subsymmetric(I)

    def test_frobenius_family(self, e3bar):
        assert frobenius_distance(fx.E3_family(1), e3bar) == 1.0
        assert frobenius_distance(e3bar, e3bar) == 0.0
        z = Tensor(2, 2, {})
        assert frobenius_distance(z, unit_tensor(2, 2)) == pytest.approx(
            math.sqrt(2.0))

    def test_frobenius_shape_mismatch(self, e1, e3bar):
        with pytest.raises(ShapeError):
            frobenius_distance(e1, e3bar)


class TestJson:
    def test_round_trip(self, e1):
        assert dict(tensor_from_json(tensor_to_json(e1)).entries) == dict(e1.entries)

    def test_duplicate_idx_rejected(self):
        obj = {"order": 2, "dim": 2,
               "entries": [{"idx": [1, 1], "val": 1.0},
                           {"idx": [1, 1], "val": 2.0}]}
        with pytest.raises(ValueError):
            tensor_from_json(obj)

    def test_dense_round_trip(self, e4):
        assert dict(tensor_from_dense(e4.to_dense()).entries) == dict(e4.entries)

    @pytest.mark.parametrize("key, value", [
        ("order", 2.7), ("dim", 2.5), ("order", "2.5"),
        ("idx", [1.5, 1]), ("idx", [1, 2.25]),
    ])
    def test_non_integral_rejected(self, key, value):
        obj = {"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "val": 1.0}]}
        if key == "idx":
            obj["entries"][0]["idx"] = value
        else:
            obj[key] = value
        with pytest.raises(ValueError):
            tensor_from_json(obj)

    @pytest.mark.parametrize("arr", [
        [[math.nan, 1.0], [1.0, 1.0]],
        [[math.inf, 1.0], [1.0, 1.0]],
    ])
    def test_dense_non_finite_rejected(self, arr):
        with pytest.raises(ValueError):
            tensor_from_dense(np.array(arr))
        with pytest.raises(ValueError):  # one bad tensor fails its whole stack
            _dense_stack(np.array([np.ones((2, 2)), arr]))

    def test_dense_stack_builds_each_tensor_alone(self, e4):
        # each tensor keeps its own nonzero rows: a zero, a -0.0 and a small
        # entry in one tensor change nothing in the others
        rng = np.random.default_rng(5)
        sparse = np.zeros((3, 3, 3))
        sparse[1, 0, 2], sparse[2, 2, 2], sparse[0, 1, 1] = -0.0, 0.3, 1e-3
        stack = [np.pad(e4.to_dense(), ((0, 1),) * 3), np.zeros((3, 3, 3)), sparse,
                 rng.normal(size=(3, 3, 3))]
        got = _dense_stack(np.array(stack))
        assert got == [tensor_from_dense(arr) for arr in stack]
        for T, arr in zip(got, stack):
            assert dict(T.entries) == {tuple(i + 1 for i in idx): float(arr[idx])
                                       for idx in np.ndindex(arr.shape) if arr[idx] != 0}


class TestBatch:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_batch_matches_single(self, m):
        # batch_apply_m1 is apply_m1 on a stack: every row has the bits it
        # gets alone
        A = fx.random_tensor("general", m, 3, seed=m)
        X = np.vstack([[[0.1, 0.5, 2.0], [1.0, 0.0, 0.3], [0.0, 0.0, 0.0]],
                       np.random.default_rng(m).uniform(-1.0, 1.0, (1200, 3))])
        batch = batch_apply_m1(A, X)
        for i, x in enumerate(X):
            assert np.array_equal(batch[i], apply_m1(A, x))


@settings(max_examples=60, deadline=None)
@given(A=random_tensors(),
       coords=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       t=st.floats(0, 4))
def test_homogeneity(A, coords, t):
    x = np.array(coords[: A.dim])
    lhs = apply_m1(A, t * x)
    rhs = t ** (A.order - 1) * apply_m1(A, x)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(A=random_tensors(),
       coords=st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_contraction_consistency(A, coords):
    x = np.array(coords[: A.dim])
    F = apply_m1(A, x)
    assert apply_m(A, x) == float(np.dot(x, F))  # identical summation order
    assert np.allclose(apply_m2(A, x) @ x, F, rtol=1e-12, atol=1e-9)


@st.composite
def sparse_tensors(draw, max_order=5):
    m = draw(st.integers(2, max_order))
    n = draw(st.integers(1, 4))
    idx = st.tuples(*[st.integers(1, n)] * m)
    return Tensor(m, n, draw(st.dictionaries(idx, st.floats(-2, 2), max_size=12)))


def reference_products(A, x):
    """A x^{m-1}, A x^{m-2} and the Jacobian from their defining sums over
    A.entries, with a bound on the size of every term (for round-off)."""
    n = A.dim
    F, M, J = np.zeros(n), np.zeros((n, n)), np.zeros((n, n))
    mag = 1.0
    for idx, val in A.entries.items():
        i, tail = idx[0] - 1, [j - 1 for j in idx[1:]]
        F[i] += val * math.prod(x[j] for j in tail)
        M[i, tail[0]] += val * math.prod(x[j] for j in tail[1:])
        for p, j in enumerate(tail):
            J[i, j] += val * math.prod(x[k] for q, k in enumerate(tail) if q != p)
        mag += abs(val) * math.prod(max(abs(x[j]), 1.0) for j in tail)
    return F, M, J, mag


def reference_off(A, alpha, u):
    """sum a_{i j2...jm} u_{j2}...u_{jm} over rows i outside alpha and
    trailing indices inside alpha."""
    pos = {j: k for k, j in enumerate(alpha)}
    comp = [i for i in range(1, A.dim + 1) if i not in pos]
    out = np.zeros(len(comp))
    for idx, val in A.entries.items():
        if idx[0] not in pos and all(j in pos for j in idx[1:]):
            out[comp.index(idx[0])] += val * math.prod(u[pos[j]] for j in idx[1:])
    return out


@settings(max_examples=200, deadline=None)
@given(A=sparse_tensors(),
       coords=st.lists(st.floats(-3, 3), min_size=20, max_size=20),
       alpha_bits=st.integers(0, 15))
@example(A=Tensor(3, 2, {}), coords=[0.5] * 20, alpha_bits=1)
@example(A=Tensor(4, 1, {(1, 1, 1, 1): 2.5}), coords=[-1.5] * 20, alpha_bits=1)
def test_products_match_reference(A, coords, alpha_bits):
    n = A.dim
    x = np.array(coords[:n])
    F, M, J, mag = reference_products(A, x)
    tol = 1e-12 * mag
    assert np.allclose(apply_m1(A, x), F, rtol=0, atol=tol)
    assert np.allclose(apply_m2(A, x), M, rtol=0, atol=tol)
    assert np.allclose(jacobian_m1(A, x), J, rtol=0, atol=tol)

    X = np.array(coords[4:4 + 4 * n]).reshape(4, n)
    refs = [reference_products(A, row) for row in X]
    assert np.allclose(batch_apply_m1(A, X), [r[0] for r in refs], rtol=0,
                       atol=1e-12 * max(r[3] for r in refs))

    alpha = [i + 1 for i in range(n) if alpha_bits >> i & 1]
    if 0 < len(alpha) < n:
        u = x[[i - 1 for i in alpha]]
        assert np.allclose(apply_off(A, IndexSet(alpha, n), u),
                           reference_off(A, alpha, u), rtol=0, atol=tol)


@settings(max_examples=100, deadline=None)
@given(A=sparse_tensors(),
       coords=st.lists(st.floats(-3, 3), min_size=64, max_size=64),
       S=st.integers(1, 16))
def test_stacked_products_are_rowwise_exact(A, coords, S):
    # every row of a stack gets exactly the bits it gets alone
    n = A.dim
    X = np.array(coords[: S * n]).reshape(S, n)
    F, J = apply_m1(A, X), jacobian_m1(A, X)
    assert F.shape == (S, n) and J.shape == (S, n, n)
    for s in range(S):
        assert np.array_equal(F[s], apply_m1(A, X[s]))
        assert np.array_equal(J[s], jacobian_m1(A, X[s]))
        Fr, _, Jr, mag = reference_products(A, X[s])
        assert np.allclose(F[s], Fr, rtol=0, atol=1e-12 * mag)
        assert np.allclose(J[s], Jr, rtol=0, atol=1e-12 * mag)


def test_stacked_products_reject_bad_shapes(e1):
    for bad in (np.zeros((2, 3)), np.zeros((1, 2, 2)), 1.0):
        with pytest.raises(ShapeError):
            apply_m1(e1, bad)
        with pytest.raises(ShapeError):
            jacobian_m1(e1, bad)
    with pytest.raises(ShapeError):
        apply_m(e1, np.zeros((3, 2)))


@settings(max_examples=150, deadline=None)
@given(A=sparse_tensors(max_order=4), alpha_bits=st.integers(1, 15))
def test_principal_subtensor_matches_definition(A, alpha_bits):
    members = [i + 1 for i in range(A.dim) if alpha_bits >> i & 1] or [1]
    # the defining rule: keep the entries with every index in alpha, renumbered
    pos = {i: k + 1 for k, i in enumerate(members)}
    expected = {tuple(pos[i] for i in idx): val for idx, val in A.entries.items()
                if all(i in pos for i in idx)}
    sub = principal_subtensor(A, IndexSet(members, A.dim))
    assert (sub.order, sub.dim) == (A.order, len(members))
    assert dict(sub.entries) == expected


def is_sorted_form(T):
    """Sorted, distinct _tails rows, no all-zero _coef row, and no -0.0
    (which would leak into the signs of zero products)."""
    rows = [tuple(r) for r in T._tails.tolist()]
    return (all(a < b for a, b in zip(rows, rows[1:]))
            and bool(np.all(np.any(T._coef != 0.0, axis=1)))
            and not np.any(np.signbit(T._coef[T._coef == 0.0])))


def nonzero(entries):
    return {k: v for k, v in entries.items() if v != 0.0}


def reference_invariant(A, first):
    """Every entry equals the entries at all permutations of its index
    positions first, ..., m-1."""
    for idx, val in A.entries.items():
        for perm in itertools.permutations(idx[first:]):
            if A.entries.get(idx[:first] + perm, 0.0) != val:
                return False
    return True


@st.composite
def nearly_symmetric_tensors(draw):
    """Tensors symmetric in every index position from `first` on, with
    sometimes one entry of an orbit deleted."""
    m, n, first = draw(st.integers(2, 5)), draw(st.integers(1, 4)), draw(st.integers(0, 1))
    entries = {}
    for idx in draw(st.lists(st.tuples(*[st.integers(1, n)] * m), max_size=5)):
        val = draw(st.floats(-2, 2).filter(bool))
        for perm in itertools.permutations(idx[first:]):
            entries[idx[:first] + perm] = val
    if entries and draw(st.booleans()):
        del entries[draw(st.sampled_from(sorted(entries)))]
    return Tensor(m, n, entries)


@settings(max_examples=150, deadline=None)
@given(A=sparse_tensors(), B=sparse_tensors(), alpha_bits=st.integers(0, 15),
       t=st.floats(-3, 3), S=nearly_symmetric_tensors())
def test_derived_tensors_match_definitions(A, B, alpha_bits, t, S):
    m, n = A.order, A.dim
    ents = dict(A.entries)
    members = [i + 1 for i in range(n) if alpha_bits >> i & 1]
    derived = []

    if members:
        pos = {i: k + 1 for k, i in enumerate(members)}
        sub = principal_subtensor(A, IndexSet(members, n))
        assert dict(sub.entries) == {tuple(pos[i] for i in idx): v
                                     for idx, v in ents.items() if all(i in pos for i in idx)}
        derived.append(sub)

    comp = complementary_tensor(A, IndexSet(members, n))
    expected = {idx: -v for idx, v in ents.items() if all(i in members for i in idx[1:])}
    expected.update({(i,) * m: 1.0 for i in range(1, n + 1) if i not in members})
    assert dict(comp.entries) == expected
    derived.append(comp)

    dense = np.zeros((n,) * m)
    for idx, v in ents.items():
        dense[tuple(i - 1 for i in idx)] = v
    from_dense = tensor_from_dense(dense)
    assert dict(from_dense.entries) == ents
    derived.append(from_dense)

    scaled = A.scale(t)
    assert dict(scaled.entries) == nonzero({k: t * v for k, v in ents.items()})
    derived.append(scaled)

    if (B.order, B.dim) == (m, n):
        total = dict(ents)
        for k, v in B.entries.items():
            total[k] = total.get(k, 0.0) + v
        added = A + B
        assert dict(added.entries) == nonzero(total)
        derived.append(added)

    for T in derived + [A]:
        assert is_sorted_form(T)
        assert T == Tensor(T.order, T.dim, dict(T.entries))
        assert T.nnz == len(T.entries)

    # scale and + can overflow, and still refuse to build a non-finite
    # tensor, with the ValueError alone: a numpy warning first fails here
    big = A + unit_tensor(m, n).scale(1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            big.scale(10.0)
        with pytest.raises(ValueError):
            big + big
        with pytest.raises(ValueError):
            big.scale(math.inf)

    for T in (A, S):
        assert is_symmetric(T) == reference_invariant(T, 0)
        assert is_subsymmetric(T) == reference_invariant(T, 1)
