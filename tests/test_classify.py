import inspect
import itertools
import math

import numpy as np
import pytest

import tcpkit
from tcpkit import classify
from tcpkit import fixtures as fx
from tcpkit.classify import (
    all_principal_nonsingular,
    is_copositive,
    is_K_nonsingular,
    is_K_pd,
    is_K_psd,
    is_K_regular,
    is_strictly_copositive,
    min_over_basis,
    q_in_dual_SA,
    s_cone_samples,
)
from tcpkit.cones import from_generators, orthant
from tcpkit.tensor import (IndexSet, ShapeError, Tensor, apply_m, apply_m1, principal_subtensor,
                           tensor_from_dense, unit_tensor)


class TestMinOverBasis:
    def test_e1_min_zero_on_axis(self, e1):
        v, x, *_ = min_over_basis("xm", e1, orthant(2))
        assert v == pytest.approx(0.0, abs=1e-9)
        assert min(x) == pytest.approx(0.0, abs=1e-9)  # an axis point

    def test_identity_simplex_minimum(self):
        # min of x1^3 + x2^3 on the standard simplex is 0.25 at (.5, .5)
        v, x, *_ = min_over_basis("xm", unit_tensor(3, 2), orthant(2))
        assert v == pytest.approx(0.25, abs=1e-9)
        assert np.allclose(x, [0.5, 0.5], atol=1e-6)

    def test_e4_min_on_diagonal(self, e4):
        v, x, *_ = min_over_basis("xm", e4, orthant(2))
        assert v == pytest.approx(0.0, abs=1e-9)
        assert x[0] == pytest.approx(x[1], abs=1e-4)



class TestCopositivity:
    def test_e1_holds(self, e1):
        assert is_copositive(e1).status == "holds"

    def test_e4_holds(self, e4):
        assert is_copositive(e4).status == "holds"

    def test_negative_diagonal_fails(self):
        A = Tensor(3, 2, {(1, 1, 1): -1.0})
        v = is_copositive(A)
        assert v.status == "fails"
        assert np.allclose(v.witness, [1.0, 0.0])
        assert apply_m(A, v.witness) < -1e-6  # witness re-check

    def test_scale_invariance(self, e1, e4):
        for A in (e1, e4):
            assert is_copositive(A.scale(7.5)).status == is_copositive(A).status


class TestStrictCopositivity:
    def test_identity_holds(self):
        assert is_strictly_copositive(unit_tensor(3, 2)).status == "holds"

    def test_e1_fails_on_axis(self, e1):
        v = is_strictly_copositive(e1)
        assert v.status == "fails"
        assert min(abs(v.witness)) == pytest.approx(0.0, abs=1e-9)
        assert apply_m(e1, v.witness) <= 0.0

    def test_e4_fails_on_diagonal(self, e4):
        v = is_strictly_copositive(e4)
        assert v.status == "fails"
        assert np.allclose(v.witness, [1, 1] / np.sqrt(2), atol=1e-6)

    def test_pd_implies_nonsingular(self):
        for seed in range(5):
            A = fx.random_tensor("copositive", 3, 2, seed=seed)
            if is_K_pd(A, orthant(2)).status == "holds":
                assert is_K_nonsingular(A, orthant(2)).status == "holds"


class TestRegularity:
    def test_identity_regular(self):
        assert is_K_regular(unit_tensor(3, 2), orthant(2)).status == "holds"

    def test_e1_fails(self, e1):
        v = is_K_regular(e1, orthant(2))
        assert v.status == "fails"
        assert abs(apply_m(e1, v.witness)) <= 1e-9

    def test_e2_fails(self, e2):
        assert is_K_regular(e2, orthant(2)).status == "fails"


class TestNonsingularity:
    def test_e1_nonsingular(self, e1):
        assert is_K_nonsingular(e1, orthant(2)).status == "holds"

    def test_e2_singular_with_witness(self, e2):
        v = is_K_nonsingular(e2, orthant(2))
        assert v.status == "fails"
        assert np.linalg.norm(apply_m1(e2, v.witness)) <= 1e-9
        # the cited singular direction certifies too
        assert np.linalg.norm(apply_m1(e2, [1.0, 0.0])) == 0.0

    def test_e3bar_singular(self, e3bar):
        v = is_K_nonsingular(e3bar, orthant(2))
        assert v.status == "fails"
        assert np.allclose(v.witness, np.array([2.0, 1.0]) / math.sqrt(5),
                           atol=1e-5)

    def test_general_cone(self):
        K = from_generators([[2.0, 1.0], [1.0, 2.0]])
        # E3bar's kernel direction (2,1) lies in K, so it is K-singular
        A = Tensor(2, 2, {(1, 1): 1.0, (1, 2): -2.0, (2, 1): 1.0, (2, 2): -2.0})
        assert is_K_nonsingular(A, K).status == "fails"


class TestConeDimension:
    # every basis search serves one cone and tensor of one dimension
    def test_orthant_of_other_dimension(self, e4):
        with pytest.raises(ShapeError):
            is_K_nonsingular(e4, orthant(3))

    def test_generated_cone_of_other_dimension(self, e1):
        K = from_generators([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        for check in (is_K_psd, is_K_regular, is_K_nonsingular):
            with pytest.raises(ShapeError):
                check(e1, K)
        with pytest.raises(ShapeError):
            min_over_basis("xm", e1, K)


class TestPrincipalSweep:
    def test_e4_all_hold(self, e4):
        v = all_principal_nonsingular(e4)
        assert v.status == "holds"
        assert set(v.per_alpha) == {"1", "2", "1,2"}

    def test_e2_fails_at_full_subset(self, e2):
        v = all_principal_nonsingular(e2)
        assert v.status == "fails"
        assert v.per_alpha["1,2"] == "fails"

    def test_unit_tensor_holds(self):
        assert all_principal_nonsingular(unit_tensor(3, 3)).status == "holds"


def per_subset_sweep(A):
    """all_principal_nonsingular as one is_K_nonsingular call per subset:
    (status, certificate, witness, per_alpha, budget_used)."""
    table, worst, used, status, witness = {}, None, 0, "holds", None
    for r in range(1, A.dim + 1):
        for alpha in itertools.combinations(range(1, A.dim + 1), r):
            vd = is_K_nonsingular(principal_subtensor(A, IndexSet(alpha, A.dim)), orthant(r))
            used += vd.budget_used
            table[",".join(map(str, alpha))] = vd.status
            if vd.status == "fails" and status != "fails":
                status, worst, witness = "fails", vd, np.zeros(A.dim)
                for k, i in enumerate(alpha):
                    witness[i - 1] = vd.witness[k]
            elif vd.status == "unknown" and status == "holds":
                status, worst = "unknown", vd
    return status, None if worst is None else worst.certificate, witness, table, used


def singular_first_slice(seed):
    """A random m=3, n=3 tensor with a_1jk = a_j1k = 0 for every j, k: its
    sub-tensor on (1,) is zero, so the sweep fails there."""
    D = fx.random_tensor("general", 3, 3, seed).to_dense()
    D[0, 0, :] = D[0, :, 0] = 0.0
    return tensor_from_dense(D)


@pytest.mark.parametrize("A", [fx.E1(), fx.E2(), fx.E4(), fx.E2() + unit_tensor(3, 2).scale(1e-7),
                               singular_first_slice(1)]
                         + [fx.random_tensor("general", 3, 3, s) for s in range(3)],
                         ids=["E1", "E2", "E4", "E2-shifted", "m3n3-singular"]
                         + [f"m3n3-{s}" for s in range(3)])
def test_principal_sweep_is_the_per_subset_loop(A):
    # the sub-tensors of each size are checked in one stack; every field of
    # the verdict is that of one is_K_nonsingular call per subset, bit for bit
    # (E2 shifted by 1e-7 times the unit tensor is unknown on every subset)
    v = all_principal_nonsingular(A)
    status, cert, witness, table, used = per_subset_sweep(A)
    assert (v.status, repr(v.certificate), v.per_alpha, v.budget_used) == \
        (status, repr(cert), table, used)
    assert (v.witness is None and witness is None) or v.witness.tobytes() == witness.tobytes()


class TestSCone:
    def test_e1_samples_on_axes(self, e1):
        pts = s_cone_samples(e1, 10)
        assert pts
        for p in pts:
            assert min(p) == pytest.approx(0.0, abs=1e-6)  # axis points only

    def test_q_in_dual(self, e1):
        assert q_in_dual_SA(e1, [1.0, 1.0]).status == "holds"
        v = q_in_dual_SA(e1, [1.0, -1.0])
        assert v.status == "fails"
        assert float(np.dot([1.0, -1.0], v.witness)) < -1e-6

    def test_holds_note_names_the_enclosure(self, e1):
        assert "every leaf" in q_in_dual_SA(e1, [1.0, 1.0]).note

    def test_q_is_validated(self, e2):
        # as q_membership checks it: the shape, then every entry finite
        with pytest.raises(ShapeError):
            q_in_dual_SA(e2, [1.0, 1.0, 1.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="q has a non-finite entry"):
                q_in_dual_SA(e2, [bad, 1.0])


def s_cone_family():
    """30 tensors of order 3 (n = 2 and 3 in turn), each with a point x of
    S_A = SOL(0, A) inside the simplex, and a q with q.x / |x| = -0.4: a
    seeded general tensor whose entries A[:, 1, 1] (1-based) are moved so
    that A x^2 = 0 at a seeded interior point x."""
    for s in range(30):
        n = 2 + s % 2
        D = fx.random_tensor("general", 3, n, 900 + s).to_dense()
        rng = np.random.default_rng(900 + s)
        x = rng.dirichlet(np.ones(n))
        D[:, 0, 0] -= np.einsum("ijk,j,k->i", D, x, x) / x[0] ** 2
        u = x / np.linalg.norm(x)
        r = rng.normal(size=n)
        yield tensor_from_dense(D), r - (r @ u + 0.4) * u, x


def test_q_in_dual_never_holds_against_a_point_of_s_a():
    # q.x < 0 at a point x of S_A, so q is not in its dual: never holds, and
    # every fails witness is a unit point of S_A to the margin with q.w < 0
    margin, statuses = 1e-6, []
    for A, q, x in s_cone_family():
        assert np.abs(apply_m1(A, x)).max() <= 1e-12
        v = q_in_dual_SA(A, q)
        statuses.append(v.status)
        if v.status == "fails":
            w, F = v.witness, apply_m1(A, v.witness)
            assert np.linalg.norm(w) == pytest.approx(1.0) and w.min() >= 0.0
            assert F.min() >= -margin and abs(w @ F) <= margin and q @ w < -margin
    assert "holds" not in statuses


class TestVerdictPlumbing:
    def test_json_shape(self, e1):
        obj = is_copositive(e1).to_json()
        assert obj["status"] == "holds"
        assert set(obj) >= {"property", "status", "certificate", "witness"}

    def test_zero_witness_is_no_failure(self):
        # a minimum at x = 0 is no point of the basis: unknown, not fails
        vd = classify._three_valued("K-regular", 0.0, np.zeros(2), 1, False, True)
        assert vd.status == "unknown" and vd.witness is None

    def test_unknown_objective_is_rejected(self, e1):
        with pytest.raises(ValueError, match="xm, norm_m1, abs_xm"):
            min_over_basis("foo", e1, orthant(2))

    def test_negative_sample_count_is_rejected(self, e1):
        with pytest.raises(ValueError, match="N must be >= 0"):
            s_cone_samples(e1, -1)
        assert s_cone_samples(e1, 0) == []

    def test_no_entry_takes_a_margin(self):
        # the decision margin is one constant, _simplex.MARGIN: no exported
        # name takes it, or a verdict's name, and the dense constructor and
        # the tangent cone take no tolerance
        functions = [name for name in tcpkit.__all__ if inspect.isfunction(getattr(tcpkit, name))]
        assert len(functions) >= 40
        for name in functions:
            params = set(inspect.signature(getattr(tcpkit, name)).parameters)
            assert not params & {"margin", "property_name"}, name
            if name in ("tensor_from_dense", "tangent_cone"):
                assert "tol" not in params, name


def scaled_cases(c):
    """m = 3, n = 2 tensors of entries of size c, with their statuses under
    (K-regular, K-nonsingular, strictly copositive, copositive) on the
    orthant and the basis minima of the verdicts that hold: every entry c
    (A x^2 = c (x1 + x2)^2 (1, 1)); c times the unit tensor (minima at
    (1/2, 1/2)); and c (x1^3 - x2^3), which is zero at x1 = x2 and negative
    at e2."""
    full = Tensor(3, 2, {idx: c for idx in itertools.product((1, 2), repeat=3)})
    diff = Tensor(3, 2, {(1, 1, 1): c, (2, 2, 2): -c})
    return [(full, ("holds",) * 4, (c, c * math.sqrt(2.0), c, c)),
            (unit_tensor(3, 2).scale(c), ("holds",) * 4,
             (c / 4, c * math.sqrt(2.0) / 4, c / 4, c / 4)),
            (diff, ("fails", "holds", "fails", "fails"), (None, c * math.sqrt(2.0) / 4, None, None))]


@pytest.mark.parametrize("exponent", [0, 9, 16, 20, 50, 100, 154, 200, 250, 300, 306])
def test_basis_search_is_right_on_large_tensors(exponent):
    # on such tensors a huge step cancels in the simplex projection and can
    # land on x = 0, where every objective is 0, and past about 1e154 the
    # objectives' squares overflow (a RuntimeWarning, an error under this
    # suite's settings).  Every status is right, every certificate is
    # finite and near the true minimum, and every fails witness is a
    # nonzero point of the orthant that violates its inequality by a dense
    # einsum of its own
    c = 10.0 ** exponent
    margin = 1e-6
    for A, statuses, minima in scaled_cases(c):
        D = A.to_dense()
        verdicts = (is_K_regular(A, orthant(2)), is_K_nonsingular(A, orthant(2)),
                    is_strictly_copositive(A), is_copositive(A))
        assert tuple(v.status for v in verdicts) == statuses
        for v, least in zip(verdicts, minima):
            if v.status == "holds":
                assert math.isfinite(v.certificate)
                assert v.certificate == pytest.approx(least, rel=1e-9)
                continue
            w = v.witness
            assert np.all(w >= 0.0) and np.linalg.norm(w) == pytest.approx(1.0)
            xm = np.einsum("ijk,i,j,k->", D, w, w, w)
            if v.property == "K-regular":  # |A x^3| <= margin / 1000 on the simplex
                assert abs(xm) <= 2.0 ** 1.5 * 1e-3 * margin
            else:
                assert xm < 0.0
