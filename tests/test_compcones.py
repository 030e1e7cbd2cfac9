import itertools

import numpy as np
import pytest
from scipy.optimize import least_squares, nnls

from tcpkit import fixtures as fx
from tcpkit.classify import is_K_nonsingular
from tcpkit import compcones
from tcpkit.compcones import (
    _memberships,
    complementary_tensor,
    q_membership,
    solution_from_membership,
    tpos_contains,
)
from tcpkit.cones import from_generators, orthant
from tcpkit.solver import TcpInstance, is_solution
from tcpkit.tensor import (
    IndexSet,
    ShapeError,
    Tensor,
    apply_m1,
    apply_off,
    power_vec,
    principal_subtensor,
    tensor_from_dense,
    unit_tensor,
)


class TestComplementaryTensor:
    def test_empty_alpha_is_unit(self, e1):
        C = complementary_tensor(e1, ())
        assert dict(C.entries) == dict(unit_tensor(3, 2).entries)

    def test_full_alpha_is_negation(self, e1):
        C = complementary_tensor(e1, (1, 2))
        assert dict(C.entries) == {k: -v for k, v in e1.entries.items()}

    def test_e1_singleton(self, e1):
        C = complementary_tensor(e1, (1,))
        assert dict(C.entries) == {(2, 1, 1): -1.0, (2, 2, 2): 1.0}

    def test_index_set_of_other_dim_rejected(self):
        with pytest.raises(ShapeError):
            complementary_tensor(fx.E1(), IndexSet((1,), 5))

    def test_block_formula(self):
        # C_A(alpha) u^{m-1} = (-A_a u_a^{m-1}, -A_off u_a^{m-1} + u_c^[m-1])
        for seed in range(10):
            A = fx.random_tensor("general", 3, 3, seed=seed)
            for r in (1, 2):
                for alpha in itertools.combinations(range(1, 4), r):
                    iset = IndexSet(alpha, 3)
                    C = complementary_tensor(A, iset)
                    u = np.abs(np.linspace(0.3, 1.7, 3))
                    out = apply_m1(C, u)
                    ua = u[[i - 1 for i in alpha]]
                    comp = iset.complement
                    exp = np.zeros(3)
                    exp[[i - 1 for i in alpha]] = -apply_m1(
                        principal_subtensor(A, iset), ua)
                    exp[[i - 1 for i in comp]] = (
                        -apply_off(A, iset, ua)
                        + power_vec(u[[i - 1 for i in comp]], A.order - 1))
                    assert np.allclose(out, exp, atol=1e-12)

    def test_nonsingularity_transfer(self, e4):
        # principal sub-tensor nonsingular => complementary tensor nonsingular
        for alpha in [(1,), (2,), (1, 2)]:
            sub = principal_subtensor(e4, IndexSet(alpha, 2))
            assert is_K_nonsingular(sub, orthant(len(alpha))).status == "holds"
            C = complementary_tensor(e4, alpha)
            assert is_K_nonsingular(C, orthant(2)).status == "holds"


class TestTposContains:
    def test_e3bar_separated(self, e3bar):
        # the image is the (1,1) ray; (1,2)/sqrt5 lies 1/sqrt10 from it
        v = tpos_contains(orthant(2), e3bar, [1.0, 2.0])
        assert v.status == "fails"
        assert abs(v.certificate - 1.0 / np.sqrt(10.0)) <= 1e-12

    def test_e3bar_on_ray(self, e3bar):
        v = tpos_contains(orthant(2), e3bar, [3.0, 3.0])
        assert v.status == "holds"
        assert np.allclose(apply_m1(e3bar, v.witness), [3.0, 3.0], atol=1e-6)

    def test_e2_image_ray(self, e2):
        assert tpos_contains(orthant(2), e2, [5.0, 5.0]).status == "holds"

    def test_zero_target(self, e1):
        v = tpos_contains(orthant(2), e1, [0.0, 0.0])
        assert v.status == "holds"
        assert np.allclose(v.witness, 0.0)

    @pytest.mark.parametrize("K", [orthant(3), from_generators([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                                [1.0, 1.0, 1.0]])])
    def test_cone_of_other_dimension(self, e2, K):
        # the zero target is answered before any point of K is evaluated
        with pytest.raises(ShapeError):
            tpos_contains(K, e2, [0.0, 0.0])

    @pytest.mark.parametrize("y", [[1.0], [1.0, 1.0, 1.0]])
    def test_target_of_other_dimension(self, e2, y):
        with pytest.raises(ShapeError):
            tpos_contains(orthant(2), e2, y)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_target(self, m, bad):
        # a matrix's NNLS and the scan at m = 3 would answer for it
        with pytest.raises(ValueError, match="y has a non-finite entry"):
            tpos_contains(orthant(2), fx.identity(m, 2), [bad, 1.0])

    def test_cone_property_scaling(self, e2):
        base = tpos_contains(orthant(2), e2, [5.0, 5.0])
        m = e2.order
        for t in (0.5, 2.0, 10.0):
            x = t ** (1.0 / (m - 1)) * base.witness
            assert np.allclose(apply_m1(e2, x), t * np.array([5.0, 5.0]),
                               atol=1e-5)


def dense_m1(A, x):
    """A x^{m-1} from the dense array, by one einsum over all its indices."""
    m = A.order
    args = [A.to_dense(), list(range(m))]
    for j in range(1, m):
        args += [x, [j]]
    return np.einsum(*args, [0])


def random_cone(n, seed):
    """n + 1 positive generators in R^n."""
    rng = np.random.default_rng(seed)
    return from_generators(list(np.abs(rng.normal(size=(n + 1, n))) + 0.1))


class TestTposContainsOnGeneratedCones:
    """A target built in the image, y = A (G lam)^{m-1} with lam >= 0, must
    be found: the witness is re-evaluated densely and checked to lie in K
    by a nonnegative least-squares fit to the generators."""

    @pytest.mark.parametrize("kind, n, seed, cone, lam_seed", [
        ("general", 2, 1, "ice2", 0), ("copositive", 2, 2, "ice2", 1),
        ("symmetric", 2, 3, "ice2", 2), ("general", 2, 4, "random", 3),
        ("copositive", 2, 5, "random", 4), ("general", 3, 6, "random", 5),
        ("symmetric", 3, 7, "random", 6), ("copositive", 3, 52, "random", 152),
        # a Levenberg-Marquardt polish from the same starts stalls 9e-4 from
        # y-hat here, which reads as a separation
        ("copositive", 3, 52, "random", 112),
    ])
    def test_image_point_holds(self, kind, n, seed, cone, lam_seed):
        A = fx.random_tensor(kind, 3, n, seed)
        K = fx.cone_fixture("ice2") if cone == "ice2" else random_cone(n, seed)
        G = np.column_stack(K.generators)
        lam = np.random.default_rng(lam_seed).uniform(0.0, 1.0, G.shape[1])
        y = dense_m1(A, G @ lam)
        v = tpos_contains(K, A, y)
        assert v.status == "holds"
        w = v.witness
        assert np.linalg.norm(dense_m1(A, w) - y) <= 1e-6 * max(1.0, np.linalg.norm(y))
        assert nnls(G, w)[1] <= 1e-9 * max(1.0, np.linalg.norm(w))


def independent_sets(G):
    """The sets of rank(G) linearly independent columns of G."""
    r = np.linalg.matrix_rank(G)
    return [list(S) for S in itertools.combinations(range(G.shape[1]), r)
            if np.linalg.matrix_rank(G[:, list(S)]) == r]


def unit_columns(K):
    return np.column_stack([g / np.linalg.norm(g) for g in K.generators])


class TestTposContainsMatrices:
    """At m = 2 the image of K is the cone of the columns of A G, so the
    certificate is the exact distance of y-hat from it, here by scipy."""

    @pytest.mark.parametrize("seed", range(16))
    def test_certificate_is_the_nnls_distance(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        M = rng.uniform(-2.0, 2.0, (n, n))
        K = orthant(n) if seed % 4 == 0 else from_generators(
            list(np.abs(rng.normal(size=(n + seed % 3, n))) + 0.05))
        G = unit_columns(K)
        y = M @ G @ rng.uniform(0.0, 1.0, G.shape[1]) if seed % 3 == 0 else rng.uniform(-2, 2, n)
        v = tpos_contains(K, tensor_from_dense(M), y)
        d = nnls(M @ G, y / np.linalg.norm(y))[1]
        assert abs(v.certificate - d) <= 1e-12
        assert v.status == ("holds" if d <= 1e-6 else "fails")
        if v.status == "holds":
            assert np.linalg.norm(M @ v.witness - y) <= 1e-6 * max(1.0, np.linalg.norm(y))
            assert nnls(G, v.witness)[1] <= 1e-9 * max(1.0, np.linalg.norm(v.witness))


def challenger_residual(A, G, y, starts, rng):
    """The least ||A (G_S lam)^2 - y|| that scipy's bounded least_squares
    finds from starts random lam >= 0, over every independent set S of
    columns of G: a dense einsum model sharing no code with the scan."""
    D, best = A.to_dense(), np.inf
    for S in independent_sets(G):
        GS = G[:, S]

        def f(lam):
            x = GS @ lam
            return np.einsum("ijk,j,k->i", D, x, x) - y

        def jac(lam):
            x = GS @ lam
            return (np.einsum("ijk,k->ij", D, x) + np.einsum("ijk,j->ik", D, x)) @ GS

        scale = np.sqrt(np.linalg.norm(y))
        for _ in range(starts):
            lam0 = rng.uniform(0.0, 2.0 * scale, GS.shape[1])
            fit = least_squares(f, lam0, jac=jac, bounds=(0.0, np.inf))
            best = min(best, float(np.linalg.norm(fit.fun)))
    return best


class TestTposContainsCertified:
    """At m = 3 a fails must survive a challenger that shares no code with
    the scan, a holds witness must re-check densely and lie in K, and every
    fails names one scan reason per independent generator set."""

    def test_seeded_corpus(self):
        rng = np.random.default_rng(2024)
        counts = {"holds": 0, "fails": 0, "unknown": 0}
        for i in range(40):
            n = 2 + i % 2
            kind = ("general", "copositive", "symmetric")[i // 2 % 3]
            A = fx.random_tensor(kind, 3, n, 500 + i)
            gens = (i // 6) % 3
            K = orthant(n) if gens == 0 else from_generators(
                list(np.abs(rng.normal(size=(n + gens, n))) + 0.05))
            G = unit_columns(K)
            y = rng.uniform(-2.0, 2.0, n)
            v = tpos_contains(K, A, y)
            counts[v.status] += 1
            if v.status == "holds":
                w = v.witness
                assert np.linalg.norm(dense_m1(A, w) - y) <= 1e-6 * max(1.0, np.linalg.norm(y))
                assert nnls(G, w)[1] <= 1e-9 * max(1.0, np.linalg.norm(w))
            elif v.status == "fails":
                assert sorted(v.per_alpha) == sorted(",".join(str(j + 1) for j in S)
                                                     for S in independent_sets(G))
                assert challenger_residual(A, G, y, 50, rng) > 1e-6 * max(1.0, np.linalg.norm(y))
        assert counts["holds"] and counts["fails"]

    @pytest.mark.parametrize("name", ["E1", "E4", "general-m3n2s5"])
    def test_lower_rank_cone(self, name):
        # on the ray of e1 the image is the ray of a = A e1 e1: its points
        # hold, and a point off it, its negative and -a fail, each scalar
        # subsystem settled by its sign test or its complete root list
        A, K = fx.fixture(name), fx.cone_fixture("ray10")
        a = A.to_dense()[:, 0, 0]
        v = tpos_contains(K, A, 2.5 * a)
        assert v.status == "holds"
        assert np.allclose(dense_m1(A, v.witness), 2.5 * a, atol=1e-9)
        off = np.array([[0.6, -0.8], [0.8, 0.6]]) @ a
        for y in (off, -off, -a):
            v = tpos_contains(K, A, y)
            assert v.status == "fails"
            assert list(v.per_alpha) == ["1"]
            assert v.per_alpha["1"].split(": ")[1] in ("sign analysis", "scalar closed form",
                                                       "scalar zero coefficient")


class TestQMembership:
    def test_e1_negative_q(self, e1):
        res = q_membership(e1, [-1.0, -1.0])
        assert res.member is True
        assert res.alpha.members == (1, 2)
        x = solution_from_membership(res, e1)
        assert np.allclose(x, [1 / np.sqrt(3)] * 2, atol=1e-7)

    def test_nonnegative_q_trivial(self, e2):
        res = q_membership(e2, [1.0, 2.0])
        assert res.member is True and res.alpha.members == ()
        assert np.allclose(solution_from_membership(res, e2), 0.0)

    def test_e1_certified_nonmember(self, e1):
        res = q_membership(e1, [1.0, -1.0])
        assert res.member is False
        assert res.subsets_examined == 4

    def test_negative_slack_row_settles_a_support(self):
        # w_1 = -x_1^2 - 0.02 < 0 for every x: on support {2, 3} slack row 1
        # is q_1 with no coefficient on u_2, u_3, which settles the support
        # though its root list is not proved complete
        A = unit_tensor(3, 3).scale(-1.0)
        res = q_membership(A, [-0.02, 0.1, 0.3])
        assert res.member is False and res.subsets_examined == 8
        # a slack within the tolerance settles nothing: the root is feasible
        assert q_membership(A, [-1e-9, 0.1, 0.3]).member is True

    def test_identity_separable(self):
        I = fx.identity(3, 2)
        q = np.array([-1.0, -4.0])
        res = q_membership(I, q)
        x = solution_from_membership(res, I)
        assert np.allclose(x, [1.0, 2.0], atol=1e-9)

    def test_member_reconstruction_is_solution(self, e1, e4):
        rng = np.random.default_rng(11)
        for A in (e1, e4, fx.identity(3, 2)):
            for _ in range(10):
                q = rng.uniform(-2, 2, 2)
                res = q_membership(A, q)
                if res.member:
                    x = solution_from_membership(res, A)
                    inst = TcpInstance(orthant(2), q, A)
                    assert is_solution(inst, x, 1e-7)

    def test_q_cone_scaling(self, e1):
        q = np.array([-1.0, -1.0])
        for t in (0.5, 2.0):
            res = q_membership(e1, t * q)
            assert res.member is True
            x = solution_from_membership(res, e1)
            base = solution_from_membership(q_membership(e1, q), e1)
            assert np.allclose(x, t ** 0.5 * base, atol=1e-6)

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            q_membership(unit_tensor(2, 13), np.zeros(13))

    def test_rejects_wrong_length_q(self, e1):
        with pytest.raises(ShapeError):
            q_membership(e1, [-1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_q(self, e1, bad):
        with pytest.raises(ValueError):
            q_membership(e1, [bad, 1.0])

    def test_non_member_reconstruction_rejected(self, e1):
        res = q_membership(e1, [1.0, -1.0])
        with pytest.raises(ValueError):
            solution_from_membership(res, e1)

    def test_json_shape(self, e1):
        obj = q_membership(e1, [-1.0, -1.0]).to_json()
        assert obj["member"] is True and obj["alpha"] == [1, 2]
        obj2 = q_membership(e1, [1.0, -1.0]).to_json()
        assert obj2["member"] is False

    def test_deterministic(self, e1):
        a = q_membership(e1, [-1.0, -1.0])
        b = q_membership(e1, [-1.0, -1.0])
        assert np.array_equal(a.u, b.u)


def membership_fields(res):
    """Every field of a MembershipResult, arrays by bytes and floats by repr."""
    return (res.member, res.alpha, None if res.u is None else res.u.tobytes(),
            repr(res.residual), res.subsets_examined)


def support_qs(A, rng, sizes):
    """One q per support alpha of {1..n} with |alpha| in sizes: q = w - A x^{m-1}
    for x > 0 on alpha and w > 0 off it, so x solves TCP(q, A); the walk may
    still find a solution on an earlier support."""
    n, out = A.dim, []
    for alpha in (a for r in sizes for a in itertools.combinations(range(n), r)):
        x, w = np.zeros(n), rng.uniform(0.1, 1.0, n)
        x[list(alpha)], w[list(alpha)] = rng.uniform(0.2, 1.5, len(alpha)), 0.0
        out.append(w - apply_m1(A, x))
    return out


class TestStackedMemberships:
    """_memberships decides many q of one tensor in one stacked support walk;
    every q must get the result of its own q_membership call, bit for bit."""

    @staticmethod
    def check(A, qs):
        got = _memberships(A, qs)
        assert [membership_fields(r) for r in got] == \
            [membership_fields(q_membership(A, q)) for q in qs]
        return got

    def test_m3n2(self):
        rng = np.random.default_rng(0)
        verdicts = set()
        for A in [fx.E1(), fx.E2()] + [fx.random_tensor("general", 3, 2, s) for s in range(4)]:
            got = self.check(A, support_qs(A, rng, range(3)) + list(rng.uniform(-2, 2, (8, 2))))
            verdicts |= {(r.member, r.subsets_examined) for r in got}
        assert {(True, 1), (True, 2), (True, 3), (True, 4), (False, 4)} <= verdicts

    def test_m3n3_members_non_members_and_unknowns(self):
        A = fx.random_tensor("general", 3, 3, 19)
        rng = np.random.default_rng(3)
        non_members = [np.array([0.51, 0.54, -1.26]), np.array([1.26, 0.92, -1.55])]
        qs = support_qs(A, rng, (1, 3)) + non_members + list(rng.uniform(-2, 2, (2, 3)))
        got = self.check(A, qs)
        # unknown by construction: E2 on {1, 2} beside u_3^2, whose system
        # on {1, 2, 3} has no root but the root at infinity x = e_1, and
        # every other support is settled
        e2 = Tensor(3, 3, {(1, 1, 2): 1.0, (1, 2, 1): 1.0, (2, 2, 1): 1.0, (2, 1, 2): 1.0,
                           (3, 3, 3): 1.0})
        got += self.check(e2, [np.array([-1.0, -2.0, -1.0])])
        assert got[-1].member is None
        assert {r.member for r in got} == {True, False, None}
        assert len({r.subsets_examined for r in got if r.member}) >= 2

    def test_slack_row_rule_per_q(self):
        # slack row 1 rules out support {2, 3} for q_1 < -1e-8 only; each q
        # of the stack gets its own verdict
        qs = [[-0.02, 0.1, 0.3], [-1e-9, 0.1, 0.3], [0.5, 0.1, 0.3], [-0.3, -0.2, 0.4]]
        got = self.check(unit_tensor(3, 3).scale(-1.0), qs)
        assert [r.member for r in got] == [False, True, True, False]

    def test_walk_stops_once_every_q_is_a_member(self, monkeypatch):
        # q = (1, 1), (-1, 1), (1, -1) are members of identity(3, 2) at the
        # supports (), (1,) and (2,): the stacked walk stops after the third
        # support and never scans (1, 2)
        scanned, walk_supports = [], compcones.walk_supports

        def walk(*args):
            for step in walk_supports(*args):
                scanned.append(step[0].members)
                yield step

        monkeypatch.setattr(compcones, "walk_supports", walk)
        qs = [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]]
        _memberships(fx.identity(3, 2), qs)
        assert scanned == [(), (1,), (2,)]
        got = self.check(fx.identity(3, 2), qs)
        assert [(r.member, r.subsets_examined) for r in got] == [(True, 1), (True, 2), (True, 3)]

    def test_rejects_any_bad_q(self, e1):
        with pytest.raises(ShapeError):
            _memberships(e1, [[-1.0, -1.0], [-1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            _memberships(e1, [[-1.0, -1.0], [np.nan, 1.0]])
