import warnings

import numpy as np
import pytest
from scipy.optimize import nnls

from tcpkit import fixtures as fx
from tcpkit._rng import SplitMix64
from tcpkit.classify import q_in_dual_SA
from tcpkit.compcones import q_membership
from tcpkit.cones import dist, from_generators, orthant
from tcpkit.fixtures import cone_fixture
from tcpkit.solver import (
    TcpInstance,
    _min_map_newton,
    _one,
    _residual_rows,
    instance_from_json,
    instance_to_json,
    is_solution,
    refine,
    residual,
    solution_set_probe,
    solve_enumerate,
)
from tcpkit.tensor import ShapeError, tensor_from_dense

from oracle import MEMBER, NON_MEMBER, grid_tcp_oracle


class TestResidual:
    def test_overflowed_norm_keeps_its_distance(self, identity32):
        # ||w||^2 overflows at w = (0, -1e200); the distance is still 1e200,
        # not snapped to 0, and the row check agrees, with no warning
        inst = TcpInstance(orthant(2), np.array([-1e200, -1e200]), identity32)
        x = np.array([1e100, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = dist(orthant(2), np.array([0.0, -1e200]))
            res = residual(inst, x)
            rows = _residual_rows(*_one(inst), x[None], np.zeros(1, dtype=np.intp))[1]
            solved = is_solution(inst, x, 1e-6)
        assert d == pytest.approx(1e200, rel=1e-15)
        assert res[1] == pytest.approx(1e200, rel=1e-15) and not solved
        assert rows.tolist() == [list(res)]

    def test_trivial_zero_solution(self, identity32):
        inst = TcpInstance(orthant(2), np.array([1.0, 1.0]), identity32)
        assert residual(inst, np.zeros(2)) == (0.0, 0.0, 0.0)
        assert is_solution(inst, np.zeros(2), 1e-7)

    def test_e1_analytic_solution(self, e1):
        inst = TcpInstance(orthant(2), np.array([-1.0, -1.0]), e1)
        x = np.array([1.0, 1.0]) / np.sqrt(3)
        assert max(residual(inst, x)) <= 1e-8

    def test_e1_origin_not_solution(self, e1):
        inst = TcpInstance(orthant(2), np.array([-1.0, -1.0]), e1)
        p, d, c = residual(inst, np.zeros(2))
        assert d == pytest.approx(np.sqrt(2.0))
        assert not is_solution(inst, np.zeros(2), 1e-7)

    def test_dim_mismatch(self, e1):
        inst = TcpInstance(orthant(2), np.zeros(2), e1)
        with pytest.raises(ShapeError):
            residual(inst, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_instance_rejects_non_finite_q(self, e1, bad):
        with pytest.raises(ValueError):
            TcpInstance(orthant(2), np.array([bad, 1.0]), e1)

    def test_general_cone_verification(self):
        K = from_generators([[2.0, 1.0], [1.0, 2.0]])
        A = fx.identity(3, 2)
        inst = TcpInstance(K, np.array([1.0, 1.0]), A)
        assert is_solution(inst, np.zeros(2), 1e-9)

    @pytest.mark.parametrize("cone", ["ice2", "random"])
    def test_residual_matches_a_scipy_reference(self, cone):
        # w = A x^2 + q by einsum on the dense tensor; dist(x, K) and
        # dist(w, K*) by scipy's nnls on K's generators and on its
        # inequalities, the generators of K*
        rng = np.random.default_rng(41)
        if cone == "ice2":
            K = cone_fixture("ice2")
        else:
            K = from_generators(list(rng.normal(size=(5, 3)) + [1.5, 0.0, 0.0]))
        n = K.dim
        A, q = fx.random_tensor("general", 3, n, 41), rng.normal(size=n)
        inst, D = TcpInstance(K, q, A), A.to_dense()
        G, H = np.column_stack(K.generators), np.column_stack(K.inequalities)
        inside = rng.uniform(0.0, 1.0, (20, G.shape[1])) @ G.T
        for x in np.vstack([inside, rng.normal(size=(20, n)), np.zeros((1, n))]):
            w = np.einsum("ijk,j,k->i", D, x, x) + q
            ref = (nnls(G, x)[1], nnls(H, w)[1], abs(float(x @ w)))
            assert residual(inst, x) == pytest.approx(ref, rel=1e-9, abs=1e-9)


class TestEnumerate:
    def test_identity_unique(self, identity32):
        inst = TcpInstance(orthant(2), np.array([-1.0, -4.0]), identity32)
        out = solve_enumerate(inst)
        assert len(out.solutions) == 1 and not out.unknown
        assert np.allclose(out.solutions[0].x, [1.0, 2.0], atol=1e-9)

    def test_e1_nonneg_q_contains_zero(self, e1):
        inst = TcpInstance(orthant(2), np.array([1.0, 1.0]), e1)
        out = solve_enumerate(inst)
        assert any(np.allclose(s.x, 0.0) for s in out.solutions)

    def test_e1_negative_q_exactly_one(self, e1):
        inst = TcpInstance(orthant(2), np.array([-1.0, -1.0]), e1)
        out = solve_enumerate(inst)
        assert len(out.solutions) == 1
        assert np.allclose(out.solutions[0].x, [0.57735027] * 2, atol=1e-6)

    def test_certified_empty(self, e1):
        inst = TcpInstance(orthant(2), np.array([1.0, -1.0]), e1)
        out = solve_enumerate(inst)
        assert out.solutions == () and not out.unknown

    def test_soundness(self, e1, e4, identity32):
        rng = np.random.default_rng(3)
        for A in (e1, e4, identity32):
            for _ in range(10):
                q = rng.uniform(-2, 2, 2)
                inst = TcpInstance(orthant(2), q, A)
                for s in solve_enumerate(inst).solutions:
                    assert is_solution(inst, s.x, 1e-7)
                    assert s.max_residual <= 1e-7

    def test_sorted_and_deduped(self, e4):
        inst = TcpInstance(orthant(2), np.array([-0.5, -0.5]), e4)
        out = solve_enumerate(inst)
        xs = [tuple(s.x) for s in out.solutions]
        assert xs == sorted(xs)
        for i, a in enumerate(xs):
            for b in xs[i + 1:]:
                assert np.linalg.norm(np.array(a) - np.array(b)) > 1e-6

    def test_non_orthant_rejected(self, identity32):
        K = from_generators([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            solve_enumerate(TcpInstance(K, np.zeros(2), identity32))

    def test_matches_membership(self, e1, e4):
        # member True <=> solutions; None <=> none found and unknown;
        # False <=> none found and not unknown
        rng = np.random.default_rng(17)
        cases = [(A, rng.uniform(-2, 2, 2)) for A in (e1, e4) for _ in range(15)]
        # m=2, n=3: support {1,3} has a root failing the slack test, and its
        # slack row 2 has no positive coefficient and q_2 < 0, so the sign
        # test settles it: both must answer that there is no solution
        M = [[1.325, -1.749, 1.302], [-1.342, -0.499, -0.733], [0.765, -1.286, -0.415]]
        cases.append((tensor_from_dense(np.array(M)), np.array([-1.977, -0.950, -0.315])))
        for A, q in cases:
            out = solve_enumerate(TcpInstance(orthant(A.dim), q, A))
            res = q_membership(A, q)
            assert bool(out.solutions) == (res.member is True)
            assert out.unknown == (res.member is None)

    def test_matches_grid_oracle(self, e1):
        dense = e1.to_dense()
        for q in ([-1.0, -1.0], [1.0, -1.0], [0.5, 0.5], [-2.0, 0.3]):
            verdict, sols = grid_tcp_oracle(dense, q, res=800)
            out = solve_enumerate(TcpInstance(orthant(2), np.array(q), e1))
            if verdict == MEMBER:
                assert out.solutions
                for s in sols:
                    assert min(np.linalg.norm(s - t.x) for t in out.solutions) <= 1e-4
            elif verdict == NON_MEMBER:
                assert not out.solutions and not out.unknown


class TestHomogeneity:
    def test_scaling_law(self, e1, e4, identity32):
        for A, q in [(e1, [-1.0, -1.0]), (identity32, [-1.0, -4.0]),
                     (e4, [-0.5, -1.0])]:
            q = np.array(q)
            base = solve_enumerate(TcpInstance(orthant(2), q, A)).solutions
            for t in (0.25, 4.0):
                scaled = TcpInstance(orthant(2), t * q, A)
                for s in base:
                    xs = t ** (1.0 / (A.order - 1)) * s.x
                    assert max(residual(scaled, xs)) <= 1e-8


class TestRefine:
    def test_converges_to_analytic(self, e1):
        inst = TcpInstance(orthant(2), np.array([-1.0, -1.0]), e1)
        s = refine(inst, [0.5, 0.5])
        assert s.converged
        assert np.allclose(s.x, [1 / np.sqrt(3)] * 2, atol=1e-9)

    def test_fixed_point(self, identity32):
        inst = TcpInstance(orthant(2), np.array([-1.0, -4.0]), identity32)
        s = refine(inst, [1.0, 2.0])
        assert s.converged and np.allclose(s.x, [1.0, 2.0], atol=1e-12)

    def test_far_start(self, identity32):
        inst = TcpInstance(orthant(2), np.array([1.0, 1.0]), identity32)
        s = refine(inst, [10.0, 10.0])
        assert s.converged and np.allclose(s.x, 0.0, atol=1e-9)

    def test_never_false_success(self, e1):
        inst = TcpInstance(orthant(2), np.array([1.0, -1.0]), e1)  # unsolvable
        s = refine(inst, [1.0, 1.0])
        assert not s.converged

    def test_singular_row_takes_least_squares_alone(self, identity32):
        # at x_1 = 0 with w_1 = -1 < 0 the generalized Jacobian row of x_1 is
        # the zero row of A's Jacobian, so that start's Newton system is singular
        inst = TcpInstance(orthant(2), np.array([-1.0, -4.0]), identity32)
        X0 = np.array([[1.5, 1.0], [0.0, 1.0], [1.5, 2.5]])
        X = _min_map_newton(*_one(inst), X0, np.zeros(3, dtype=int))
        assert np.array_equal(X[[0, 2]], _min_map_newton(*_one(inst), X0[[0, 2]],
                                           np.zeros(2, dtype=int)))
        for x, x0 in zip(X, X0):
            s = refine(inst, x0)
            assert np.array_equal(x, s.x)
        assert np.allclose(X[[0, 2]], [[1.0, 2.0], [1.0, 2.0]])
        # the minimum-norm step leaves the zero coordinate where it is
        assert X[1, 0] == 0.0 and not refine(inst, X0[1]).converged


def fields(s):
    """The TcpSolution fields of s, floats by repr."""
    return (s.x.tobytes(), s.w.tobytes(), repr(s.primal_dist), repr(s.dual_dist),
            repr(s.comp_gap), s.alpha.members, s.converged)


def fields_alone(inst, x, tol):
    """The fields a solution at x must carry, from residual() at x alone:
    w = A x^{m-1} + q, the residual triple, the coordinates above 1e-7 and
    whether every residual is within tol."""
    p, d, c = residual(inst, x)
    support = tuple(i + 1 for i in range(len(x)) if x[i] > 1e-7)
    return (x.tobytes(), inst.w_of(x).tobytes(), repr(p), repr(d), repr(c), support,
            max(p, d, c) <= tol)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_solutions_carry_residual_of_each_point(n):
    # -x_i^2 + 1 (slightly coupled) has the 2^n solutions x in {0, 1}^n; with
    # q = -1 there is none.  solve_enumerate and refine check their points
    # in one row check, which must give each point the residual triple of
    # its own residual() call, bit for bit
    rng = np.random.default_rng(n)
    A = tensor_from_dense(-fx.identity(3, n).to_dense() + 0.02 * rng.uniform(-1, 1, (n,) * 3))
    solvable, unsolvable = (TcpInstance(orthant(n), s * np.ones(n), A) for s in (1.0, -1.0))
    sols = solve_enumerate(solvable).solutions
    assert len(sols) == 2 ** n and not solve_enumerate(unsolvable).solutions
    assert all(fields(s) == fields_alone(solvable, s.x, 1e-7) for s in sols)
    refined = [refine(inst, x0) for inst in (solvable, unsolvable)
               for x0 in rng.uniform(0.0, 2.0, (4, n))]
    assert [s.converged for s in refined] == [True] * 4 + [False] * 4
    assert all(fields(s) == fields_alone(inst, s.x, 1e-9)
               for s, inst in zip(refined, [solvable] * 4 + [unsolvable] * 4))


def probe_reference(inst, radius, samples, seed):
    """solution_set_probe's count and bound, checking the end point of each
    start with its own is_solution call."""
    found = [s.x for s in solve_enumerate(inst).solutions]
    rng = SplitMix64(seed)
    n = inst.A.dim
    starts = np.array([[rng.uniform(0.0, radius) for _ in range(n)] for _ in range(samples)])
    for x in _min_map_newton(*_one(inst), starts, np.zeros(samples, dtype=int)):
        if is_solution(inst, x, 1e-9) and all(np.linalg.norm(x - y) > 1e-6 for y in found):
            found.append(x)
    return len(found), max((float(np.linalg.norm(x)) for x in found), default=0.0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_probe_stacked_check_matches_per_start_checks(n, seed):
    # the probe checks its end points in one stacked row check; the count
    # and bound are those of one is_solution call per end point
    q = np.array([SplitMix64(100 + seed).uniform(-2.0, 1.0) for _ in range(n)])
    inst = TcpInstance(orthant(n), q, fx.random_tensor("general", 3, n, seed))
    rep = solution_set_probe(inst, radius=3.0, samples=24, seed=seed)
    assert (rep["count"], rep["bounded_within"]) == probe_reference(inst, 3.0, 24, seed)


class TestProbeAndJson:
    def test_probe_identity(self, identity32):
        inst = TcpInstance(orthant(2), np.array([-1.0, -4.0]), identity32)
        rep = solution_set_probe(inst, radius=5.0, samples=40, seed=2)
        assert rep["count"] == 1
        assert rep["bounded_within"] == pytest.approx(np.sqrt(5.0), abs=1e-6)

    def test_probe_e1(self, e1):
        inst = TcpInstance(orthant(2), np.array([1.0, 1.0]), e1)
        rep = solution_set_probe(inst, radius=5.0, samples=40, seed=2)
        assert rep["count"] == 1  # only the origin

    def test_probe_rejects_negative_samples(self, identity32):
        inst = TcpInstance(orthant(2), np.array([-1.0, -4.0]), identity32)
        with pytest.raises(ValueError, match="samples must be >= 0"):
            solution_set_probe(inst, radius=5.0, samples=-1, seed=2)
        assert solution_set_probe(inst, radius=5.0, samples=0, seed=2)["count"] == 1

    @pytest.mark.parametrize("samples, seed, name", [(2.5, 2, "samples"), (40, 1.5, "seed"),
                                                     (40.0, 2, "samples"), (40, None, "seed")])
    def test_probe_rejects_counts_that_are_not_whole(self, identity32, samples, seed, name):
        # a float seed would be truncated to another one than the report echoes
        inst = TcpInstance(orthant(2), np.array([-1.0, -4.0]), identity32)
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            solution_set_probe(inst, radius=5.0, samples=samples, seed=seed)

    def test_probe_echoes_python_ints(self, identity32):
        inst = TcpInstance(orthant(2), np.array([-1.0, -4.0]), identity32)
        rep = solution_set_probe(inst, radius=5.0, samples=np.int64(40), seed=np.int32(2))
        assert rep == solution_set_probe(inst, radius=5.0, samples=40, seed=2)
        assert type(rep["samples"]) is int and type(rep["seed"]) is int

    @pytest.mark.parametrize("radius", [-5.0, 0.0, np.nan, np.inf])
    def test_probe_rejects_a_bad_radius(self, identity32, radius):
        # the starts are drawn in [0, radius]^n
        inst = TcpInstance(orthant(2), np.array([-1.0, -4.0]), identity32)
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            solution_set_probe(inst, radius=radius, samples=10, seed=2)

    @pytest.mark.parametrize("q", [[-1.0, -4.0], [1.0, 1.0], [-1.0, 0.5]])
    @pytest.mark.parametrize("name", ["E1", "E4", "identity32"])
    def test_probe_matches_per_start_refines(self, name, q):
        inst = TcpInstance(orthant(2), np.array(q), fx.fixture(name))
        rep = solution_set_probe(inst, radius=5.0, samples=30, seed=11)
        # the probe's loop, refining one start at a time with refine
        found = [s.x for s in solve_enumerate(inst).solutions]
        rng = SplitMix64(11)
        for _ in range(30):
            sol = refine(inst, np.array([rng.uniform(0.0, 5.0) for _ in range(2)]))
            if sol.converged and all(np.linalg.norm(sol.x - y) > 1e-6 for y in found):
                found.append(sol.x)
        assert rep["count"] == len(found)
        assert rep["bounded_within"] == max((float(np.linalg.norm(x)) for x in found), default=0.0)

    def test_instance_round_trip(self, e1):
        inst = TcpInstance(orthant(2), np.array([-1.0, 2.0]), e1)
        inst2 = instance_from_json(instance_to_json(inst))
        assert np.array_equal(inst2.q, inst.q)
        assert dict(inst2.A.entries) == dict(inst.A.entries)
        assert inst2.cone.kind == "orthant"

    def test_copositive_existence(self, e1, e4, identity32):
        # copositive fixtures solve for every q accepted by the dual check
        rng = np.random.default_rng(29)
        for A in (e1, e4, identity32):
            for _ in range(12):
                q = rng.uniform(-2, 2, 2)
                if q_in_dual_SA(A, q).status != "holds":
                    continue
                out = solve_enumerate(TcpInstance(orthant(2), q, A))
                assert out.solutions
