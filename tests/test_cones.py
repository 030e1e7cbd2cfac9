import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, nnls

from tcpkit.cones import (
    NotPointedError,
    _nnls,
    basis_samples,
    cone_from_json,
    cone_to_json,
    contains,
    delta_metric,
    dist,
    dual,
    from_generators,
    orthant,
    project,
    tangent_cone,
)
from tcpkit.fixtures import cone_fixture
from tcpkit.tensor import ShapeError


def ray10():
    return from_generators([np.array([1.0, 0.0])])


FIXTURE_CONES = [
    orthant(2),
    orthant(3),
    ray10(),
    from_generators([[2.0, 1.0], [1.0, 2.0]]),
    from_generators([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
]


class TestConstruction:
    def test_orthant_reps(self):
        K = orthant(2)
        assert np.allclose(np.array(K.generators), np.eye(2))
        assert np.allclose(np.array(K.inequalities), np.eye(2))

    def test_ray_inequalities(self):
        K = ray10()
        # membership is y1 >= 0, y2 = 0: some normalized combination of
        # (1,0), (0,1), (0,-1) must appear
        for target in ([1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
            assert any(np.allclose(g, target) for g in K.inequalities)

    def test_non_pointed_rejected(self):
        with pytest.raises(NotPointedError):
            from_generators([[1.0, 0.0], [-1.0, 0.0]])

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            from_generators([[0.0, 0.0]])


class TestDual:
    def test_orthant_self_dual(self):
        K = orthant(3)
        assert dual(K) is K

    def test_ray_dual_is_halfplane(self):
        H = dual(ray10())
        # halfplane y1 >= 0
        for y in ([1.0, 5.0], [0.0, -2.0], [3.0, 0.0]):
            assert contains(H, y, 1e-12)
        assert not contains(H, [-0.1, 0.0], 1e-9)

    @pytest.mark.parametrize("K", FIXTURE_CONES)
    def test_biduality(self, K):
        KK = dual(dual(K))
        for g in K.generators:
            assert dist(KK, g / np.linalg.norm(g)) <= 1e-9
        for g in KK.generators:
            assert dist(K, g / np.linalg.norm(g)) <= 1e-9


class TestDistances:
    def test_orthant_clamp(self):
        assert dist(orthant(2), [-3.0, 4.0]) == pytest.approx(3.0)

    def test_ray_projection(self):
        assert dist(ray10(), [0.0, 1.0]) == pytest.approx(1.0)

    def test_apex(self):
        assert contains(orthant(2), [0.0, 0.0], 0.0)
        assert dist(orthant(2), [0.0, 0.0]) == 0.0

    def test_project_idempotent(self):
        K = from_generators([[2.0, 1.0], [1.0, 2.0]])
        z = np.array([-1.0, 3.0])
        p = project(K, z)
        assert np.allclose(project(K, p), p, atol=1e-9)
        assert contains(K, p, 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            dist(orthant(2), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("K", FIXTURE_CONES)
    def test_dist_zero_iff_member(self, K):
        for s in basis_samples(K, 20, seed=5):
            assert dist(K, s) <= 1e-9
            assert contains(K, s, 1e-9)


class TestBasisSamples:
    def test_generators_included(self):
        pts = basis_samples(orthant(2), 2, seed=0)
        assert any(np.allclose(p, [1, 0]) for p in pts)
        assert any(np.allclose(p, [0, 1]) for p in pts)

    def test_unit_norm(self):
        for p in basis_samples(from_generators([[2.0, 1.0], [1.0, 2.0]]), 30, seed=1):
            assert abs(np.linalg.norm(p) - 1.0) <= 1e-12

    def test_ray_collapses(self):
        pts = basis_samples(ray10(), 5, seed=3)
        for p in pts:
            assert np.allclose(p, [1.0, 0.0])

    def test_deterministic(self):
        a = basis_samples(orthant(3), 50, seed=9)
        b = basis_samples(orthant(3), 50, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestDeltaMetric:
    def test_identical_cones(self):
        assert delta_metric(orthant(2), orthant(2), 100) == 0.0

    def test_ray_vs_orthant(self):
        d = delta_metric(ray10(), orthant(2), 10_000)
        assert d == pytest.approx(1.0, abs=0.02)

    def test_symmetry(self):
        K1, K2 = orthant(2), from_generators([[2.0, 1.0], [1.0, 2.0]])
        assert delta_metric(K1, K2, 500) == delta_metric(K2, K1, 500)

    def test_dual_isometry(self):
        pairs = [(orthant(2), ray10()),
                 (orthant(2), from_generators([[2.0, 1.0], [1.0, 2.0]])),
                 (ray10(), from_generators([[2.0, 1.0], [1.0, 2.0]]))]
        for K1, K2 in pairs:
            d = delta_metric(K1, K2, 2000)
            dd = delta_metric(dual(K1), dual(K2), 2000)
            assert abs(d - dd) <= 0.05


class TestTangentCone:
    def test_boundary_point(self):
        T = tangent_cone(orthant(2), [1.0, 0.0])
        assert contains(T, [-5.0, 0.0], 1e-12)
        assert contains(T, [0.0, 1.0], 1e-12)
        assert not contains(T, [0.0, -1.0], 1e-9)

    def test_interior_point(self):
        T = tangent_cone(orthant(2), [1.0, 1.0])
        assert T.inequalities == ()
        assert contains(T, [-9.0, -9.0], 0.0)

    def test_apex(self):
        K = orthant(2)
        assert tangent_cone(K, [0.0, 0.0]) is K

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            tangent_cone(orthant(2), [-1.0, 0.0])


class TestJson:
    @pytest.mark.parametrize("K", FIXTURE_CONES)
    def test_round_trip(self, K):
        K2 = cone_from_json(cone_to_json(K))
        assert K2.dim == K.dim and K2.kind == K.kind
        assert all(np.allclose(a, b) for a, b in zip(K.generators, K2.generators))

    def test_h_rep_not_serialized(self):
        assert "inequalities" not in cone_to_json(ray10())


class TestFixtureLookup:
    def test_names(self):
        assert cone_fixture("orthant3").dim == 3
        assert np.allclose(cone_fixture("ray10").generators[0], [1.0, 0.0])
        with pytest.raises(KeyError):
            cone_fixture("klein-bottle")


@settings(max_examples=40, deadline=None)
@given(z=st.lists(st.floats(-10, 10), min_size=2, max_size=2),
       name=st.sampled_from(["orthant2", "ray10", "ice2"]))
def test_projection_optimality(z, name):
    # the projection is no farther than any sampled member of the cone
    K = cone_fixture(name)
    z = np.array(z)
    d = dist(K, z)
    for s in basis_samples(K, 8, seed=0):
        for t in (0.0, 0.5, 1.0, 3.0):
            assert d <= np.linalg.norm(z - t * s) + 1e-9


def lp_member(G, x) -> bool:
    """x in cone(columns of G), by an LP independent of tcpkit:
    min sum(s+ + s-) over G lam + s+ - s- = x with lam, s+, s- >= 0."""
    n, k = G.shape
    cost = np.r_[np.zeros(k), np.ones(2 * n)]
    res = linprog(cost, A_eq=np.hstack([G, np.eye(n), -np.eye(n)]), b_eq=x,
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun <= 1e-9 * max(1.0, np.linalg.norm(x))


class TestHRepresentation:
    """from_generators must keep every true ray of the dual: pruning a ray
    whose real residual is far above the membership tolerance loses a facet
    of K."""

    GENS = np.array([[1.12695, 1.24268, 0.12751, 0.54713, 0.38086],
                     [0.88325, 0.23216, 1.44558, 2.09567, 1.39214],
                     [0.58469, 0.07931, 0.11301, 1.54568, 0.36095],
                     [0.33708, 1.21397, 0.02123, 1.65327, 0.64785],
                     [0.57436, 0.25508, 0.13601, 0.4987, 0.01075]])

    def test_reproducer_has_five_facets(self):
        H = np.array(from_generators(self.GENS).inequalities)
        assert H.shape == (5, 5)
        assert np.linalg.matrix_rank(H) == 5

    def test_reproducer_dual_holds_the_orthant(self):
        D = dual(from_generators(self.GENS))
        for e in np.eye(5):
            assert dist(D, e) == 0.0

    def test_reproducer_outside_point(self):
        g1, g2, g3, g4, g5 = self.GENS
        assert not contains(from_generators(self.GENS), g1 + g2 - g3 + g4 + g5, 1e-9)

    def test_nonnegative_generator_sets(self):
        # K lies in the orthant, so dual(K) holds every e_i; each point
        # G c with one coefficient -1 is checked against the LP
        rng = np.random.default_rng(3)
        failures = []
        for case in range(80):
            n = int(rng.integers(4, 6))
            k = int(rng.integers(n, 2 * n + 1))
            gens = rng.uniform(0.0, 1.0, (k, n))
            K = from_generators(gens)
            G = gens.T
            for i in range(k):
                c = np.ones(k)
                c[i] = -1.0
                if contains(K, G @ c, 1e-9) != lp_member(G, G @ c):
                    failures.append((case, "contains", i))
            D = np.array(dual(K).generators).T
            failures += [(case, "e_i", i) for i in range(n) if not lp_member(D, np.eye(n)[i])]
        assert failures == []


def _nnls_problems(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 13))
        G = rng.standard_normal((n, k))
        kind = rng.integers(0, 4)
        if kind == 1 and k >= 2:
            G[:, 1] = -G[:, 0]  # a +- pair: a line through the origin
        elif kind == 2 and k >= 2:
            G[:, 1] = G[:, 0]
        elif kind == 3:
            G[:, rng.integers(0, k)] = 0.0
        G *= 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.3:  # z in the cone
            z = G @ rng.uniform(0.0, 1.0, k)
        else:
            z = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        yield G, z


class TestNnls:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_against_scipy(self):
        for G, z in _nnls_problems(600, seed=11):
            lam, rnorm = _nnls(G, z)
            assert np.all(np.isfinite(lam)) and np.all(lam >= 0)
            assert rnorm == np.linalg.norm(G @ lam - z)
            x, _ = nnls(G, z, maxiter=50 * G.shape[1])
            # scipy's reported rnorm is not trusted: recompute its residual
            assert rnorm <= np.linalg.norm(G @ x - z) + 1e-9 * max(1.0, np.linalg.norm(z))

    def test_degenerate_columns(self):
        G = np.array([[1.0, -1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        lam, rnorm = _nnls(G, np.array([-2.0, 3.0]))
        assert rnorm == pytest.approx(3.0)
        assert G[0] @ lam == pytest.approx(-2.0)
        lam, rnorm = _nnls(G, np.zeros(2))
        assert np.all(lam == 0.0) and rnorm == 0.0
