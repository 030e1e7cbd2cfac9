import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, nnls

from tcpkit.cones import (
    NotPointedError,
    _dists,
    _nnls,
    _sample_blocks,
    basis_samples,
    cone_from_json,
    cone_to_json,
    contains,
    delta_metric,
    dist,
    dual,
    extreme_rays,
    from_generators,
    orthant,
    project,
    tangent_cone,
)
from tcpkit.fixtures import cone_fixture
from tcpkit.tensor import ShapeError

from splitmix_reference import INC, MASK, Stream, unmix


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

    @pytest.mark.parametrize("K", FIXTURE_CONES + [dual(K) for K in FIXTURE_CONES[2:]])
    def test_rows_match_single_calls(self, K):
        rng = np.random.default_rng(K.dim)
        Z = np.vstack([rng.standard_normal((40, K.dim)) * 10.0 ** rng.uniform(-3, 3, (40, 1)),
                       np.array(basis_samples(K, 10, seed=1)), np.zeros(K.dim)])
        d = _dists(K, Z)
        assert all(d[t] == dist(K, z) for t, z in enumerate(Z))
        assert np.all(d[40:] == 0.0)


def scalar_samples(K, N: int, seed: int) -> np.ndarray:
    """basis_samples drawn one weight at a time from the reference stream."""
    gens = [g / np.linalg.norm(g) for g in K.generators if np.linalg.norm(g) > 1e-9]
    G, out, s = np.column_stack(gens), list(gens), Stream(seed)
    while len(out) < max(N, len(gens)):
        v = G @ np.array([s.uniform() for _ in gens])
        if (nrm := np.linalg.norm(v)) > 1e-12:
            out.append(v / nrm)
    return np.array(out)


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

    @pytest.mark.parametrize("K", FIXTURE_CONES)
    def test_matches_scalar_reference(self, K):
        for seed in (0, 9, 2**64 - 1):
            ref = scalar_samples(K, 300, seed)
            assert np.array_equal(np.array(basis_samples(K, 300, seed)), ref)
            for block in (1, 7, 64):
                assert np.array_equal(np.vstack(list(_sample_blocks(K, 300, seed, block))), ref)

    def test_rejected_draw_matches_scalar_reference(self):
        # ray10 draws one weight per sample; a state whose 5th output is 0
        # gives a zero weight, a norm of 0 and a rejected sample
        seed = (unmix(0) - 5 * INC) & MASK
        s = Stream(seed)
        assert [s.uniform() for _ in range(5)][-1] == 0.0
        ref = scalar_samples(ray10(), 20, seed)
        assert np.array_equal(np.array(basis_samples(ray10(), 20, seed)), ref)
        for block in (1, 3, 4, 5, 19):
            assert np.array_equal(np.vstack(list(_sample_blocks(ray10(), 20, seed, block))), ref)


class TestDeltaMetric:
    def test_identical_cones(self):
        assert delta_metric(orthant(2), orthant(2), 100) == 0.0

    def test_ray_vs_orthant(self):
        d = delta_metric(ray10(), orthant(2), 10_000)
        assert d == pytest.approx(1.0, abs=0.02)

    def test_symmetry(self):
        K1, K2 = orthant(2), from_generators([[2.0, 1.0], [1.0, 2.0]])
        assert delta_metric(K1, K2, 500) == delta_metric(K2, K1, 500)

    def test_memory_stays_blocked(self):
        # 2 x 200 000 samples; the stack of either side alone would be
        # 4.6 MiB, and its weights as much again.  Taken 2 048 at a time, the
        # peak is one block's samples, weights and nnls state: about 0.8 MiB
        K = from_generators([[1.0, 0.2, 0.1], [0.1, 1.0, 0.3], [0.2, 0.1, 1.0], [1.0, 1.0, 0.1]])
        delta_metric(orthant(3), K, 100)
        tracemalloc.start()
        try:
            d = delta_metric(orthant(3), K, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < d < 1.0
        assert peak <= 2 * 2**20

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


def _halfspace_sets(count: int, seed: int):
    """(rows, n) at n = 1..6: general rows, rows in a proper subspace (a
    lineality space), rows with their negatives (often the cone {0}), and no
    rows; some get repeated, scaled and zero rows appended."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n, kind = case % 6 + 1, rng.integers(0, 4)
        m = int(rng.integers(1, 2 * n + 3))
        rows = rng.standard_normal((m, n))
        if kind == 1:
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rng.integers(0, n)]
            rows = rows @ Q @ Q.T
        elif kind == 2:
            rows = np.vstack([rows, -rows[rng.random(m) < 0.8]])
        elif kind == 3:
            rows = rows[:0]
        if len(rows) and rng.random() < 0.5:
            picked = rows[rng.integers(0, len(rows), 3)]
            rows = np.vstack([rows, picked, picked * rng.uniform(0.1, 10.0, (3, 1)),
                              np.zeros((1, n))])
        yield rows, n


def test_extreme_rays_generate_the_cone():
    # every ray meets every halfspace, and the LP maxima of random objectives
    # over the part of P in [-1, 1]^n lie in the cone of the rays
    rng = np.random.default_rng(5)
    for rows, n in _halfspace_sets(180, seed=16):
        rays = extreme_rays(list(rows), n)
        R = np.array(rays).reshape(-1, n).T
        assert np.allclose(np.linalg.norm(R, axis=0), 1.0)
        for a in rows:
            assert np.all(a @ R >= -(1e-9 + 1e-12) * np.linalg.norm(a))
        for _ in range(3):
            res = linprog(-rng.standard_normal(n), A_ub=-rows,
                          b_ub=np.zeros(len(rows)), bounds=(-1.0, 1.0), method="highs")
            assert res.status == 0
            assert lp_member(R, res.x)


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


def lawson_hanson(G: np.ndarray, z: np.ndarray) -> float:
    """||G lam - z|| at the lam of a scalar Lawson-Hanson loop whose
    passive-set subproblems go through lstsq, one vector at a time."""
    k = G.shape[1]
    lam, passive, skip = np.zeros(k), np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
    tol = 10 * np.finfo(float).eps * max(G.shape) * np.linalg.norm(z)
    tol *= np.linalg.norm(G, axis=0).max(initial=0.0)
    w, stepping = G.T @ z, False
    for _ in range(50 * k):
        if not stepping:
            free = ~passive & ~skip & (w > tol)
            if not free.any():
                break
            j = np.argmax(np.where(free, w, -np.inf))
            passive[j] = True
        s = np.zeros(k)
        s[passive] = np.linalg.lstsq(G[:, passive], z, rcond=None)[0]
        if not stepping and s[j] <= 0:
            passive[j], skip[j] = False, True
        elif np.all(s[passive] > 0):
            lam, stepping, skip[:] = s, False, False
            w = G.T @ (z - G @ lam)
        else:
            block = passive & (s <= 0)
            ratio = np.full(k, np.inf)
            ratio[block] = lam[block] / (lam[block] - s[block])
            i = np.argmin(ratio)
            lam = lam + ratio[i] * (s - lam)
            lam[i], stepping = 0.0, True
            passive &= lam > 0
            lam[~passive] = 0.0
    return float(np.linalg.norm(G @ lam - z))


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

    def test_rows_match_single_calls(self):
        # each row keeps its own passive set, steps and cap: its lam and
        # residual are those of the same row run alone, bit for bit
        rng = np.random.default_rng(5)
        for G, z in _nnls_problems(300, seed=12):
            n, k = G.shape
            Z = np.vstack([z, -z, np.zeros(n), G @ rng.uniform(0.0, 1.0, k),
                           rng.standard_normal((4, n)) * np.linalg.norm(z), z])
            lam, rnorm = _nnls(G, Z)
            for t in range(len(Z)):
                lam1, rnorm1 = _nnls(G, Z[t])
                assert np.array_equal(lam[t], lam1) and rnorm[t] == rnorm1

    def test_against_scalar_lstsq_loop(self):
        # the passive solves go through one SVD per passive set instead of
        # lstsq: the residuals move by round-off only
        for G, z in _nnls_problems(400, seed=13):
            rnorm = _nnls(G, z)[1]
            assert abs(rnorm - lawson_hanson(G, z)) <= 1e-12 * np.linalg.norm(z)

    def test_degenerate_columns(self):
        G = np.array([[1.0, -1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        lam, rnorm = _nnls(G, np.array([-2.0, 3.0]))
        assert rnorm == pytest.approx(3.0)
        assert G[0] @ lam == pytest.approx(-2.0)
        lam, rnorm = _nnls(G, np.zeros(2))
        assert np.all(lam == 0.0) and rnorm == 0.0
