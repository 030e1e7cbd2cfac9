import itertools
import json
import math

import numpy as np
import pytest

from tcpkit import fixtures as fx
from tcpkit import compcones, stability
from tcpkit._rng import SplitMix64
from tcpkit.classify import is_copositive, is_K_nonsingular
from tcpkit.compcones import complementary_tensor, q_membership
from tcpkit.cones import extreme_rays, from_generators, orthant
from tcpkit.solver import TcpInstance, refine, solve_enumerate
from tcpkit.stability import (
    PerturbationReport,
    error_bound_probe,
    graph_closedness_probe,
    local_uniqueness_certificate,
    nonsingularity_openness_probe,
    perturb_existence,
    unsolvable_neighborhood_probe,
    usc_probe,
)
from tcpkit.tensor import Tensor, apply_m1, frobenius_distance, tensor_from_dense, unit_tensor

from splitmix_reference import draw_perturbation, perturbed_tensor, trial_streams


@pytest.fixture
def id_inst(identity32):
    return TcpInstance(orthant(2), np.array([-1.0, -1.0]), identity32)


class TestLocalUniqueness:
    def test_identity_interior(self, id_inst):
        v = local_uniqueness_certificate(id_inst, np.array([1.0, 1.0]))
        assert v.status == "holds"
        assert v.certificate == pytest.approx(1.0, abs=1e-9)

    def test_vacuous_at_origin(self, identity32):
        inst = TcpInstance(orthant(2), np.array([1.0, 1.0]), identity32)
        v = local_uniqueness_certificate(inst, np.zeros(2))
        assert v.status == "holds"
        assert "empty unit slice" in v.note

    def test_e2_fails(self, e2):
        inst = TcpInstance(orthant(2), np.zeros(2), e2)
        v = local_uniqueness_certificate(inst, np.array([1.0, 0.0]))
        assert v.status == "fails"
        assert v.certificate <= 0.0
        # witness is argmin-verifiable: in the tangent cone slice, and its
        # Rayleigh value reproduces the certificate
        w = v.witness
        assert w[1] >= -1e-8  # active constraint v2 >= 0
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-9
        from tcpkit.tensor import apply_m2
        M = apply_m2(e2, np.array([1.0, 0.0]))
        assert float(w @ (0.5 * (M + M.T)) @ w) == pytest.approx(
            v.certificate, abs=1e-10)

    def test_non_solution_rejected(self, id_inst):
        with pytest.raises(ValueError):
            local_uniqueness_certificate(id_inst, np.array([5.0, 5.0]))

    def test_non_subsymmetric_warns(self, e4):
        inst = TcpInstance(orthant(2), np.array([1.0, 1.0]), e4)
        v = local_uniqueness_certificate(inst, np.zeros(2))
        assert "sub-symmetric" in v.note

    def test_verdict_reads_only_the_margin(self):
        # the least quotient 5e-7 is above 0 but not above the margin 1e-6
        c = 5e-7
        low = local_uniqueness_certificate(TcpInstance(orthant(2), np.array([-c, -c]),
                                                       fx.identity(3, 2).scale(c)),
                                           np.array([1.0, 1.0]))
        assert low.status == "unknown" and low.certificate == c

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_on_the_arc_of_a_plane_cone(self, seed):
        # the slice at xbar = 0, q = 0 is the cone itself; on its arc, 10^5
        # angles sample the quotient of a unit-norm M to within 5e-10
        rng = np.random.default_rng(seed)
        t1 = rng.uniform(-np.pi, np.pi)
        t2 = t1 + rng.uniform(0.1, 3.0)
        gens = [[np.cos(t), np.sin(t)] for t in (t1, t2, rng.uniform(t1, t2))]
        M = rng.normal(size=(2, 2))
        M = M + M.T
        M /= np.linalg.norm(M, 2)
        v = local_uniqueness_certificate(cone_matrix_instance(gens, M), np.zeros(2))
        T = np.linspace(t1, t2, 10**5)
        V = np.column_stack([np.cos(T), np.sin(T)])
        sampled = np.min(np.einsum("si,ij,sj->s", V, M, V))
        assert abs(v.certificate - sampled) <= 1e-9
        assert v.certificate <= sampled + 1e-12

    def test_exact_minimum_against_the_lattice_descent(self):
        # 300 seeded (M, cone) pairs at n = 2..4: the status a sampled
        # lattice gives, and a minimum never above its own
        statuses = set()
        for M, gens in corpus_pairs(300):
            inst = cone_matrix_instance(gens, M)
            v = local_uniqueness_certificate(inst, np.zeros(len(M)))
            rays = extreme_rays(inst.cone.inequalities, len(M))  # the slice at xbar = 0
            ref = lattice_minimum(M, np.column_stack(rays))
            ref_status = "holds" if ref > 1e-6 else ("fails" if ref <= 0.0 else "unknown")
            assert v.status == ref_status
            assert v.certificate <= ref + 1e-12 * max(1.0, np.linalg.norm(M))
            statuses.add(v.status)
        assert statuses == {"holds", "fails"}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_witness_lies_in_the_slice_and_rechecks(self, n):
        # solutions with zero components and w > 0 on some of them: the
        # slice is cut by the active inequalities and by w, -w
        from tcpkit.cones import tangent_cone
        from tcpkit.tensor import apply_m2
        for seed in range(20):
            rng = np.random.default_rng(100 * n + seed)
            A = fx.random_tensor("symmetric", 3, n, seed)
            x = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.5, 2.0, n))
            w = np.where((x == 0) & (rng.random(n) < 0.5), rng.uniform(0.1, 1.0, n), 0.0)
            inst = TcpInstance(orthant(n), w - apply_m1(A, x), A)
            v = local_uniqueness_certificate(inst, x)
            rows = list(tangent_cone(inst.cone, x).inequalities)
            if np.linalg.norm(w) > 0:
                rows += [w, -w]
            if v.witness is None:
                assert "empty unit slice" in v.note
                continue
            assert abs(np.linalg.norm(v.witness) - 1.0) <= 1e-12
            assert all(float(g @ v.witness) >= -1e-9 for g in rows)
            M = apply_m2(A, x)
            assert float(v.witness @ (0.5 * (M + M.T)) @ v.witness) == pytest.approx(
                v.certificate, abs=1e-10)

    def test_twenty_rays_in_r5_stay_batched(self):
        # 21 699 column sets; one batch of cones._SLICE sets at a time keeps
        # the peak at about 5.5 MiB, all sets at once would take about 18
        import tracemalloc
        rng = np.random.default_rng(0)
        R = rng.normal(size=(5, 20))
        R /= np.linalg.norm(R, axis=0)
        M = rng.normal(size=(5, 5))
        M = M + M.T
        tracemalloc.start()
        try:
            cert, v, scored = stability._least_rayleigh(M, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert scored == sum(math.comb(20, r) * r for r in range(1, 6))
        assert cert == pytest.approx(float(v @ M @ v / (v @ v)), abs=1e-12)
        assert cert <= np.min(np.einsum("ik,ij,jk->k", R, M, R))  # every ray is a candidate


def cone_matrix_instance(gens, M):
    """TCP(0, M) on the cone of gens, M as an order-2 tensor: at xbar = 0
    the slice of the certificate is the whole cone."""
    return TcpInstance(from_generators(gens), np.zeros(len(M)), tensor_from_dense(np.array(M)))


def corpus_pairs(count):
    """count seeded (M, generators) pairs, n = 2..4 with 2..5 generators,
    half of them in the open orthant; generator sets that span a line are
    skipped."""
    from tcpkit.cones import NotPointedError
    pairs, seed = [], 0
    while len(pairs) < count:
        rng = np.random.default_rng(seed)
        seed += 1
        n, k = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        G = rng.normal(size=(k, n))
        if rng.random() < 0.5:
            G = np.abs(G) + 0.1
        try:
            from_generators(list(G))
        except NotPointedError:
            continue
        M = rng.normal(size=(n, n))
        pairs.append((M + M.T + 2.0 * rng.normal() * np.eye(n), list(G)))
    return pairs


def lattice_minimum(M, R):
    """An upper bound on the least Rayleigh quotient of M over the cone of
    the columns of R: the least over the barycentric lattice of the rays,
    every k-tuple of 0..res summing to res (res = 64 for k <= 3 rays, else
    16)."""
    k = R.shape[1]
    res = 64 if k <= 3 else 16
    L = np.array([c for c in itertools.product(range(res + 1), repeat=k) if sum(c) == res]) / res
    V = L @ R.T
    nv = np.einsum("si,si->s", V, V)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.min(np.where(nv <= 1e-20, np.inf, np.einsum("si,ij,sj->s", V, M, V) / nv)))


class TestPerturbExistence:
    def test_identity_fully_solvable(self, id_inst):
        r = perturb_existence(id_inst, 1e-3, 50, seed=7)
        assert r.solvable_fraction == 1.0
        assert r.max_solution_norm <= np.sqrt(2.0) + 0.01
        assert r.failures == ()

    def test_eps_zero(self, id_inst):
        r = perturb_existence(id_inst, 0.0, 5, seed=1)
        assert r.solvable_fraction == 1.0

    def test_e1_interior_q(self, e1):
        inst = TcpInstance(orthant(2), np.array([1.0, 1.0]), e1)
        r = perturb_existence(inst, 1e-2, 20, seed=3)
        assert r.solvable_fraction == 1.0

    def test_precondition_noncopositive(self, e3bar):
        inst = TcpInstance(orthant(2), np.array([1.0, 1.0]), e3bar)
        with pytest.raises(ValueError):
            perturb_existence(inst, 1e-3, 5, seed=0)

    def test_dual_gate_names_a_q_outside_the_dual(self, e1):
        # S_A of E1 is its two axes, and q.e2 = -1
        inst = TcpInstance(orthant(2), np.array([1.0, -1.0]), e1)
        with pytest.raises(ValueError, match="not in the dual of S_A"):
            perturb_existence(inst, 1e-3, 5, seed=0)

    def test_dual_gate_names_an_uncertified_q(self, e1):
        # q.e2 = 0: q.x is neither at least the margin nor below -margin there
        inst = TcpInstance(orthant(2), np.array([1.0, 0.0]), e1)
        with pytest.raises(ValueError, match="could not be certified"):
            perturb_existence(inst, 1e-3, 5, seed=0)

    def test_solvable_fraction_integral(self, id_inst):
        r = perturb_existence(id_inst, 1e-3, 7, seed=5)
        assert (r.solvable_fraction * r.trials) == pytest.approx(
            round(r.solvable_fraction * r.trials))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_perturbed_q_is_checked(self, identity32):
        # q + dq overflows in some trial: the stacked q is checked once, with
        # the error TcpInstance raises for a non-finite q
        inst = TcpInstance(orthant(2), np.array([1.79e308, 1.79e308]), identity32)
        with pytest.raises(ValueError, match="q has a non-finite entry"):
            perturb_existence(inst, 1e307, 50, seed=3)
        with pytest.raises(ValueError, match="q has a non-finite entry"):
            usc_probe(inst, 1e307, 5, seed=3)

    def test_deterministic(self, id_inst):
        a = perturb_existence(id_inst, 1e-3, 10, seed=11)
        b = perturb_existence(id_inst, 1e-3, 10, seed=11)
        assert a == b


def per_trial_existence(inst, eps, trials, seed, gate=None):
    """perturb_existence as one loop over the trials: each draw is gated by
    its own is_copositive call (or by gate) and redrawn from the trial's own
    stream until it holds, at most 100 times, then shifted by eps times the
    unit tensor; then the trial is solved."""
    gate = gate or (lambda A: is_copositive(A).status == "holds")
    n, shape = inst.A.dim, (inst.A.dim,) * inst.A.order
    solvable, max_norm, failures, resamples = 0, 0.0, [], 0
    for t, trial_rng in enumerate(trial_streams(seed, trials)):
        dq, dA = draw_perturbation(trial_rng, n, shape, eps)
        At = perturbed_tensor(inst.A, dA)
        redraws = 0
        while not gate(At) and redraws < 100:
            dq, dA = draw_perturbation(trial_rng, n, shape, eps)
            At = perturbed_tensor(inst.A, dA)
            redraws += 1
        if redraws >= 100:
            At = At + unit_tensor(inst.A.order, n).scale(eps)
        resamples += redraws
        outcome = solve_enumerate(TcpInstance(inst.cone, inst.q + dq, At))
        norms = [float(np.linalg.norm(s.x)) for s in outcome.solutions]
        if norms:
            solvable += 1
            max_norm = max(max_norm, max(norms))
        else:
            failures.append(t)
    return PerturbationReport(trials=trials, eps=eps, seed=seed,
                              solvable_fraction=solvable / trials,
                              max_solution_norm=max_norm, error_ratio_max=0.0,
                              failures=tuple(failures), resamples=resamples)


def per_trial_openness(K, A, eps, trials, seed):
    """nonsingularity_openness_probe as one is_K_nonsingular call per trial."""
    n, shape = A.dim, (A.dim,) * A.order
    nonsingular = 0
    for trial_rng in trial_streams(seed, trials):
        Kp, dA = K, np.zeros(shape)
        if eps != 0.0:
            flat = np.array(trial_rng.on_sphere(int(np.prod(shape))))
            dA = (eps * trial_rng.uniform()) * flat.reshape(shape)
            if not K.is_orthant:
                Kp = from_generators([g + eps * trial_rng.uniform(-1.0, 1.0) *
                                      np.array(trial_rng.on_sphere(n)) for g in K.generators])
        if is_K_nonsingular(perturbed_tensor(A, dA), Kp).status == "holds":
            nonsingular += 1
    return {"fraction_nonsingular": nonsingular / trials, "eps": eps, "trials": trials,
            "seed": seed}


def per_trial_unsolvable(A, q, eps, trials, seed):
    """unsolvable_neighborhood_probe as one is_K_nonsingular call per
    complementary tensor and one q_membership call per trial."""
    n = A.dim
    assert q_membership(A, q).member is False
    alphas = [a for r in range(1, n + 1) for a in itertools.combinations(range(1, n + 1), r)]
    unverified = any(is_K_nonsingular(complementary_tensor(A, a), orthant(n)).status != "holds"
                     for a in alphas)
    unsolvable = unknowns = 0
    for trial_rng in trial_streams(seed, trials):
        dq = np.zeros(n)
        if eps != 0.0:
            dq = eps * trial_rng.uniform() * np.array(trial_rng.on_sphere(n))
        member = q_membership(A, q + dq).member
        unsolvable += member is False
        unknowns += member is None
    note = ("closedness sufficient condition unverified for some complementary tensors; "
            "result is empirical only") if unverified else ""
    return {"fraction_unsolvable": unsolvable / trials, "unknown_trials": unknowns, "eps": eps,
            "trials": trials, "seed": seed, "note": note}


def suite_seeds(p, seed=2024):
    """The probe seeds of pass p of the benchmark's stability suite."""
    stream = SplitMix64(seed).spawn(p + 1)
    return [int(stream.next_u64() % 10**6) for _ in range(5)]


class TestBatchedGates:
    """The probes gate or decide all their trials in one stack; their
    reports must be those of the per-trial loops above, bit for bit."""

    @pytest.mark.parametrize("p", [0, 1])
    def test_suite_passes(self, p, id_inst, e4):
        s_exist, *_, s_open = suite_seeds(p)
        assert perturb_existence(id_inst, 1e-3, 50, seed=s_exist) == \
            per_trial_existence(id_inst, 1e-3, 50, s_exist)
        assert nonsingularity_openness_probe(orthant(2), e4, 1e-3, 5, seed=s_open) == \
            per_trial_openness(orthant(2), e4, 1e-3, 5, s_open)

    @pytest.mark.parametrize("A, q, eps, trials, seed", [
        (fx.E1(), [1.0, -1.0], 1e-4, 30, suite_seeds(0)[3]),  # the benchmark's op
        (fx.E1(), [1.0, -1.0], 0.0, 5, 3),
        (fx.E2(), [1.0, -1.0], 1.5, 8, 4),  # closedness unverified, one unknown trial
        (tensor_from_dense(np.array([1.096, -1.289, -1.349, -1.757,
                                     -1.751, -0.597, 1.598, 0.402]).reshape(2, 2, 2)),
         [-1.02, 1.49], 0.2, 12, 1),  # members, non-members and unknowns
        (unit_tensor(3, 3).scale(-1.0), [-0.02, -0.02, 0.3], 0.3, 12, 1),  # the same at n = 3
    ])
    def test_unsolvable_probe(self, A, q, eps, trials, seed):
        # the closedness check and the trials are each decided in one stack
        rep = unsolvable_neighborhood_probe(A, np.array(q), eps, trials, seed)
        assert rep == per_trial_unsolvable(A, np.array(q), eps, trials, seed)

    def test_e4_resamples(self, e4):
        inst = TcpInstance(orthant(2), np.array([1.0, 1.0]), e4)
        report = perturb_existence(inst, 1e-2, 5, seed=11)
        assert report.resamples == 6
        assert report == per_trial_existence(inst, 1e-2, 5, 11)

    @pytest.mark.parametrize("rule", ["never", "a111 above 1"])
    def test_redraw_cap(self, rule, monkeypatch, id_inst):
        # a gate that never holds sends every trial through 100 redraws and
        # the unit-tensor shift; one that holds on about half the draws mixes
        # trials that stop early with ones that redraw again
        def gate(A):
            return rule != "never" and A.entries.get((1, 1, 1), 0.0) > 1.0

        # the copositivity status the gates read, of the dense stacks they
        # check; the base tensor keeps its own
        base = id_inst.A.to_dense()
        monkeypatch.setattr(stability, "_holds", lambda objective, D, K: [
            np.array_equal(A, base) or gate(tensor_from_dense(A)) for A in D])
        report = perturb_existence(id_inst, 1e-3, 4, seed=3)
        assert report == per_trial_existence(id_inst, 1e-3, 4, 3, gate)
        if rule == "never":
            assert report.resamples == 400
        else:
            assert 0 < report.resamples < 400

    def test_enclosure_leaves_only_e1_complements_to_the_search(self, monkeypatch, id_inst, e4):
        # on pass 0 of the suite the enclosure passes every gate of every
        # identity32 and E4 tensor, base or trial: only E1's complementary
        # tensors {1} and {2} of the closedness check, singular at (1/2,
        # 1/2), stay open
        seen = []

        def spy(objective, D, K):
            out = holds(objective, D, K)
            seen.extend(tensor_from_dense(A) for A, held in zip(D, out) if not held)
            return out

        holds = stability._holds
        monkeypatch.setattr(stability, "_holds", spy)
        s_exist, s_eb, s_usc, s_unsolv, s_open = suite_seeds(0)
        xbar = np.array([1.0, 1.0])
        local_uniqueness_certificate(id_inst, xbar)
        perturb_existence(id_inst, 1e-3, 50, seed=s_exist)
        error_bound_probe(id_inst, xbar, 0.1, 1e-3, 50, s_eb)
        usc_probe(id_inst, 1e-3, 50, seed=s_usc)
        unsolvable_neighborhood_probe(fx.E1(), np.array([1.0, -1.0]), 1e-4, 30, seed=s_unsolv)
        nonsingularity_openness_probe(orthant(2), e4, 1e-3, 5, seed=s_open)
        assert seen == [complementary_tensor(fx.E1(), a) for a in ((1,), (2,))]

    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    def test_openness_on_a_generated_cone(self, eps, identity32):
        K = from_generators([[1.0, 0.2], [0.3, 1.0], [1.0, 1.0]])
        assert nonsingularity_openness_probe(K, identity32, eps, 4, seed=5) == \
            per_trial_openness(K, identity32, eps, 4, 5)

    def test_openness_at_m3_n3_on_a_generated_cone(self):
        # 27 normals leave a cached deviate; each generator's jitter draws a
        # uniform and then 3 normals, the first of them the cached one
        K = from_generators([[1.0, 0.2, 0.1], [0.1, 1.0, 0.3], [0.2, 0.1, 1.0], [1.0, 1.0, 1.0]])
        A = unit_tensor(3, 3)
        assert nonsingularity_openness_probe(K, A, 0.2, 6, seed=5) == \
            per_trial_openness(K, A, 0.2, 6, 5)


def spy_holds(monkeypatch):
    """The dense stacks of every _holds call the probes make, in order."""
    calls, holds = [], stability._holds

    def spy(objective, D, K):
        calls.append(np.array(D))
        return holds(objective, D, K)

    monkeypatch.setattr(stability, "_holds", spy)
    return calls


class TestOneArrayPipeline:
    """Each probe checks its base inside its trials' stack, and builds no
    tensor or instance per trial."""

    def test_existence_gates_once_per_round(self, monkeypatch, id_inst, e4):
        # every identity32 trial passes the first round, which checks the
        # base (row 0) and the 50 trials at once
        calls = spy_holds(monkeypatch)
        perturb_existence(id_inst, 1e-3, 50, seed=7)
        assert [len(D) for D in calls] == [51]
        assert np.array_equal(calls[0][0], id_inst.A.to_dense())
        # E4 redraws: each later round checks the redraws of the trials
        # still failing, every redraw once, in shrinking rounds
        calls.clear()
        inst = TcpInstance(orthant(2), np.array([1.0, 1.0]), e4)
        report = perturb_existence(inst, 1e-2, 5, seed=11)
        sizes = [len(D) for D in calls]
        assert sizes[0] == 6 and len(sizes) > 2
        assert sum(sizes[1:]) == report.resamples and sizes[1:] == sorted(sizes[1:])[::-1]

    def test_openness_on_the_orthant_checks_once(self, monkeypatch, e4):
        calls = spy_holds(monkeypatch)
        nonsingularity_openness_probe(orthant(2), e4, 1e-3, 5, seed=3)
        assert [len(D) for D in calls] == [6] and np.array_equal(calls[0][0], e4.to_dense())

    def test_unsolvable_runs_one_membership_walk(self, monkeypatch, e1):
        walks, walk = [], compcones.walk_supports

        def spy(forms, Q, live=None):
            walks.append(np.array(Q))
            yield from walk(forms, Q, live)

        monkeypatch.setattr(compcones, "walk_supports", spy)
        q = np.array([1.0, -1.0])
        unsolvable_neighborhood_probe(e1, q, 1e-4, 30, seed=3)
        assert len(walks) == 1 and len(walks[0]) == 31 and np.array_equal(walks[0][0], q)

    @pytest.mark.parametrize("probe", [
        lambda inst, trials: perturb_existence(inst, 1e-3, trials, seed=7),
        lambda inst, trials: usc_probe(inst, 1e-3, trials, seed=7),
        lambda inst, trials: error_bound_probe(inst, np.array([1.0, 1.0]), 0.1, 1e-3, trials, 7),
    ], ids=["existence", "usc", "error-bound"])
    def test_no_tensor_or_instance_per_trial(self, monkeypatch, probe, id_inst):
        # every tensor is built by Tensor._from_forms, every checked
        # instance by TcpInstance.__init__; 40 trials build what 2 do
        built, from_forms, init = [], Tensor._from_forms, TcpInstance.__init__

        def tensors(*args):
            out = from_forms(*args)
            built.extend(out)
            return out

        def instance(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "_from_forms", staticmethod(tensors))
        monkeypatch.setattr(TcpInstance, "__init__", instance)
        counts = []
        for trials in (2, 40):
            built.clear()
            probe(id_inst, trials)
            counts.append(len(built))
        assert counts[0] == counts[1]


def per_trial_usc(inst, eps, trials, seed):
    """usc_probe as one solve_enumerate call for the base and per trial."""
    base_pts = [s.x for s in solve_enumerate(inst).solutions]
    n, shape = inst.A.dim, (inst.A.dim,) * inst.A.order
    max_exc, unsolved = 0.0, 0
    for trial_rng in trial_streams(seed, trials):
        dq, dA = draw_perturbation(trial_rng, n, shape, eps)
        pert = TcpInstance(inst.cone, inst.q + dq, perturbed_tensor(inst.A, dA))
        outcome = solve_enumerate(pert)
        if not outcome.solutions:
            unsolved += 1
        for s in outcome.solutions:
            d = min((float(np.linalg.norm(s.x - b)) for b in base_pts), default=np.inf)
            max_exc = max(max_exc, d)
    return {"max_excursion": max_exc, "eps": eps, "trials": trials, "seed": seed,
            "base_solution_count": len(base_pts), "unsolved_trials": unsolved}


class TestStackedSolves:
    """usc_probe solves the base and all its trials in one stacked support
    walk; its report must be that of the per-trial loop above, bit for bit
    (perturb_existence is checked against per_trial_existence above, and
    error_bound_probe against error_bound_reference below)."""

    @pytest.mark.parametrize("p", [0, 1])
    def test_usc_suite_passes(self, p, id_inst):
        s_usc = suite_seeds(p)[2]
        assert usc_probe(id_inst, 1e-3, 50, seed=s_usc) == \
            per_trial_usc(id_inst, 1e-3, 50, s_usc)

    def test_usc_with_three_base_solutions(self, e1):
        # E1 plus half the unit tensor has three solutions at q = (-1, -1);
        # its sparse tensor and the dense trial tensors are two groups of
        # _tails in one stack
        inst = TcpInstance(orthant(2), np.array([-1.0, -1.0]), e1 + unit_tensor(3, 2).scale(0.5))
        report = usc_probe(inst, 1e-2, 6, seed=4)
        assert report["base_solution_count"] == 3
        assert report == per_trial_usc(inst, 1e-2, 6, 4)


class TestErrorBound:
    def test_identity_ratio(self, id_inst):
        r = error_bound_probe(id_inst, np.array([1.0, 1.0]), 0.1, 1e-3, 50, 7)
        assert r.error_ratio_max <= 5.0
        assert r.solvable_fraction == 1.0

    def test_eps_consistency(self, id_inst):
        r3 = error_bound_probe(id_inst, np.array([1.0, 1.0]), 0.1, 1e-3, 50, 7)
        r4 = error_bound_probe(id_inst, np.array([1.0, 1.0]), 0.1, 1e-4, 50, 7)
        hi, lo = max(r3.error_ratio_max, r4.error_ratio_max), min(
            r3.error_ratio_max, r4.error_ratio_max)
        assert hi <= 2.0 * lo

    def test_zero_perturbation_skipped(self, id_inst):
        r = error_bound_probe(id_inst, np.array([1.0, 1.0]), 0.1, 0.0, 3, 7)
        assert r.error_ratio_max == 0.0
        assert "skipped" in r.note

    def test_precondition(self, e2):
        inst = TcpInstance(orthant(2), np.zeros(2), e2)
        with pytest.raises(ValueError):
            error_bound_probe(inst, np.array([1.0, 0.0]), 0.1, 1e-3, 3, 0)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    @pytest.mark.parametrize("seed", [7, 2024, 90210])
    @pytest.mark.parametrize("radius", [0.1, 10.0])
    @pytest.mark.parametrize("case", ["identity", "two-solutions"])
    def test_matches_per_start_refines(self, case, radius, seed, eps, identity32):
        if case == "identity":
            inst = TcpInstance(orthant(2), np.array([-1.0, -1.0]), identity32)
            xbar = np.array([1.0, 1.0])
        else:
            # solutions near (0.750, 0.603) and (0.352, 1.312)
            inst = TcpInstance(orthant(2), np.array([-0.8631953450048342, 0.5941888283193002]),
                               fx.random_tensor("general", 3, 2, 8))
            xbar = next(s.x for s in solve_enumerate(inst).solutions if s.x[0] > 0.7)
        # at radius 10 the starts lie 1.0 from xbar: some refines fail, and
        # on two-solutions some end at the other solution
        got = error_bound_probe(inst, xbar, radius, eps, 12, seed)
        assert got == error_bound_reference(inst, xbar, radius, eps, 12, seed)


def error_bound_reference(inst, xbar, radius, eps, trials, seed):
    """error_bound_probe's report, refining one start at a time with refine."""
    n = inst.A.dim
    shape = (n,) * inst.A.order
    ratio_max, solvable, max_norm, failures, skipped = 0.0, 0, 0.0, [], 0
    for t, trial_rng in enumerate(trial_streams(seed, trials)):
        dq, dA = draw_perturbation(trial_rng, n, shape, eps)
        denom = float(np.linalg.norm(dq) + np.linalg.norm(dA))
        pert = TcpInstance(inst.cone, inst.q + dq, perturbed_tensor(inst.A, dA))
        starts = [xbar] + [xbar + 0.1 * radius * np.array(trial_rng.on_sphere(n))
                           for _ in range(4)]
        sols = []
        for x0 in starts:
            s = refine(pert, x0)
            if s.converged and float(np.linalg.norm(s.x - xbar)) <= radius:
                sols.append(s.x)
        if not sols:
            failures.append(t)
            continue
        solvable += 1
        max_norm = max(max_norm, max(float(np.linalg.norm(x)) for x in sols))
        if denom < 1e-12:
            skipped += 1
            continue
        ratio_max = max(ratio_max, max(float(np.linalg.norm(x - xbar)) for x in sols) / denom)
    return PerturbationReport(
        trials=trials, eps=eps, seed=seed, solvable_fraction=solvable / trials,
        max_solution_norm=max_norm, error_ratio_max=ratio_max, failures=tuple(failures),
        note=f"skipped {skipped} zero-perturbation trials" if skipped else "")


class TestUsc:
    def test_identity_small_excursion(self, identity32):
        inst = TcpInstance(orthant(2), np.array([-1.0, -4.0]), identity32)
        rep = usc_probe(inst, 1e-3, 50, seed=7)
        assert rep["max_excursion"] <= 0.01

    def test_eps_zero(self, identity32):
        inst = TcpInstance(orthant(2), np.array([-1.0, -4.0]), identity32)
        assert usc_probe(inst, 0.0, 5, seed=7)["max_excursion"] == 0.0

    def test_shrinks_with_eps(self, identity32):
        inst = TcpInstance(orthant(2), np.array([-1.0, -4.0]), identity32)
        hi = usc_probe(inst, 1e-3, 20, seed=7)["max_excursion"]
        lo = usc_probe(inst, 1e-4, 20, seed=7)["max_excursion"]
        assert lo <= hi + 1e-6

    def test_requires_regular(self, e1):
        inst = TcpInstance(orthant(2), np.array([1.0, 1.0]), e1)
        with pytest.raises(ValueError):
            usc_probe(inst, 1e-3, 5, seed=0)


class TestGraphClosedness:
    def test_constant_sequence(self, id_inst):
        x = np.array([1.0, 1.0])
        seq = [(id_inst, x)] * 5
        assert graph_closedness_probe(seq, (id_inst, x))

    def test_converging_sequence(self, identity32):
        seq = []
        for l in range(1, 21):
            q = np.array([-1.0, -1.0]) + (1.0 / l)
            inst_l = TcpInstance(orthant(2), q, identity32)
            x_l = np.sqrt(np.maximum(-q, 0.0))
            seq.append((inst_l, x_l))
        limit = TcpInstance(orthant(2), np.array([-1.0, -1.0]), identity32)
        assert graph_closedness_probe(seq, (limit, np.array([1.0, 1.0])))

    def test_non_solution_rejected(self, id_inst):
        seq = [(id_inst, np.array([5.0, 5.0]))]
        with pytest.raises(ValueError):
            graph_closedness_probe(seq, (id_inst, np.array([1.0, 1.0])))

    def test_e3_companion_non_closedness(self, e3bar):
        # the family maps x_l to (1,2) exactly while converging to a matrix
        # whose image cone stays separated from (1,2)
        from tcpkit.compcones import tpos_contains
        from tcpkit.cones import orthant as _orthant
        for l in (1, 10, 100):
            Al = fx.E3_family(l)
            x_l = np.array([2.0 + 2 * l, float(l)])
            assert np.allclose(apply_m1(Al, x_l), [1.0, 2.0], atol=1e-10)
            assert frobenius_distance(Al, e3bar) == pytest.approx(1.0 / l,
                                                                 abs=5e-16)
        assert tpos_contains(_orthant(2), e3bar, [1.0, 2.0]).status == "fails"


class TestUnsolvableNeighborhood:
    def test_e1_nonmember(self, e1):
        rep = unsolvable_neighborhood_probe(e1, np.array([1.0, -1.0]),
                                            1e-4, 30, seed=3)
        assert rep["fraction_unsolvable"] == 1.0

    def test_eps_zero(self, e1):
        rep = unsolvable_neighborhood_probe(e1, np.array([1.0, -1.0]),
                                            0.0, 5, seed=3)
        assert rep["fraction_unsolvable"] == 1.0

    def test_member_precondition(self, identity32):
        # strictly copositive: every q solvable, so no valid starting point
        with pytest.raises(ValueError):
            unsolvable_neighborhood_probe(identity32, np.array([1.0, -1.0]),
                                          1e-4, 5, seed=0)


class TestNonsingularityOpenness:
    def test_e1(self, e1):
        rep = nonsingularity_openness_probe(orthant(2), e1, 1e-3, 50, seed=3)
        assert rep["fraction_nonsingular"] == 1.0

    def test_eps_zero(self, e1):
        rep = nonsingularity_openness_probe(orthant(2), e1, 0.0, 5, seed=3)
        assert rep["fraction_nonsingular"] == 1.0

    def test_e2_rejected(self, e2):
        with pytest.raises(ValueError):
            nonsingularity_openness_probe(orthant(2), e2, 1e-3, 5, seed=0)


# every probe on valid base inputs, with 5 trials, its usual eps and its
# usual seed unless told
probes = pytest.mark.parametrize("probe", [
    lambda inst, e1, trials=5, eps=1e-3, seed=7: perturb_existence(inst, eps, trials, seed=seed),
    lambda inst, e1, trials=5, eps=1e-3, seed=7: error_bound_probe(
        inst, np.array([1.0, 1.0]), 0.1, eps, trials, seed),
    lambda inst, e1, trials=5, eps=1e-3, seed=7: usc_probe(inst, eps, trials, seed=seed),
    lambda inst, e1, trials=5, eps=1e-4, seed=3: unsolvable_neighborhood_probe(
        e1, np.array([1.0, -1.0]), eps, trials, seed=seed),
    lambda inst, e1, trials=5, eps=1e-3, seed=3: nonsingularity_openness_probe(
        orthant(2), e1, eps, trials, seed=seed),
], ids=["existence", "error-bound", "usc", "unsolvable", "openness"])


@probes
@pytest.mark.parametrize("trials", [0, -3, 2.5, 3.0])
def test_probes_reject_no_trials(probe, trials, id_inst, e1):
    # a fraction over no trials measures nothing, and a trial count that is
    # not a whole number names no count of draws; the base inputs are valid
    with pytest.raises(ValueError, match="trials"):
        probe(id_inst, e1, trials)


@probes
@pytest.mark.parametrize("seed", [1.5, 7.0, "7", None])
def test_probes_reject_a_seed_that_is_not_whole(probe, seed, id_inst, e1):
    # a float seed would be truncated to another one than the report echoes
    with pytest.raises(ValueError, match="seed must be a whole number"):
        probe(id_inst, e1, seed=seed)


@probes
def test_probes_echo_python_ints(probe, id_inst, e1):
    # numpy integers are whole numbers; the report echoes them as Python
    # ints, the report of the same ints, which json serialises
    report = probe(id_inst, e1, trials=np.int64(5), seed=np.uint32(3))
    same = probe(id_inst, e1, trials=5, seed=3)
    report, same = (r if isinstance(r, dict) else r.to_json() for r in (report, same))
    assert report == same and type(report["trials"]) is int and type(report["seed"]) is int
    json.dumps(report)


@probes
@pytest.mark.parametrize("eps", [-1e-3, math.nan, math.inf])
def test_probes_reject_a_bad_eps(probe, eps, id_inst, e1):
    # a negative eps would flip the redraw fallback's shift; a NaN or inf
    # one must be named as eps, not as a tensor entry
    with pytest.raises(ValueError, match="eps must be finite and >= 0"):
        probe(id_inst, e1, eps=eps)


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_error_bound_rejects_a_bad_radius(radius, id_inst):
    # no end point lies within such a radius, which would read as unsolvable
    with pytest.raises(ValueError, match="neighborhood_radius must be finite and > 0"):
        error_bound_probe(id_inst, np.array([1.0, 1.0]), radius, 1e-3, 5, 7)
