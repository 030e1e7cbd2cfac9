"""Empirical probes for solution-set topology and solution stability.

Everything here is a seeded experiment: perturbations are drawn from a
splitmix64 stream, reports echo their full configuration, and repeated runs
with the same seed are bit-identical.  The probes estimate the existential
constants (solvability radius, error-bound constant) empirically; they
never claim exact values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._rng import SplitMix64, _sphere_stack, _uniform_stack
from ._simplex import _combine, _simplex_lattice, descend_on_simplex
from .classify import SearchBudget, Verdict, _holds, q_in_dual_SA
from .compcones import _memberships, complementary_tensor, q_membership
from .cones import PolyhedralCone, _row_norms, extreme_rays, from_generators, orthant, tangent_cone
from .solver import (TcpInstance, _instance_stack, _min_map_newton, _solve_stack, _solved_rows,
                     is_solution, residual)
from .tensor import IndexSet, Tensor, _dense_stack, apply_m2, is_subsymmetric, unit_tensor

__all__ = [
    "PerturbationReport",
    "local_uniqueness_certificate",
    "perturb_existence",
    "error_bound_probe",
    "usc_probe",
    "graph_closedness_probe",
    "unsolvable_neighborhood_probe",
    "nonsingularity_openness_probe",
]


@dataclass(frozen=True)
class PerturbationReport:
    trials: int
    eps: float
    seed: int
    solvable_fraction: float
    max_solution_norm: float
    error_ratio_max: float
    failures: tuple = ()
    resamples: int = 0
    note: str = ""

    def to_json(self) -> dict:
        return {**asdict(self), "failures": list(self.failures)}


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _trial_streams(seed: int, trials: int) -> list:
    """The stream SplitMix64(seed).spawn(t + 1) of every trial t."""
    rng = SplitMix64(seed)
    return [rng.spawn(t + 1) for t in range(trials)]


def _perturbations(inst: TcpInstance, streams, eps: float):
    """(dq, dA, perturbed instances) of the next draw of every stream, in one
    stacked draw: dq (T, n) and the flat dA (T, n^m) on a random ray (a
    point on the unit sphere in R^(n + n^m)), scaled so that ||dq|| +
    ||dA||_F = eps * U(0, 1); eps = 0 draws nothing."""
    n, T = inst.A.dim, len(streams)
    size = n ** inst.A.order
    if eps == 0.0:
        dq, dA = np.zeros((T, n)), np.zeros((T, size))
    else:
        D = _sphere_stack(streams, 1, n + size)[:, 0]
        scale = eps * _uniform_stack(streams, 1)[:, 0] / (_row_norms(D[:, :n]) + _row_norms(D[:, n:]))
        dq, dA = D[:, :n] * scale[:, None], D[:, n:] * scale[:, None]
    tensors = _dense_stack(inst.A.to_dense() + dA.reshape((T,) + (n,) * inst.A.order))
    return dq, dA, _instance_stack(inst.cone, inst.q + dq, tensors)


def _trial_instances(inst: TcpInstance, eps: float, trials: int, seed: int):
    """(streams, dq, dA, perturbed instances): the stream of every trial t
    (_trial_streams) and the perturbation drawn first from it."""
    streams = _trial_streams(seed, trials)
    return (streams, *_perturbations(inst, streams, eps))


def local_uniqueness_certificate(inst: TcpInstance, xbar,
                                 budget: SearchBudget | None = None) -> Verdict:
    """Second-order sufficient condition for local uniqueness of xbar.

    Minimizes v^T (A xbar^{m-2}) v over unit directions in the tangent cone
    of K at xbar that annihilate w.  A strictly positive minimum certifies
    local uniqueness; an empty feasible slice certifies it vacuously.
    """
    budget = budget or SearchBudget()
    xbar = np.asarray(xbar, dtype=float)
    if not is_solution(inst, xbar, 1e-6):
        raise ValueError("xbar is not a solution at tolerance 1e-6")
    note = ""
    if not is_subsymmetric(inst.A):
        note = "tensor is not sub-symmetric; the sufficient condition assumes it"

    M = apply_m2(inst.A, xbar)
    Msym = 0.5 * (M + M.T)
    n = inst.A.dim
    T = tangent_cone(inst.cone, xbar, tol=1e-8)
    rows = list(T.inequalities)
    w = inst.w_of(xbar)
    if float(np.linalg.norm(w)) > 1e-10:
        rows.extend([w, -w])

    if not rows:
        # feasible slice is the whole unit sphere: exact eigen-solve
        vals, vecs = np.linalg.eigh(Msym)
        cert = float(vals[0])
        witness = vecs[:, 0]
        status = "holds" if cert > budget.margin else ("fails" if cert <= 0 else "unknown")
        return Verdict("local-uniqueness", status, cert, witness, 1, note=note)

    rays = extreme_rays(rows, n)
    if not rays:
        return Verdict("local-uniqueness", "holds", None, None, 1,
                       note=(note + "; " if note else "") + "empty unit slice")

    R = np.column_stack(rays)

    def rayleigh(L):
        V = _combine(L, R)
        nv = np.vecdot(V, V)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(nv <= 1e-20, math.inf, np.vecdot((V[:, None, :] @ Msym)[:, 0], V) / nv)

    def grad(L):
        V = _combine(L, R)
        MV = (V[:, None, :] @ Msym)[:, 0]
        return _combine(2.0 * (MV - rayleigh(L)[:, None] * V) / np.vecdot(V, V)[:, None], R.T)

    k = R.shape[1]
    lattice = _simplex_lattice(k, budget.resolution_for(k))
    start = lattice[np.argmin(rayleigh(lattice))]  # first lattice minimizer
    lam, val, used = descend_on_simplex(lambda L, _: rayleigh(L), lambda L, _: grad(L),
                                        start[None], budget.polish_iters)
    best_val = float(val[0])
    evals = len(lattice) + int(used[0]) - 1  # the start was already scored on the lattice
    best_v = R @ lam[0]

    witness = best_v / np.linalg.norm(best_v)
    if best_val > budget.margin:
        return Verdict("local-uniqueness", "holds", best_val, witness, evals, note=note)
    if best_val <= 0.0:
        return Verdict("local-uniqueness", "fails", best_val, witness, evals, note=note)
    return Verdict("local-uniqueness", "unknown", best_val, witness, evals, note=note)


def perturb_existence(inst: TcpInstance, eps: float, trials: int, seed: int,
                      budget: SearchBudget | None = None) -> PerturbationReport:
    """Solvability of TCPs near a copositive base instance.

    Perturbations that break copositivity are redrawn (up to 100 times per
    trial, then shifted by eps times the unit tensor, which adds the sum of
    m-th powers to the polynomial).  Trial t draws from its own stream
    SplitMix64(seed).spawn(t + 1), so the trials are gated together: one
    stacked copositivity check (_holds) of every trial's tensor, then of
    the redraws of the trials that failed, each round drawn in one stacked
    draw from their own streams.  The base check and every gate read the
    status is_copositive gives, decided by a Bernstein enclosure first and
    by the basis search only for the tensors it leaves open.  Then all
    trials are solved in one stacked support walk, each with the outcome of
    its own solve_enumerate call."""
    _require_trials(trials)
    budget = budget or SearchBudget()
    if not inst.cone.is_orthant:
        raise ValueError("perturb_existence requires the orthant")
    if not _holds("xm", [inst.A], inst.cone, budget)[0]:
        raise ValueError("base tensor is not certified copositive")
    dual_chk = q_in_dual_SA(inst.A, inst.q, budget)
    if dual_chk.status != "holds":
        raise ValueError("base q fails the dual-of-S_A necessary condition")

    streams, _, _, perts = _trial_instances(inst, eps, trials, seed)
    redraws = [0] * trials
    pending = list(range(trials))
    while pending:
        gates = _holds("xm", [perts[t].A for t in pending], inst.cone, budget)
        pending = [t for t, holds in zip(pending, gates) if not holds]
        redrawn = _perturbations(inst, [streams[t] for t in pending], eps)[2] if pending else []
        for t, pert in zip(pending, redrawn):
            perts[t] = pert
            redraws[t] += 1
        pending = [t for t in pending if redraws[t] < 100]

    shift = unit_tensor(inst.A.order, inst.A.dim).scale(eps)
    perts = [TcpInstance(p.cone, p.q, p.A + shift) if r >= 100 else p
             for p, r in zip(perts, redraws)]
    solvable = 0
    max_norm = 0.0
    failures: list[int] = []
    for t, outcome in enumerate(_solve_stack(perts, budget)):
        if outcome.solutions:
            solvable += 1
            max_norm = max(max_norm, max(float(np.linalg.norm(s.x)) for s in outcome.solutions))
        else:
            failures.append(t)
    return PerturbationReport(
        trials=trials, eps=eps, seed=seed,
        solvable_fraction=solvable / trials,
        max_solution_norm=max_norm,
        error_ratio_max=0.0,
        failures=tuple(failures),
        resamples=sum(redraws),
    )


def error_bound_probe(inst: TcpInstance, xbar, neighborhood_radius: float,
                      eps: float, trials: int, seed: int,
                      budget: SearchBudget | None = None) -> PerturbationReport:
    """Estimate the local error-bound constant at an isolated solution.

    Trial t draws its perturbation and 4 starts around xbar from its own
    stream SplitMix64(seed).spawn(t + 1); the 5 starts of every trial (xbar
    first) are refined in one stacked min-map Newton, each row on its own
    trial's instance, with the end points of one refine call per start.
    All 5 x trials end points are then checked in one stacked orthant
    residual check, each with the verdict of is_solution(pert, x, 1e-9) on
    its own trial's instance."""
    _require_trials(trials)
    budget = budget or SearchBudget()
    xbar = np.asarray(xbar, dtype=float)
    cert = local_uniqueness_certificate(inst, xbar, budget)
    if cert.status != "holds":
        raise ValueError("local uniqueness certificate does not hold at xbar")

    streams, dq, dA, perts = _trial_instances(inst, eps, trials, seed)
    n = inst.A.dim
    starts = np.empty((trials, 5, n))
    starts[:, 0] = xbar
    starts[:, 1:] = xbar + 0.1 * neighborhood_radius * _sphere_stack(streams, 4, n)
    own = np.repeat(np.arange(trials), 5)
    ends = _min_map_newton(perts, starts.reshape(-1, n), own)
    dist = _row_norms(ends - xbar)
    kept = (_solved_rows(perts, ends, own, 1e-9) & (dist <= neighborhood_radius)).reshape(trials, 5)
    solvable = kept.any(axis=1)
    denom = _row_norms(dq) + _row_norms(dA)
    rated = solvable & (denom >= 1e-12)
    worst = np.max(dist.reshape(trials, 5), axis=1, initial=0.0, where=kept)
    skipped = int(np.count_nonzero(solvable & ~rated))
    return PerturbationReport(
        trials=trials, eps=eps, seed=seed,
        solvable_fraction=int(np.count_nonzero(solvable)) / trials,
        max_solution_norm=float(np.max(_row_norms(ends)[kept.ravel()], initial=0.0)),
        error_ratio_max=float(np.max(worst[rated] / denom[rated], initial=0.0)),
        failures=tuple(np.flatnonzero(~solvable).tolist()),
        note=f"skipped {skipped} zero-perturbation trials" if skipped else "",
    )


def usc_probe(inst: TcpInstance, eps: float, trials: int, seed: int,
              budget: SearchBudget | None = None) -> dict:
    """Upper-semicontinuity probe: how far can perturbed solutions drift
    from the base solution set.

    The base tensor must be K-regular, with the status is_K_regular gives,
    decided by a Bernstein enclosure first (_holds).  Trial t draws from its
    own stream SplitMix64(seed).spawn(t + 1); the base instance and every
    trial are solved in one stacked support walk, each with the outcome of
    its own solve_enumerate call."""
    _require_trials(trials)
    budget = budget or SearchBudget()
    if not _holds("abs_xm", [inst.A], inst.cone, budget)[0]:
        raise ValueError("base tensor is not certified K-regular")
    perts = _trial_instances(inst, eps, trials, seed)[3]
    base, *outcomes = _solve_stack([inst] + perts, budget)
    n = inst.A.dim
    B = np.array([s.x for s in base.solutions]).reshape(-1, n)
    X = np.array([s.x for outcome in outcomes for s in outcome.solutions]).reshape(-1, n)
    nearest = np.min(_row_norms(X[:, None] - B), axis=1, initial=math.inf)
    return {
        "max_excursion": float(np.max(nearest, initial=0.0)),
        "eps": eps,
        "trials": trials,
        "seed": seed,
        "base_solution_count": len(B),
        "unsolved_trials": sum(not outcome.solutions for outcome in outcomes),
    }


def graph_closedness_probe(sequence, limit) -> bool:
    """Check a converging sequence of solutions against its limit.

    sequence: iterable of (TcpInstance, x) with every x a solution of its
    own instance at 1e-7; limit: (TcpInstance, x).  The limit tolerance
    grows with the residual of the tail of the sequence evaluated on the
    limit instance.
    """
    seq = list(sequence)
    if not seq:
        raise ValueError("empty sequence")
    for inst_l, x_l in seq:
        if not is_solution(inst_l, x_l, 1e-7):
            raise ValueError("sequence member is not a solution of its instance")
    lim_inst, lim_x = limit
    tail_inst, tail_x = seq[-1]
    tail_res = max(residual(lim_inst, np.asarray(tail_x, dtype=float)))
    tol_growth = max(1e-7, 10.0 * tail_res)
    return is_solution(lim_inst, lim_x, tol_growth)


def unsolvable_neighborhood_probe(A: Tensor, q, eps: float, trials: int, seed: int,
                                  budget: SearchBudget | None = None) -> dict:
    """Persistence of unsolvability under small right-hand-side changes.

    The closedness condition is checked on every complementary tensor in
    one stacked check (_holds): a Bernstein enclosure first, the basis
    search only for the tensors it leaves open.  Trial t draws dq from its
    own stream SplitMix64(seed).spawn(t + 1), and all trials are decided in
    one stacked membership walk.  Every verdict is that of its own
    is_K_nonsingular or q_membership call."""
    _require_trials(trials)
    budget = budget or SearchBudget()
    q = np.asarray(q, dtype=float)
    base = q_membership(A, q, budget)
    if base.member is not False:
        raise ValueError("probe requires a q certified as a non-member")
    n = A.dim
    comps = [complementary_tensor(A, IndexSet(alpha, n))
             for r in range(1, n + 1) for alpha in itertools.combinations(range(1, n + 1), r)]
    unverified = not all(_holds("norm_m1", comps, orthant(n), budget))
    warn = ("closedness sufficient condition unverified for some complementary tensors; "
            "result is empirical only") if unverified else ""
    streams, dq = _trial_streams(seed, trials), np.zeros((trials, n))
    if eps != 0.0:
        scale = eps * _uniform_stack(streams, 1)
        dq = scale * _sphere_stack(streams, 1, n)[:, 0]
    verdicts = [res.member for res in _memberships(A, q + dq, budget)]
    return {
        "fraction_unsolvable": verdicts.count(False) / trials,
        "unknown_trials": verdicts.count(None),
        "eps": eps,
        "trials": trials,
        "seed": seed,
        "note": warn,
    }


def nonsingularity_openness_probe(K: PolyhedralCone, A: Tensor, eps: float,
                                  trials: int, seed: int,
                                  budget: SearchBudget | None = None) -> dict:
    """Persistence of K-nonsingularity under tensor (and cone) jitter.

    Trial t draws from its own stream SplitMix64(seed).spawn(t + 1).  The
    trials that share a cone (all of them on the orthant or at eps = 0; on a
    jittered generated cone each trial has its own) are checked in one
    stacked check (_holds), with the status of one is_K_nonsingular call
    per trial, as the base check is: a Bernstein enclosure decides first,
    and the basis search runs only on the tensors it leaves open."""
    _require_trials(trials)
    budget = budget or SearchBudget()
    if not _holds("norm_m1", [A], K, budget)[0]:
        raise ValueError("base tensor is not certified K-nonsingular")
    n, shape = A.dim, (trials,) + (A.dim,) * A.order
    streams, dA, cones = _trial_streams(seed, trials), np.zeros(shape), [K] * trials
    if eps != 0.0:
        flat = _sphere_stack(streams, 1, n ** A.order)[:, 0]
        dA = (eps * _uniform_stack(streams, 1)) * flat
        if not K.is_orthant:
            jittered = []
            for g in K.generators:  # a uniform, then a sphere point, per generator
                scale = eps * _uniform_stack(streams, 1, -1.0, 1.0)
                jittered.append(g + scale * _sphere_stack(streams, 1, n)[:, 0])
            cones = [from_generators(list(G)) for G in np.stack(jittered, axis=1)]
    tensors = _dense_stack(A.to_dense() + dA.reshape(shape))
    by_cone: dict[int, list[int]] = {}
    for t, Kp in enumerate(cones):
        by_cone.setdefault(id(Kp), []).append(t)
    nonsingular = 0
    for group in by_cone.values():
        nonsingular += sum(_holds("norm_m1", [tensors[t] for t in group], cones[group[0]], budget))
    return {
        "fraction_nonsingular": nonsingular / trials,
        "eps": eps,
        "trials": trials,
        "seed": seed,
    }
