"""Empirical probes for solution-set topology and solution stability.

Everything here is a seeded experiment: perturbations are drawn from a
splitmix64 stream, reports echo their full configuration, and repeated runs
with the same seed are bit-identical.  The probes estimate the existential
constants (solvability radius, error-bound constant) empirically and claim
no exact value for them.  The local-uniqueness certificate is no estimate:
it is the least Rayleigh quotient over the slice, exact up to rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._rng import SplitMix64, _sphere_stack, _uniform_stack
from ._simplex import MARGIN
from .classify import Verdict, _holds, q_in_dual_SA
from .compcones import _memberships, complementary_tensor, q_membership
from .cones import (_RAY_TOL, _SLICE, PolyhedralCone, _active, _row_norms, extreme_rays,
                    from_generators, orthant)
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


def _require_sizes(trials: int, eps: float, radius: float | None = None) -> None:
    """Refuses, naming the argument, trials below 1, an eps that is not
    finite and >= 0, and a neighborhood radius (when given) that is not
    finite and > 0."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    if radius is not None and not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"neighborhood_radius must be finite and > 0, got {radius}")


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


def _least_rayleigh(M: np.ndarray, R: np.ndarray):
    """(least v^T M v / v^T v, its v, candidates scored) over the cone of the
    unit columns of R, M symmetric.  A minimiser is v = R_S lam, lam > 0,
    on linearly independent columns S (Caratheodory), so lam is a generalized
    eigenvector of (R_S^T M R_S, R_S^T R_S) (Seeger, Linear Algebra Appl.
    292, 1999).  Every S, |S| <= n, is solved, cones._SLICE sets per batched
    call: a thin SVD R_S = U diag(s) W^T (rank |S| at _RAY_TOL), eigh of
    U^T M U, weights W diag(1/s) times its eigenvectors.  Each candidate
    v = R_S |lam| is in the cone, so the least quotient computed from them is
    the minimum, up to rounding, with no sign filter on the eigenvectors."""
    n, k = R.shape
    best, witness, scored = math.inf, None, 0
    for r in range(1, min(n, k) + 1):
        sets = itertools.combinations(range(k), r)
        while len(S := np.array(list(itertools.islice(sets, _SLICE)), dtype=np.intp)):
            U, s, Wt = np.linalg.svd(R.T[S].transpose(0, 2, 1), full_matrices=False)
            keep = s[:, -1] > _RAY_TOL
            S, U, s, Wt = S[keep], U[keep], s[keep], Wt[keep]
            Z = np.linalg.eigh(U.transpose(0, 2, 1) @ M @ U)[1] / s[:, :, None]
            V = R.T[S].transpose(0, 2, 1) @ np.abs(Wt.transpose(0, 2, 1) @ Z)  # (sets, n, r)
            quot = np.sum(V * (M @ V), axis=1) / np.sum(V * V, axis=1)  # (sets, r)
            scored += quot.size
            # the first batch sets the witness, even at a NaN quotient
            if quot.size and (witness is None or quot.min() < best):
                b, j = np.unravel_index(np.argmin(quot), quot.shape)
                best, witness = float(quot[b, j]), V[b, :, j].copy()
            del U, Wt, Z, V  # one batch's arrays alive at a time
    return best, witness, scored


def local_uniqueness_certificate(inst: TcpInstance, xbar) -> Verdict:
    """Second-order sufficient condition for local uniqueness of xbar.

    The least v^T (A xbar^{m-2}) v over unit directions v in the tangent
    cone of K at xbar that annihilate w (_least_rayleigh over the extreme
    rays of that slice; R^n is the cone of the +-basis vectors).  A minimum
    above MARGIN certifies local uniqueness, one at or below 0
    fails with a witness that re-checks, and an empty feasible slice
    certifies it vacuously.  The minimum is exact up to rounding.
    """
    xbar = np.asarray(xbar, dtype=float)
    if not is_solution(inst, xbar, 1e-6):
        raise ValueError("xbar is not a solution at tolerance 1e-6")
    note = ""
    if not is_subsymmetric(inst.A):
        note = "tensor is not sub-symmetric; the sufficient condition assumes it"

    M = apply_m2(inst.A, xbar)
    rows = list(_active(inst.cone, xbar))  # the tangent cone's inequalities
    w = inst.w_of(xbar)
    if float(np.linalg.norm(w)) > 1e-10:
        rows.extend([w, -w])
    rays = extreme_rays(rows, inst.A.dim)
    if not rays:
        return Verdict("local-uniqueness", "holds", None, None, 1,
                       note=(note + "; " if note else "") + "empty unit slice")
    cert, v, scored = _least_rayleigh(0.5 * (M + M.T), np.column_stack(rays))
    status = "holds" if cert > MARGIN else ("fails" if cert <= 0.0 else "unknown")
    return Verdict("local-uniqueness", status, cert, v / np.linalg.norm(v), scored, note=note)


def perturb_existence(inst: TcpInstance, eps: float, trials: int, seed: int) -> PerturbationReport:
    """Solvability of TCPs near a copositive base instance.

    Perturbations that break copositivity are redrawn (up to 100 times per
    trial, then shifted by eps times the unit tensor, which adds the sum of
    m-th powers to the polynomial).  Trial t draws from its own stream
    SplitMix64(seed).spawn(t + 1), so the trials are gated together: one
    stacked copositivity check (_holds) of every trial's tensor, then of
    the redraws of the trials that failed, each round drawn in one stacked
    draw from their own streams.  The base check and every gate read the
    status is_copositive gives, and the base q must be certified in the
    interior of the dual of S_A (q_in_dual_SA).  Then all trials are solved
    in one stacked support walk, each with the outcome of its own
    solve_enumerate call."""
    _require_sizes(trials, eps)
    if not inst.cone.is_orthant:
        raise ValueError("perturb_existence requires the orthant")
    if not _holds("xm", [inst.A], inst.cone)[0]:
        raise ValueError("base tensor is not certified copositive")
    dual = q_in_dual_SA(inst.A, inst.q).status
    if dual == "fails":
        raise ValueError("base q is not in the dual of S_A = SOL(0, A)")
    if dual == "unknown":
        raise ValueError("base q in int(S_A^*) could not be certified")

    streams, _, _, perts = _trial_instances(inst, eps, trials, seed)
    redraws = [0] * trials
    pending = list(range(trials))
    while pending:
        gates = _holds("xm", [perts[t].A for t in pending], inst.cone)
        pending = [t for t, holds in zip(pending, gates) if not holds]
        redrawn = _perturbations(inst, [streams[t] for t in pending], eps)[2] if pending else []
        for t, pert in zip(pending, redrawn):
            perts[t] = pert
            redraws[t] += 1
        pending = [t for t in pending if redraws[t] < 100]

    shift = unit_tensor(inst.A.order, inst.A.dim).scale(eps)
    perts = [TcpInstance(p.cone, p.q, p.A + shift) if r >= 100 else p
             for p, r in zip(perts, redraws)]
    X, own = _solve_stack(perts)[:2]
    solved = np.bincount(own, minlength=trials) > 0
    return PerturbationReport(
        trials=trials, eps=eps, seed=seed,
        solvable_fraction=int(np.count_nonzero(solved)) / trials,
        max_solution_norm=float(np.max(_row_norms(X), initial=0.0)),
        error_ratio_max=0.0,
        failures=tuple(np.flatnonzero(~solved).tolist()),
        resamples=sum(redraws),
    )


def error_bound_probe(inst: TcpInstance, xbar, neighborhood_radius: float,
                      eps: float, trials: int, seed: int) -> PerturbationReport:
    """Estimate the local error-bound constant at an isolated solution.

    Trial t draws its perturbation and 4 starts around xbar from its own
    stream SplitMix64(seed).spawn(t + 1); the 5 starts of every trial (xbar
    first) are refined in one stacked min-map Newton, each row on its own
    trial's instance, with the end points of one refine call per start.
    All 5 x trials end points are then checked in one stacked orthant
    residual check, each with the verdict of is_solution(pert, x, 1e-9) on
    its own trial's instance."""
    _require_sizes(trials, eps, neighborhood_radius)
    xbar = np.asarray(xbar, dtype=float)
    cert = local_uniqueness_certificate(inst, xbar)
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


def usc_probe(inst: TcpInstance, eps: float, trials: int, seed: int) -> dict:
    """Upper-semicontinuity probe: how far can perturbed solutions drift
    from the base solution set.

    The base tensor must be K-regular, with the status is_K_regular gives
    (_holds).  Trial t draws from its
    own stream SplitMix64(seed).spawn(t + 1); the base instance and every
    trial are solved in one stacked support walk, each with the outcome of
    its own solve_enumerate call."""
    _require_sizes(trials, eps)
    if not _holds("abs_xm", [inst.A], inst.cone)[0]:
        raise ValueError("base tensor is not certified K-regular")
    perts = _trial_instances(inst, eps, trials, seed)[3]
    X, own = _solve_stack([inst] + perts)[:2]
    B = X[own == 0]
    nearest = np.min(_row_norms(X[own > 0, None] - B), axis=1, initial=math.inf)
    unsolved = np.bincount(own, minlength=trials + 1)[1:] == 0
    return {
        "max_excursion": float(np.max(nearest, initial=0.0)),
        "eps": eps,
        "trials": trials,
        "seed": seed,
        "base_solution_count": len(B),
        "unsolved_trials": int(np.count_nonzero(unsolved)),
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


def unsolvable_neighborhood_probe(A: Tensor, q, eps: float, trials: int, seed: int) -> dict:
    """Persistence of unsolvability under small right-hand-side changes.

    The closedness condition is checked on every complementary tensor in
    one stacked check (_holds).  Trial t draws dq from its
    own stream SplitMix64(seed).spawn(t + 1), and all trials are decided in
    one stacked membership walk.  Every verdict is that of its own
    is_K_nonsingular or q_membership call."""
    _require_sizes(trials, eps)
    q = np.asarray(q, dtype=float)
    base = q_membership(A, q)
    if base.member is not False:
        raise ValueError("probe requires a q certified as a non-member")
    n = A.dim
    comps = [complementary_tensor(A, IndexSet(alpha, n))
             for r in range(1, n + 1) for alpha in itertools.combinations(range(1, n + 1), r)]
    unverified = not all(_holds("norm_m1", comps, orthant(n)))
    warn = ("closedness sufficient condition unverified for some complementary tensors; "
            "result is empirical only") if unverified else ""
    streams, dq = _trial_streams(seed, trials), np.zeros((trials, n))
    if eps != 0.0:
        scale = eps * _uniform_stack(streams, 1)
        dq = scale * _sphere_stack(streams, 1, n)[:, 0]
    verdicts = [res.member for res in _memberships(A, q + dq)]
    return {
        "fraction_unsolvable": verdicts.count(False) / trials,
        "unknown_trials": verdicts.count(None),
        "eps": eps,
        "trials": trials,
        "seed": seed,
        "note": warn,
    }


def nonsingularity_openness_probe(K: PolyhedralCone, A: Tensor, eps: float,
                                  trials: int, seed: int) -> dict:
    """Persistence of K-nonsingularity under tensor (and cone) jitter.

    Trial t draws from its own stream SplitMix64(seed).spawn(t + 1).  The
    trials that share a cone (all of them on the orthant or at eps = 0; on a
    jittered generated cone each trial has its own) are checked in one
    stacked check (_holds), with the status of one is_K_nonsingular call
    per trial, as the base check is."""
    _require_sizes(trials, eps)
    if not _holds("norm_m1", [A], K)[0]:
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
        nonsingular += sum(_holds("norm_m1", [tensors[t] for t in group], cones[group[0]]))
    return {
        "fraction_nonsingular": nonsingular / trials,
        "eps": eps,
        "trials": trials,
        "seed": seed,
    }
