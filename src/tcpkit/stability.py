"""Empirical probes for solution-set topology and solution stability.

Everything here is a seeded experiment: perturbations are drawn from a
splitmix64 stream, reports echo their full configuration, and repeated runs
with the same seed are bit-identical.  The probes estimate the existential
constants (solvability radius, error-bound constant) empirically and claim
no exact value for them.  The local-uniqueness certificate is no estimate:
it is the least Rayleigh quotient over the slice, exact up to rounding.

Each probe is one array pipeline from its seed to its report.  Its trials'
streams are one struct of arrays (_rng._trial_streams), its perturbed
tensors a dense (T, n, ..., n) stack and its q's a (T, n) array
(_perturbations), never a Tensor or TcpInstance per trial: the gates
(_holds) read the dense stack, and one _Forms.dense of it serves the
stacked solve, residual check and min-map Newton.  The base instance rides
in its trials' stack: its gate, or its membership walk, is row 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._forms import _Forms
from ._rng import _sphere_stack, _trial_streams, _uniform_stack
from ._simplex import MARGIN
from .classify import Verdict, _holds, q_in_dual_SA
from .compcones import _memberships, complementary_tensor
from .cones import (_RAY_TOL, _SLICE, PolyhedralCone, _active, _row_norms, extreme_rays,
                    from_generators, orthant)
from .solver import TcpInstance, _min_map_newton, _solve_stack, _solved_rows, is_solution, residual
from .tensor import IndexSet, Tensor, _dense_form, _finite, _whole, apply_m2, is_subsymmetric

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


def _require_sizes(trials, eps: float, seed, radius: float | None = None) -> tuple[int, int]:
    """(trials, seed) as Python ints (operator.index), so a report echoes
    what was drawn.  Refuses, naming the argument, a trials or seed that is
    not a whole number, trials below 1, an eps that is not finite and >= 0,
    and a neighborhood radius (when given) that is not finite and > 0."""
    trials = _whole(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    if radius is not None and not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"neighborhood_radius must be finite and > 0, got {radius}")
    return trials, _whole(seed, "seed")


def _perturbations(A0: np.ndarray, q: np.ndarray, streams, eps: float):
    """(dq, dA, D, Q) of the next draw of every stream, in one stacked draw:
    dq (T, n) and the flat dA (T, n^m) on a random ray (a point on the unit
    sphere in R^(n + n^m)), scaled so that ||dq|| + ||dA||_F = eps * U(0, 1)
    (eps = 0 draws nothing), and the perturbed dense tensors D = A0 + dA,
    (T, n, ..., n), and q's Q = q + dq, unchecked (_checked)."""
    n, T = len(q), len(streams)
    if eps == 0.0:
        dq, dA = np.zeros((T, n)), np.zeros((T, A0.size))
    else:
        V = _sphere_stack(streams, 1, n + A0.size)[:, 0]
        scale = eps * _uniform_stack(streams, 1)[:, 0] / (_row_norms(V[:, :n]) + _row_norms(V[:, n:]))
        dq, dA = V[:, :n] * scale[:, None], V[:, n:] * scale[:, None]
    return dq, dA, A0 + dA.reshape((T,) + A0.shape), q + dq


def _checked(D: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Q, once D and Q pass the checks a tensor and an instance of each
    trial would make: a non-finite entry of D (_dense_form), then of Q,
    raises."""
    _dense_form(D)
    return _finite(Q, Q.shape, "q")


def _joined(objective: str, A0: np.ndarray, D: np.ndarray, K) -> np.ndarray:
    """_holds of the base tensor A0, then of every trial's D[t], in one
    stacked check; the base alone when D is not finite, which the caller's
    check of the trials then raises on, after the base's errors."""
    stack = np.concatenate([A0[None], D])
    return np.array(_holds(objective, stack if np.isfinite(D).all() else stack[:1], K))


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
    SplitMix64(seed).spawn(t + 1), so the trials are gated together, as
    dense arrays: one stacked copositivity check (_holds) per round, the
    first of the base tensor and every trial's, then of the redraws of the
    trials that failed, each round drawn in one stacked draw from their own
    streams.  The base check and every gate read the status is_copositive
    gives, and the base q must be certified in the interior of the dual of
    S_A (q_in_dual_SA).  Then all trials are solved in one stacked support
    walk over their forms (_Forms.dense), each with the outcome of its own
    solve_enumerate call."""
    trials, seed = _require_sizes(trials, eps, seed)
    if not inst.cone.is_orthant:
        raise ValueError("perturb_existence requires the orthant")
    A0, streams = inst.A.to_dense(), _trial_streams(seed, trials)
    _, _, D, Q = _perturbations(A0, inst.q, streams, eps)
    held = _joined("xm", A0, D, inst.cone)
    if not held[0]:
        raise ValueError("base tensor is not certified copositive")
    dual = q_in_dual_SA(inst.A, inst.q).status
    if dual == "fails":
        raise ValueError("base q is not in the dual of S_A = SOL(0, A)")
    if dual == "unknown":
        raise ValueError("base q in int(S_A^*) could not be certified")

    Q, redraws, pending = _checked(D, Q), np.zeros(trials, dtype=int), np.flatnonzero(~held[1:])
    while len(pending):
        sub = streams[pending]
        _, _, D[pending], Qp = _perturbations(A0, inst.q, sub, eps)
        streams[pending], Q[pending] = sub, _checked(D[pending], Qp)
        redraws[pending] += 1
        pending = pending[redraws[pending] < 100]
        if len(pending):
            pending = pending[~np.array(_holds("xm", D[pending], inst.cone))]
    capped = np.flatnonzero(redraws >= 100)[:, None]
    with np.errstate(over="ignore"):  # a non-finite entry raises in _Forms.dense
        D[(capped,) + (np.arange(inst.A.dim),) * A0.ndim] += eps  # the unit tensor's entries
    X, own = _solve_stack(_Forms.dense(D), Q, inst.cone)[:2]
    solved = np.bincount(own, minlength=trials) > 0
    return PerturbationReport(
        trials=trials, eps=eps, seed=seed,
        solvable_fraction=int(np.count_nonzero(solved)) / trials,
        max_solution_norm=float(np.max(_row_norms(X), initial=0.0)),
        error_ratio_max=0.0,
        failures=tuple(np.flatnonzero(~solved).tolist()),
        resamples=int(redraws.sum()),
    )


def error_bound_probe(inst: TcpInstance, xbar, neighborhood_radius: float,
                      eps: float, trials: int, seed: int) -> PerturbationReport:
    """Estimate the local error-bound constant at an isolated solution.

    Trial t draws its perturbation and 4 starts around xbar from its own
    stream SplitMix64(seed).spawn(t + 1); the 5 starts of every trial (xbar
    first) are refined in one stacked min-map Newton, each row on its own
    trial's instance (one _Forms.dense of the trials' tensors), with the end
    points of one refine call per start.  All 5 x trials end points are then
    checked in one stacked orthant residual check, each with the verdict of
    is_solution(pert, x, 1e-9) on its own trial's instance."""
    trials, seed = _require_sizes(trials, eps, seed, neighborhood_radius)
    xbar = np.asarray(xbar, dtype=float)
    cert = local_uniqueness_certificate(inst, xbar)
    if cert.status != "holds":
        raise ValueError("local uniqueness certificate does not hold at xbar")

    streams = _trial_streams(seed, trials)
    dq, dA, D, Q = _perturbations(inst.A.to_dense(), inst.q, streams, eps)
    Q = _checked(D, Q)
    forms, n = _Forms.dense(D), inst.A.dim
    starts = np.empty((trials, 5, n))
    starts[:, 0] = xbar
    starts[:, 1:] = xbar + 0.1 * neighborhood_radius * _sphere_stack(streams, 4, n)
    own = np.repeat(np.arange(trials), 5)
    ends = _min_map_newton(forms, Q, inst.cone, starts.reshape(-1, n), own)
    dist = _row_norms(ends - xbar)
    kept = (_solved_rows(forms, Q, inst.cone, ends, own, 1e-9)
            & (dist <= neighborhood_radius)).reshape(trials, 5)
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
    (_holds).  Trial t draws from its own stream SplitMix64(seed).spawn(t +
    1); the base instance, row 0, and every trial are solved in one stacked
    support walk over their forms (_Forms.dense), each with the outcome of
    its own solve_enumerate call."""
    trials, seed = _require_sizes(trials, eps, seed)
    A0 = inst.A.to_dense()
    if not _holds("abs_xm", A0[None], inst.cone)[0]:
        raise ValueError("base tensor is not certified K-regular")
    _, _, D, Q = _perturbations(A0, inst.q, _trial_streams(seed, trials), eps)
    Q = np.vstack([inst.q, _checked(D, Q)])
    X, own = _solve_stack(_Forms.dense(np.concatenate([A0[None], D])), Q, inst.cone)[:2]
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

    Trial t draws dq from its own stream SplitMix64(seed).spawn(t + 1); the
    base q, row 0, and every trial's q + dq are decided in one stacked
    membership walk, and the closedness condition on every complementary
    tensor in one stacked check (_holds).  Every verdict is that of its own
    q_membership or is_K_nonsingular call."""
    trials, seed = _require_sizes(trials, eps, seed)
    q, n = _finite(q, (A.dim,), "q"), A.dim
    streams, dq = _trial_streams(seed, trials), np.zeros((trials, n))
    if eps != 0.0:
        scale = eps * _uniform_stack(streams, 1)
        dq = scale * _sphere_stack(streams, 1, n)[:, 0]
    Q = q + dq
    finite = bool(np.isfinite(Q).all())  # else the base walks alone, and the trials raise below
    verdicts = [res.member for res in _memberships(A, [q, *Q] if finite else [q])]
    if verdicts[0] is not False:
        raise ValueError("probe requires a q certified as a non-member")
    comps = [complementary_tensor(A, IndexSet(alpha, n)).to_dense()
             for r in range(1, n + 1) for alpha in itertools.combinations(range(1, n + 1), r)]
    unverified = not all(_holds("norm_m1", np.array(comps), orthant(n)))
    warn = ("closedness sufficient condition unverified for some complementary tensors; "
            "result is empirical only") if unverified else ""
    if not finite:
        _finite(Q, Q.shape, "q")
    verdicts = verdicts[1:]
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

    Trial t draws from its own stream SplitMix64(seed).spawn(t + 1).  When
    the trials share the base's cone (on the orthant or at eps = 0) the
    base tensor and every trial's are checked in one stacked check (_holds);
    on a jittered generated cone each trial has its own, and one check.
    Each status is that of one is_K_nonsingular call."""
    trials, seed = _require_sizes(trials, eps, seed)
    n, A0, streams = A.dim, A.to_dense(), _trial_streams(seed, trials)
    D, shared = np.broadcast_to(A0, (trials,) + A0.shape), eps == 0.0 or K.is_orthant
    if eps != 0.0:
        flat = _sphere_stack(streams, 1, A0.size)[:, 0]
        D = A0 + ((eps * _uniform_stack(streams, 1)) * flat).reshape(D.shape)
    held = _joined("norm_m1", A0, D, K) if shared else _holds("norm_m1", A0[None], K)
    if not held[0]:
        raise ValueError("base tensor is not certified K-nonsingular")
    if not shared:
        jittered = []
        for g in K.generators:  # a uniform, then a sphere point, per generator
            scale = eps * _uniform_stack(streams, 1, -1.0, 1.0)
            jittered.append(g + scale * _sphere_stack(streams, 1, n)[:, 0])
        cones = [from_generators(list(G)) for G in np.stack(jittered, axis=1)]
    _dense_form(D)  # a non-finite entry raises, as a trial's tensor would
    if not shared:
        held = [True] + [_holds("norm_m1", D[[t]], Kt)[0] for t, Kt in enumerate(cones)]
    return {
        "fraction_nonsingular": int(np.count_nonzero(held[1:])) / trials,
        "eps": eps,
        "trials": trials,
        "seed": seed,
    }
