"""Solving and verifying TCP(K, q, A).

Verification (residual triple, is_solution) works for any polyhedral cone;
the enumeration solver is orthant-only, walking the 2^n complementarity
supports and collecting every root the per-support search finds.  Local
refinement is a semismooth Newton method on the componentwise min-map.  On
the orthant, the candidate points of a stacked walk, of refine and of the
probes' end points are checked in one row check (``_residual_rows``) with
the bits residual() gives each point alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._forms import _Forms
from ._polysys import _DEDUP_DIST, _dedup, damped_newton, walk_supports
from ._rng import SplitMix64
from .classify import SearchBudget
from .cones import PolyhedralCone, _dists, cone_from_json, cone_to_json, dist, dual
from .tensor import (
    IndexSet,
    ShapeError,
    Tensor,
    apply_m1,
    tensor_from_json,
    tensor_to_json,
)

__all__ = [
    "TcpInstance",
    "TcpSolution",
    "residual",
    "is_solution",
    "solve_enumerate",
    "EnumerationOutcome",
    "refine",
    "solution_set_probe",
    "instance_to_json",
    "instance_from_json",
]

_SUPPORT_TOL = 1e-7
_MIN_MAP_ITERS = 80


@dataclass(frozen=True)
class TcpInstance:
    cone: PolyhedralCone
    q: np.ndarray
    A: Tensor

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.A.dim,) or self.cone.dim != self.A.dim:
            raise ShapeError("cone, q and tensor dimensions disagree")
        if not np.all(np.isfinite(q)):
            raise ValueError("q has a non-finite entry")
        object.__setattr__(self, "q", q)

    def w_of(self, x) -> np.ndarray:
        return apply_m1(self.A, x) + self.q


def _instance_stack(cone: PolyhedralCone, Q: np.ndarray, tensors) -> list[TcpInstance]:
    """[TcpInstance(cone, q, A) for q, A in zip(Q, tensors)], tensors of the
    cone's dimension, with __post_init__'s checks made once on the stacked
    (T, n) array Q."""
    if Q.shape != (len(tensors), cone.dim):
        raise ShapeError("cone, q and tensor dimensions disagree")
    if not np.all(np.isfinite(Q)):
        raise ValueError("q has a non-finite entry")
    out = []
    for q, A in zip(Q, tensors):
        inst = object.__new__(TcpInstance)
        inst.__dict__.update(cone=cone, q=q, A=A)
        out.append(inst)
    return out


@dataclass(frozen=True)
class TcpSolution:
    x: np.ndarray
    w: np.ndarray
    primal_dist: float
    dual_dist: float
    comp_gap: float
    alpha: IndexSet
    converged: bool = True

    @property
    def max_residual(self) -> float:
        return max(self.primal_dist, self.dual_dist, self.comp_gap)

    def to_json(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "w": [float(v) for v in self.w],
            "primal_dist": self.primal_dist,
            "dual_dist": self.dual_dist,
            "comp_gap": self.comp_gap,
            "alpha": list(self.alpha.members),
            "converged": self.converged,
        }


def residual(inst: TcpInstance, x) -> tuple[float, float, float]:
    """(dist(x, K), dist(w, K*), |<x, w>|) for w = A x^{m-1} + q."""
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.A.dim,):
        raise ShapeError("candidate point has wrong dimension")
    w = inst.w_of(x)
    return dist(inst.cone, x), dist(dual(inst.cone), w), abs(float(np.dot(x, w)))


def is_solution(inst: TcpInstance, x, tol: float) -> bool:
    return all(r <= tol for r in residual(inst, x))


@dataclass(frozen=True)
class EnumerationOutcome:
    solutions: tuple
    unknown: bool  # nothing was found and some support could not be settled


def solve_enumerate(inst: TcpInstance, budget: SearchBudget | None = None) -> EnumerationOutcome:
    """All solutions found by complementary-support enumeration (orthant only).

    Solutions are deduplicated at distance 1e-6 and sorted lexicographically
    by x.  The unknown flag is set when nothing was found and at least one
    support could not be settled (see ``walk_supports``), the rule
    ``q_membership`` uses for its unknown verdict.
    """
    return _solve_stack([inst], budget)[0]


def _solve_stack(insts, budget: SearchBudget | None = None) -> list[EnumerationOutcome]:
    """[solve_enumerate(inst, budget) for inst in insts], instances of one
    dimension and order, in one stacked support walk and one check of every
    candidate point (_solutions): every instance gets the outcome it gets
    alone."""
    if not all(inst.cone.is_orthant for inst in insts):
        raise ValueError("enumeration solver requires the nonnegative orthant")
    n = insts[0].A.dim
    if n > 12:
        raise ValueError("enumeration limited to dim <= 12")
    budget = budget or SearchBudget()
    points, owner = [], []
    all_settled = [True] * len(insts)
    for alpha, feasible, settled in walk_supports([inst.A for inst in insts],
                                                  [inst.q for inst in insts], budget.multistarts):
        a = [i - 1 for i in alpha.members]
        for t, roots in enumerate(feasible):
            all_settled[t] = all_settled[t] and settled[t]
            for u_a, _ in roots:
                x = np.zeros(n)
                x[a] = u_a
                points.append(x)
                owner.append(t)
    found = [[] for _ in insts]
    for t, s in zip(owner, _solutions(insts, np.reshape(points, (-1, n)),
                                      np.array(owner, dtype=np.intp), _SUPPORT_TOL)):
        if s.converged:
            found[t].append(s)
    out = []
    for sols, done in zip(found, all_settled):
        keep = _dedup(np.reshape([s.x for s in sols], (-1, n)))
        out.append(EnumerationOutcome(tuple(sols[i] for i in keep), not done and not sols))
    return out


def _residual_rows(insts, X: np.ndarray, own: np.ndarray):
    """(W, R) at every row r, x of the (S, n) array X, on the orthant
    instance insts[own[r]] (instances of one dimension and order): W[r] =
    A x^{m-1} + q has the bits of inst.w_of(x), and R[r] the residual triple
    of residual(inst, x)."""
    K = insts[0].cone
    W = _Forms([inst.A for inst in insts]).m1(X, own) + np.array([inst.q for inst in insts])[own]
    return W, np.column_stack([_dists(K, X), _dists(dual(K), W), np.abs(np.vecdot(X, W))])


def _solved_rows(insts, X: np.ndarray, own: np.ndarray, tol: float) -> np.ndarray:
    """is_solution(insts[own[r]], x, tol) at every row r, x of X, in one
    check (_residual_rows)."""
    return (_residual_rows(insts, X, own)[1] <= tol).all(axis=1)


def _solutions(insts, X: np.ndarray, own: np.ndarray, tol: float) -> list[TcpSolution]:
    """The TcpSolution of every row r, x of X on insts[own[r]], in one check
    (_residual_rows): w and the residual triple as residual(inst, x) gives
    them, alpha the coordinates of x above 1e-7, and converged when every
    residual is within tol, as is_solution(inst, x, tol) says."""
    (W, R), n = _residual_rows(insts, X, own), X.shape[1]
    return [TcpSolution(x, w, p, d, c, IndexSet(tuple(np.flatnonzero(x > _SUPPORT_TOL) + 1), n),
                        p <= tol and d <= tol and c <= tol)
            for x, w, (p, d, c) in zip(X, W, R.tolist())]


def _min_map_newton(insts, X0: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Semismooth Newton on the min-map Phi(x) = min(x, A x^{m-1} + q) from
    every row r of the (S, n) array X0 at once, on the instance insts[own[r]]
    (instances of one dimension and order), for at most 80 steps; returns
    the end points clamped to x >= 0, each row as its start would end alone
    on its instance."""
    if not all(inst.cone.is_orthant for inst in insts):
        raise ValueError("min-map refinement requires the nonnegative orthant")
    forms = _Forms([inst.A for inst in insts])
    Q = np.array([inst.q for inst in insts])
    eye = np.eye(insts[0].A.dim)

    def phi(V, rows):
        o = own[rows]
        return np.minimum(V, forms.m1(V, o) + Q.take(o, axis=0))

    def jac(V, rows):
        # row i of the generalized Jacobian: e_i where x_i is the active branch
        o = own[rows]
        F, J = forms.eval(V, o, jac=True)
        return np.where((V <= F + Q.take(o, axis=0))[:, :, None], eye, J)

    X, _ = damped_newton(phi, jac, X0, _MIN_MAP_ITERS, 1e-12)
    return np.maximum(X, 0.0)


def refine(inst: TcpInstance, x0) -> TcpSolution:
    """Semismooth Newton on the min-map Phi(x) = min(x, A x^{m-1} + q).

    Returns a TcpSolution with converged=False (never a false success) when
    the iteration stalls above residual 1e-9.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (inst.A.dim,):
        raise ShapeError("starting point has wrong dimension")
    own = np.zeros(1, dtype=np.intp)
    return _solutions([inst], _min_map_newton([inst], x[None], own), own, 1e-9)[0]


def solution_set_probe(inst: TcpInstance, radius: float, samples: int, seed: int,
                       budget: SearchBudget | None = None) -> dict:
    """Empirical boundedness probe: enumeration plus multistart refinement
    from random starts in [0, radius]^n."""
    outcome = solve_enumerate(inst, budget)
    found = [s.x for s in outcome.solutions]
    rng = SplitMix64(seed)
    n = inst.A.dim
    starts = np.array([[rng.uniform(0.0, radius) for _ in range(n)] for _ in range(samples)])
    own = np.zeros(samples, dtype=np.intp)
    ends = _min_map_newton([inst], starts.reshape(-1, n), own)
    for x in ends[_solved_rows([inst], ends, own, 1e-9)]:
        if all(np.linalg.norm(x - y) > _DEDUP_DIST for y in found):
            found.append(x)
    max_norm = max((float(np.linalg.norm(x)) for x in found), default=0.0)
    return {
        "count": len(found),
        "bounded_within": max_norm,
        "enumeration_unknown": outcome.unknown,
        "radius": radius,
        "samples": samples,
        "seed": seed,
    }


def instance_to_json(inst: TcpInstance) -> dict:
    return {
        "cone": cone_to_json(inst.cone),
        "q": [float(v) for v in inst.q],
        "tensor": tensor_to_json(inst.A),
    }


def instance_from_json(obj: dict) -> TcpInstance:
    return TcpInstance(
        cone=cone_from_json(obj["cone"]),
        q=np.asarray(obj["q"], dtype=float),
        A=tensor_from_json(obj["tensor"]),
    )
