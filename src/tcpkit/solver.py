"""Solving and verifying TCP(K, q, A).

Verification (residual triple, is_solution) works for any polyhedral cone;
the enumeration solver is orthant-only, walking the 2^n complementarity
supports and collecting every root the per-support search finds.  Local
refinement is a semismooth Newton method on the componentwise min-map.  The
candidate points of a stacked walk, of refine and of the probes' end points
are checked in one row check (``_residual_rows``), of which residual() is
the one-row case, so every point gets the bits it gets alone.  A stacked
solve (``_solve_stack``) keeps its solutions in arrays, which the probes
read; only the public calls build objects from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._forms import _Forms
from ._polysys import _DEDUP_DIST, _REASONS, _dedup, walk_supports
from ._rng import SplitMix64
from ._simplex import damped_newton
from .cones import PolyhedralCone, _dists, cone_from_json, cone_to_json, dual
from .tensor import (IndexSet, ShapeError, Tensor, _finite, apply_m1, tensor_from_json,
                     tensor_to_json)

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
        if self.cone.dim != self.A.dim:
            raise ShapeError("cone and tensor dimensions disagree")
        object.__setattr__(self, "q", _finite(self.q, (self.A.dim,), "q"))

    def w_of(self, x) -> np.ndarray:
        return apply_m1(self.A, x) + self.q


def _instance_stack(cone: PolyhedralCone, Q: np.ndarray, tensors) -> list[TcpInstance]:
    """[TcpInstance(cone, q, A) for q, A in zip(Q, tensors)], tensors of the
    cone's dimension, with __post_init__'s checks made once on the stacked
    (T, n) array Q."""
    Q = _finite(Q, (len(tensors), cone.dim), "q")
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
    """(dist(x, K), dist(w, K*), |<x, w>|) for w = A x^{m-1} + q: one row of
    _residual_rows."""
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.A.dim,):
        raise ShapeError("candidate point has wrong dimension")
    return tuple(_residual_rows([inst], x[None], np.zeros(1, dtype=np.intp))[1][0].tolist())


def is_solution(inst: TcpInstance, x, tol: float) -> bool:
    return all(r <= tol for r in residual(inst, x))


@dataclass(frozen=True)
class EnumerationOutcome:
    solutions: tuple
    unknown: bool  # nothing was found and some support could not be settled
    open_supports: tuple = ()  # (alpha members, why) of every support left open


def solve_enumerate(inst: TcpInstance) -> EnumerationOutcome:
    """All solutions found by complementary-support enumeration (orthant only).

    Solutions are deduplicated at distance 1e-6 and sorted lexicographically
    by x.  The unknown flag is set when nothing was found and at least one
    support could not be settled (see ``walk_supports``), the rule
    ``q_membership`` uses for its unknown verdict; open_supports names each
    support left open and why.
    """
    return _outcome(_solve_stack([inst]), 0)


def _solve_stack(insts):
    """solve_enumerate(inst) for every inst of insts (of one dimension and
    order) in one stacked support walk, one check of every candidate point
    (_residual_rows) and one dedup (_dedup): each gets what it gets alone.
    Returns the solutions, the rows of X, with the instance own, w (W) and
    residual triple (R) of each, every instance's in solve_enumerate's
    order; the (alpha members, open codes of walk_supports) of every
    support; and whether each instance is unknown."""
    if not all(inst.cone.is_orthant for inst in insts):
        raise ValueError("enumeration solver requires the nonnegative orthant")
    n = insts[0].A.dim
    if n > 12:
        raise ValueError("enumeration limited to dim <= 12")
    points, owner, open_ = [], [], []
    for alpha, U, _, own, why in walk_supports([inst.A for inst in insts],
                                               [inst.q for inst in insts]):
        X = np.zeros((len(U), n))
        X[:, [i - 1 for i in alpha.members]] = U
        points.append(X)
        owner.append(own)
        open_.append((alpha.members, why))
    X, own = np.concatenate(points), np.concatenate(owner)
    W, R = _residual_rows(insts, X, own)
    keep = np.flatnonzero((R <= _SUPPORT_TOL).all(axis=1))
    keep = keep[_dedup(X[keep], own[keep])]
    unknown = np.any([why > 0 for _, why in open_], axis=0)
    unknown &= np.bincount(own[keep], minlength=len(insts)) == 0
    return X[keep], own[keep], W[keep], R[keep], open_, unknown


def _outcome(found, t: int) -> EnumerationOutcome:
    """The EnumerationOutcome of the instance t of a stacked solve."""
    X, own, W, R, open_, unknown = found
    why = tuple((members, _REASONS[code[t]]) for members, code in open_ if code[t])
    return EnumerationOutcome(tuple(_solutions(X[own == t], W[own == t], R[own == t],
                                               _SUPPORT_TOL)), bool(unknown[t]), why)


def _residual_rows(insts, X: np.ndarray, own: np.ndarray):
    """(W, R) at every row r, x of the (S, n) array X, on the instance
    insts[own[r]] (instances of one cone, dimension and order; any cone):
    W[r] = A x^{m-1} + q has the bits of inst.w_of(x), and R[r] is the
    residual triple (dist(x, K), dist(w, K*), |<x, w>|), each distance a row
    of cones._dists."""
    K = insts[0].cone
    W = _Forms([inst.A for inst in insts]).m1(X, own) + np.array([inst.q for inst in insts])[own]
    return W, np.column_stack([_dists(K, X), _dists(dual(K), W), np.abs(np.vecdot(X, W))])


def _solved_rows(insts, X: np.ndarray, own: np.ndarray, tol: float) -> np.ndarray:
    """is_solution(insts[own[r]], x, tol) at every row r, x of X, in one
    check (_residual_rows)."""
    return (_residual_rows(insts, X, own)[1] <= tol).all(axis=1)


def _solutions(X: np.ndarray, W: np.ndarray, R: np.ndarray, tol: float) -> list[TcpSolution]:
    """The TcpSolution of every row r, x of X, with w = W[r] and the
    residual triple R[r] (_residual_rows): alpha the coordinates of x above
    1e-7, and converged when every residual is within tol, as
    is_solution(inst, x, tol) says."""
    n = X.shape[1]
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
    X = _min_map_newton([inst], x[None], own)
    return _solutions(X, *_residual_rows([inst], X, own), 1e-9)[0]


def solution_set_probe(inst: TcpInstance, radius: float, samples: int, seed: int) -> dict:
    """Empirical boundedness probe: enumeration plus multistart refinement
    from random starts in [0, radius]^n."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    X, *_, unknown = _solve_stack([inst])
    found = list(X)
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
        "enumeration_unknown": bool(unknown[0]),
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
