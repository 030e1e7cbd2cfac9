"""Complementary tensors, their cones, and right-hand-side membership.

For a tensor A and index subset alpha, the complementary tensor flips the
sign of every entry whose trailing indices all lie in alpha and keeps unit
diagonal entries outside alpha.  The union of the images of the orthant
under all 2^n complementary tensors is exactly the set of right-hand sides
q for which the orthant TCP is solvable; membership is decided by scanning
the per-alpha polynomial systems.  Many right-hand sides of one tensor are
decided in one stacked support walk, each with the result it gets alone;
q_membership is the stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._polysys import SYS_TOL, damped_newton, newton_refine, walk_supports
from ._simplex import _combine, _simplex_lattice
from .classify import SearchBudget, Verdict
from .cones import PolyhedralCone
from .tensor import (
    IndexSet,
    ShapeError,
    Tensor,
    apply_m1,
    batch_apply_m1,
    jacobian_m1,
    principal_subtensor,
)

__all__ = [
    "MembershipResult",
    "complementary_tensor",
    "tpos_contains",
    "q_membership",
    "solution_from_membership",
]


@dataclass(frozen=True)
class MembershipResult:
    member: bool | None  # None = unknown
    alpha: IndexSet | None
    u: np.ndarray | None
    residual: float
    subsets_examined: int

    def to_json(self) -> dict:
        return {
            "member": "unknown" if self.member is None else self.member,
            "alpha": None if self.alpha is None else list(self.alpha.members),
            "u": None if self.u is None else [float(v) for v in self.u],
            "residual": self.residual,
            "subsets_examined": self.subsets_examined,
        }


def complementary_tensor(A: Tensor, alpha: IndexSet | tuple) -> Tensor:
    """Entries: -a where all trailing indices are in alpha; Kronecker deltas
    on indices entirely outside alpha; zero otherwise."""
    if not isinstance(alpha, IndexSet):
        alpha = IndexSet(tuple(alpha), A.dim)
    if alpha.n != A.dim:
        raise ShapeError("index set ambient dimension differs from tensor dim")
    inside = np.zeros(A.dim, dtype=bool)
    inside[[i - 1 for i in alpha.members]] = True
    keep = np.all(inside[A._tails], axis=1)
    out = np.flatnonzero(~inside)
    tails = np.vstack([A._tails[keep], np.repeat(out[:, None], A.order - 1, axis=1)])
    coef = np.vstack([-A._coef[keep], np.eye(A.dim)[out]])
    return Tensor._from_form(A.order, A.dim, tails, coef, merge=True)


def tpos_contains(K: PolyhedralCone, A: Tensor, y, budget: SearchBudget | None = None) -> Verdict:
    """Does y lie in {A x^{m-1} : x in K}?

    holds: a witness x = G lam, lam >= 0 over the normalized generators G,
    with residual within the margin, found by one batched damped Newton
    (Gauss-Newton when G is not square) on A (G lam)^{m-1} = y from the
    scaled best lattice points.  fails: the normalized images of the
    lattice and of the polished points stay separated from y-hat by more
    than the margin; that sampled separation bounds the true distance from
    above only, so fails is a claim at sampling resolution, and its note
    says so.  unknown otherwise.
    """
    y = np.asarray(y, dtype=float)
    if K.dim != A.dim or y.shape != (A.dim,):
        raise ShapeError(f"cone of dimension {K.dim} and target of shape {y.shape}, "
                         f"tensor of dimension {A.dim}")
    budget = budget or SearchBudget()
    yn = float(np.linalg.norm(y))
    used = 0
    if yn <= SYS_TOL:
        return Verdict("tpos-contains", "holds", 0.0, np.zeros(A.dim), used)
    yhat = y / yn

    gens = [np.asarray(g, float) / np.linalg.norm(g) for g in K.generators]
    G = np.column_stack(gens)
    k = len(gens)
    res = max(budget.resolution_for(k), 256) if k <= 2 else budget.resolution_for(k)
    lattice = _simplex_lattice(k, res)
    X = lattice @ G.T
    Z = batch_apply_m1(A, X)
    zn = np.linalg.norm(Z, axis=1)
    used += len(zn)
    sep = _separation(Z, zn, yhat)

    # polish the most promising directions, scaled onto |y|, into exact preimages
    best = np.argsort(np.linalg.norm(Z - yhat * zn[:, None], axis=1), kind="stable")
    best = best[: budget.multistarts]
    best = best[zn[best] > 1e-12]
    t = (yn / zn[best]) ** (1.0 / (A.order - 1))
    lam, r = damped_newton(lambda L, _: apply_m1(A, _combine(L, G)) - y,
                           lambda L, _: jacobian_m1(A, _combine(L, G)) @ G,
                           t[:, None] * lattice[best], budget.polish_iters, 1e-14,
                           project=lambda L: np.maximum(L, 0.0))
    X = _combine(lam, G)
    hit = np.flatnonzero(r <= budget.margin * max(1.0, yn))
    if len(hit):
        i = int(hit[0])
        return Verdict("tpos-contains", "holds", float(r[i]), X[i],
                       used + (i + 1) * budget.polish_iters)
    used += len(best) * budget.polish_iters
    Z = apply_m1(A, X)
    sep = min(sep, _separation(Z, np.linalg.norm(Z, axis=1), yhat))
    if sep > budget.margin:
        return Verdict("tpos-contains", "fails", sep, None, used,
                       note="sampled separation on the normalized image grid: an upper "
                            "bound on the distance from y-hat, with no lower bound behind it")
    return Verdict("tpos-contains", "unknown", sep, None, used)


def _separation(Z: np.ndarray, zn: np.ndarray, yhat: np.ndarray) -> float:
    """min ||z / ||z|| - yhat|| over the rows z of Z with ||z|| > 1e-12."""
    ok = zn > 1e-12
    if not np.any(ok):
        return math.inf
    return float(np.linalg.norm(Z[ok] / zn[ok, None] - yhat, axis=1).min())


def q_membership(A: Tensor, q, budget: SearchBudget | None = None) -> MembershipResult:
    """Decide q in Q(R^n_+, A) by scanning supports in increasing cardinality.

    member=True comes with (alpha, u) reconstructing a verified solution;
    member=False only when every support is settled (its system certified
    infeasible, or its complete root list failing the slack test);
    otherwise unknown.
    """
    return _memberships(A, [q], budget)[0]


def _memberships(A: Tensor, qs, budget: SearchBudget | None = None) -> list[MembershipResult]:
    """[q_membership(A, q, budget) for q in qs], qs not empty, in one stacked
    support walk over [A] * len(qs) that drops each q once it is a member
    and stops once every q has its verdict: every q gets the result it gets
    alone, subsets_examined included."""
    budget = budget or SearchBudget()
    n = A.dim
    qs = [np.asarray(q, dtype=float) for q in qs]
    for q in qs:
        if q.shape != (n,):
            raise ShapeError(f"q of shape {q.shape}, expected ({n},)")
        if not np.all(np.isfinite(q)):
            raise ValueError("q has a non-finite entry")
    if n > 12:
        raise ValueError("membership scan limited to dim <= 12")
    out, all_settled, examined = [None] * len(qs), [True] * len(qs), 0
    live = np.ones(len(qs), dtype=bool)
    for alpha, feasible, settled in walk_supports([A] * len(qs), qs, budget.multistarts, live):
        examined += 1
        a, comp = [i - 1 for i in alpha.members], [i - 1 for i in alpha.complement]
        for t in np.flatnonzero(live):
            all_settled[t] = all_settled[t] and settled[t]
            if feasible[t]:
                (u_a, slack), q = feasible[t][0], qs[t]
                u = np.zeros(n)
                u[a], u[comp] = u_a, np.maximum(slack, 0.0) ** (1.0 / (A.order - 1))
                resid = (float(np.linalg.norm(apply_m1(principal_subtensor(A, alpha), u_a) + q[a]))
                         if a else 0.0)  # the empty support's system has no equations
                out[t], live[t] = MembershipResult(True, alpha, u, resid, examined), False
    return [res or MembershipResult(False if done else None, None, None, math.inf, examined)
            for res, done in zip(out, all_settled)]


def solution_from_membership(result: MembershipResult, A: Tensor, q) -> np.ndarray:
    """Reconstruct x = (u_alpha, 0) from a member result."""
    if result.member is not True:
        raise ValueError("no solution to reconstruct: result is not a member")
    q = np.asarray(q, dtype=float)
    x = np.zeros(A.dim)
    a = [i - 1 for i in result.alpha.members]
    x[a] = result.u[a]
    # one Newton touch-up keeps the reconstruction at solver tolerance
    if a:
        x[a] = newton_refine(principal_subtensor(A, result.alpha), q[a], result.u[a])[0]
    return x
