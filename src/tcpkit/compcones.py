"""Complementary tensors, their cones, and right-hand-side membership.

For a tensor A and index subset alpha, the complementary tensor flips the
sign of every entry whose trailing indices all lie in alpha and keeps unit
diagonal entries outside alpha.  The union of the images of the orthant
under all 2^n complementary tensors is exactly the set of right-hand sides
q for which the orthant TCP is solvable; membership is decided by scanning
the per-alpha polynomial systems.  Many right-hand sides of one tensor are
decided in one stacked support walk, each with the result it gets alone;
q_membership is the stack of one.  Image-cone membership (tpos_contains)
scans the systems lifted to the cone's generators with the walk's root
search, and for a matrix measures the exact NNLS distance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._forms import _Forms
from ._polysys import _REASONS, _WALK, SYS_TOL, _scan_stack, walk_supports
from ._simplex import MARGIN, _basis, _lift
from .classify import Verdict
from .cones import PolyhedralCone, _nnls
from .tensor import (IndexSet, ShapeError, Tensor, _finite, apply_m1,
                     principal_subtensor)

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


def tpos_contains(K: PolyhedralCone, A: Tensor, y) -> Verdict:
    """Does y lie in {A x^{m-1} : x in K}?

    The image is a cone, so A is searched scaled by 2^-s (s a multiple of
    m - 1) to entries below 1 when an entry is 2^64 or more, which the lift
    would overflow; a point x of the scaled search is the point 2^(-s/(m-1))
    x of A's, with the same residual.
    For m = 2 the image is the cone of the columns of A G (G the normalized
    generators of K), so one NNLS gives the exact distance of y / |y| from
    it: the certificate, holds at or below MARGIN and fails above.
    For m >= 3 every x in K is G_S lam, lam >= 0, on a linearly independent
    set S of rank(G) generators (Caratheodory).  Every square row subsystem
    of every lifted system B_S lam^{m-1} = y (_lift) is scanned in one stack
    (_scan_stack): holds when a root's point G_S lam maps to y within
    MARGIN * max(1, |y|), that residual the certificate; fails when every S
    has a subsystem certified infeasible or with a complete root list;
    unknown otherwise.  per_alpha names each S (1-based) and the reasons of
    its scans: the one that refutes it, or why each is open.
    """
    if K.dim != A.dim:
        raise ShapeError(f"cone of dimension {K.dim}, tensor of dimension {A.dim}")
    y = _finite(y, (A.dim,), "y")
    yn = float(np.linalg.norm(y))
    if yn <= SYS_TOL:
        return Verdict("tpos-contains", "holds", 0.0, np.zeros(A.dim), 0)
    G, d = _basis(K, A.dim), A.order - 1
    top = math.frexp(float(np.abs(A._coef).max(initial=0.0)))[1]
    shift = d * -(-top // d) if top > 64 else 0  # an entry of 2^64 or more has exponent 65
    A, back = (A.scale(2.0**-shift), 2.0 ** (-shift // d)) if shift else (A, 1.0)
    if d == 1:
        lam, dist = _nnls(A.to_dense() @ G, y / yn)
        if dist <= MARGIN:
            return Verdict("tpos-contains", "holds", dist, yn * (G @ lam) * back, 1)
        return Verdict("tpos-contains", "fails", dist, None, 1,
                       note="exact distance of y-hat from the image cone")

    (n, k), r = G.shape, int(np.linalg.matrix_rank(G))
    sets = np.array(list(itertools.combinations(range(k), r)), dtype=np.intp)
    sets = sets[np.linalg.matrix_rank(np.moveaxis(G[:, sets], 1, 0)) == r]
    rows = np.array(list(itertools.combinations(range(n), r)), dtype=np.intp)
    B = _lift(A.to_dense()[None], np.moveaxis(G[:, sets], 1, 0))[:, rows]
    scans = _scan_stack(_Forms.dense(B.reshape((-1,) + B.shape[2:])),
                        -np.tile(y[rows], (len(sets), 1)), list(range(r)))
    for lam, i in zip(scans.roots, scans.owner):
        x = G[:, sets[i // len(rows)]] @ lam
        res = float(np.linalg.norm(apply_m1(A, x) - y))
        if res <= MARGIN * max(1.0, yn):
            return Verdict("tpos-contains", "holds", res, x * back, len(scans.reason))
    why = np.array(_REASONS, dtype=object)[scans.reason].reshape(len(sets), len(rows))
    done = (_WALK[scans.reason] == 0).reshape(why.shape)  # settled
    refuted, per_alpha = bool(done.any(axis=1).all()), {}
    for p, S in enumerate(sets):
        per_alpha[",".join(map(str, S + 1))] = "; ".join(
            f"rows {','.join(map(str, rows[j] + 1))}: "
            f"{why[p, j] or 'roots off y, not proved complete'}"
            for j in (np.flatnonzero(done[p])[:1] if done[p].any() else range(len(rows))))
    return Verdict("tpos-contains", "fails" if refuted else "unknown", None, None, done.size,
                   note="every independent generator set refuted by a subsystem scan"
                   if refuted else "", per_alpha=per_alpha)


def q_membership(A: Tensor, q) -> MembershipResult:
    """Decide q in Q(R^n_+, A) by scanning supports in increasing cardinality.

    member=True comes with (alpha, u) reconstructing a verified solution;
    member=False only when every support is settled, with no root whose
    slack is >= -SLACK_TOL: by the sign test or the Bernstein enclosure of
    its equations and slack rows (walk_supports), or by the scalar closed
    form; otherwise unknown.
    """
    return _memberships(A, [q])[0]


def _memberships(A: Tensor, qs) -> list[MembershipResult]:
    """[q_membership(A, q) for q in qs], qs not empty, in one stacked
    support walk over [A] * len(qs) that drops each q once it is a member
    and stops once every q has its verdict: every q gets the result it gets
    alone, subsets_examined included."""
    n = A.dim
    qs = [_finite(q, (n,), "q") for q in qs]
    if n > 12:
        raise ValueError("membership scan limited to dim <= 12")
    out, settled, examined = [None] * len(qs), np.ones(len(qs), dtype=bool), 0
    live = np.ones(len(qs), dtype=bool)
    for alpha, U, slack, owner, open_ in walk_supports(_Forms([A] * len(qs)), qs, live):
        examined += 1
        a, comp = [i - 1 for i in alpha.members], [i - 1 for i in alpha.complement]
        settled &= ~live | (open_ == 0)
        first = live[owner] & (owner != np.concatenate(([-1], owner[:-1])))
        for u_a, w, t in zip(U[first], slack[first], owner[first]):  # each live q's first root
            u = np.zeros(n)
            u[a], u[comp] = u_a, np.maximum(w, 0.0) ** (1.0 / (A.order - 1))
            resid = (float(np.linalg.norm(apply_m1(principal_subtensor(A, alpha), u_a) + qs[t][a]))
                     if a else 0.0)  # the empty support's system has no equations
            out[t], live[t] = MembershipResult(True, alpha, u, resid, examined), False
    return [res or MembershipResult(False if done else None, None, None, math.inf, examined)
            for res, done in zip(out, settled)]


def solution_from_membership(result: MembershipResult, A: Tensor) -> np.ndarray:
    """Reconstruct x = (u_alpha, 0) from a member result: u_alpha is the
    walk's root, already refined to the solver's tolerance."""
    if result.member is not True:
        raise ValueError("no solution to reconstruct: result is not a member")
    x = np.zeros(A.dim)
    a = [i - 1 for i in result.alpha.members]
    x[a] = result.u[a]
    return x
