"""Tensor classification: copositivity, regularity, (non)singularity.

Every verdict is three-valued and rests on a Bernstein enclosure of its
objective over the compact basis of the cone, the convex hull of its
normalized generators (the standard simplex for the orthant), cut into
sub-simplices (``_simplex._enclose``).  "holds" is certified: the
Bernstein coefficients of every leaf, each moved by a bound on its
rounding, clear the verdict's threshold.  "fails" carries a witness: a
leaf vertex, or a point damped Newton polishes from the best one, whose
objective computed exactly in Fractions crosses the threshold.  Anything
else is "unknown".  The certificate is that exact value at the best
point found, an upper bound on the minimum.  The dual test of S_A =
SOL(0, A) subdivides the faces of the simplex the same way.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._forms import _Forms
from ._simplex import (MARGIN, _CLEAR_DEPTH, _CLEAR_ENTRIES, _clearing, _enclose, _polish, _signs,
                       _subdivide)
from .cones import PolyhedralCone, orthant
from .tensor import IndexSet, Tensor, _finite, apply_m1, principal_subtensor

__all__ = [
    "Verdict",
    "min_over_basis",
    "is_K_psd",
    "is_copositive",
    "is_K_pd",
    "is_strictly_copositive",
    "is_K_regular",
    "is_K_nonsingular",
    "all_principal_nonsingular",
    "s_cone_samples",
    "q_in_dual_SA",
]


@dataclass(frozen=True)
class Verdict:
    property: str
    status: str  # "holds" | "fails" | "unknown"
    certificate: float | None
    witness: np.ndarray | None
    budget_used: int
    note: str = ""
    per_alpha: dict | None = None

    def to_json(self) -> dict:
        out = {
            "property": self.property,
            "status": self.status,
            "certificate": self.certificate,
            "witness": None if self.witness is None else [float(v) for v in self.witness],
        }
        if self.note:
            out["note"] = self.note
        if self.per_alpha is not None:
            out["per_alpha"] = self.per_alpha
        return out


def min_over_basis(objective: str, A: Tensor, K: PolyhedralCone):
    """Bound one of {A x^m ("xm"), ||A x^{m-1}|| ("norm_m1"), |A x^m|
    ("abs_xm")} over the compact basis of K (convex hull of normalized
    generators) by a Bernstein enclosure (_simplex._enclose).

    Returns (value, x, evaluations, lower), lower <= minimum <= value.  The
    value is the objective at the point x, computed exactly and rounded up
    (_exact); lower is the least bound of the enclosure's leaves, each moved
    against the verdicts by a bound on its rounding; evaluations counts the
    leaves bounded.
    """
    if objective not in ("xm", "norm_m1", "abs_xm"):
        raise ValueError(f"objective {objective!r} is none of xm, norm_m1, abs_xm")
    return _minima(objective, [A], K)[0]


def _minima(objective: str, tensors, K: PolyhedralCone) -> list:
    """[min_over_basis(objective, A, K) for A in tensors], tensors of one
    order and dimension, in one stacked enclosure."""
    return [(_exact(objective, A, x), x, used, lower)
            for A, (_, x, used, lower) in zip(tensors, _enclose(objective, tensors, K))]


def _exact(objective: str, A: Tensor, x: np.ndarray) -> float:
    """The objective at x, computed in Fractions from A's form and rounded up
    to a float; a norm through an integer square root, 2^-64 relative above
    it at most."""
    X = [Fraction(v) for v in x.tolist()]
    mono = [math.prod([X[j] for j in tail]) for tail in A._tails.tolist()]
    F = [sum(Fraction(c) * t for c, t in zip(col, mono) if c) for col in A._coef.T.tolist()]
    if objective == "norm_m1":
        s = Fraction(sum(f * f for f in F))
        p, q = s.numerator << 128, s.denominator  # sqrt(s) = sqrt(p q) / (q 2^64)
        r = math.isqrt(p * q)
        v = Fraction(r + (r * r < p * q), q << 64)
    else:
        v = Fraction(sum(a * f for a, f in zip(X, F)))
        v = abs(v) if objective == "abs_xm" else v
    try:
        up = float(v)
    except OverflowError:
        return math.inf if v > 0 else -sys.float_info.max
    return up if Fraction(up) >= v else math.nextafter(up, math.inf)


def _unit(x: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(x)
    return x if nrm <= 1e-15 else x / nrm


def _three_valued(name: str, v: float, x: np.ndarray, used: int, holds: bool,
                  fails: bool) -> Verdict:
    """holds when holds; fails, with witness x, when fails and x is not 0;
    unknown otherwise.  The certificate is v."""
    if holds:
        return Verdict(name, "holds", v, None, used,
                       note="every leaf of the Bernstein enclosure clears the threshold")
    if fails and np.any(x):
        return Verdict(name, "fails", v, _unit(x), used)
    return Verdict(name, "unknown", v, None, used,
                   note="leaves of the enclosure stay open and no point found crosses the threshold")


def is_K_psd(A: Tensor, K: PolyhedralCone) -> Verdict:
    return _xm_verdict("K-positive-semidefinite", A, K)


def is_copositive(A: Tensor) -> Verdict:
    return _xm_verdict("copositive", A, orthant(A.dim))


def is_K_pd(A: Tensor, K: PolyhedralCone) -> Verdict:
    """holds when the lower bound of A x^m is > MARGIN; fails when it is
    <= 0 at a point."""
    return _xm_verdict("K-positive-definite", A, K, strict=True)


def is_strictly_copositive(A: Tensor) -> Verdict:
    return _xm_verdict("strictly-copositive", A, orthant(A.dim), strict=True)


def _xm_verdict(name: str, A: Tensor, K: PolyhedralCone, strict: bool = False) -> Verdict:
    """is_K_psd's verdict, or with strict is_K_pd's, named name."""
    v, x, used, lower = min_over_basis("xm", A, K)
    if strict:
        return _three_valued(name, v, x, used, lower > MARGIN, v <= 0.0)
    return _psd_verdict(name, v, x, used, lower)


def _psd_verdict(name: str, v: float, x: np.ndarray, used: int, lower: float) -> Verdict:
    """holds when the lower bound of A x^m is >= -MARGIN/2; fails, with
    witness x, when the value v at x is below -MARGIN."""
    return _three_valued(name, v, x, used, lower >= -0.5 * MARGIN, v < -MARGIN)


def is_K_regular(A: Tensor, K: PolyhedralCone) -> Verdict:
    """holds when the lower bound of |A x^m| is >= 2 MARGIN; fails when it
    is at most a thousandth of MARGIN at a point."""
    return _nonsingular_verdict(*min_over_basis("abs_xm", A, K), name="K-regular")


def is_K_nonsingular(A: Tensor, K: PolyhedralCone) -> Verdict:
    """'holds' means K-nonsingular, ||A x^{m-1}|| >= 2 MARGIN on the basis;
    'fails' means K-singular with a witness x on which ||A x^{m-1}|| vanishes
    to a thousandth of MARGIN."""
    return _nonsingular_verdict(*min_over_basis("norm_m1", A, K))


def _nonsingular_verdict(v: float, x: np.ndarray, used: int, lower: float,
                         name: str = "K-nonsingular") -> Verdict:
    return _three_valued(name, v, x, used, lower >= 2.0 * MARGIN, v <= MARGIN * 1e-3)


def _holds(objective: str, tensors, K: PolyhedralCone) -> list[bool]:
    """Whether the verdict of every A in tensors (of one order and dimension)
    holds: is_copositive's rule (_psd_verdict) for xm, is_K_regular's and
    is_K_nonsingular's for abs_xm and norm_m1, read from one stacked
    enclosure (_enclose), on which alone a holds rests."""
    rule = _psd_verdict if objective == "xm" else (lambda _, *r: _nonsingular_verdict(*r))
    return [rule("", *res).status == "holds" for res in _enclose(objective, tensors, K)]


def all_principal_nonsingular(A: Tensor) -> Verdict:
    """Orthant-nonsingularity of every principal sub-tensor (2^n - 1 subsets).

    The sub-tensors of each size are checked in one stacked enclosure, with
    the verdicts of one is_K_nonsingular call per sub-tensor."""
    if A.dim > 12:
        raise ValueError("principal sweep limited to dim <= 12")
    table: dict[str, str] = {}
    worst: Verdict | None = None
    used = 0
    status = "holds"
    witness = None
    for r in range(1, A.dim + 1):
        alphas = list(itertools.combinations(range(1, A.dim + 1), r))
        subs = [principal_subtensor(A, IndexSet(alpha, A.dim)) for alpha in alphas]
        for alpha, res in zip(alphas, _minima("norm_m1", subs, orthant(r))):
            vd = _nonsingular_verdict(*res)
            used += vd.budget_used
            table[",".join(map(str, alpha))] = vd.status
            if vd.status == "fails" and status != "fails":
                status, worst, witness = "fails", vd, np.zeros(A.dim)
                witness[[i - 1 for i in alpha]] = vd.witness
            elif vd.status == "unknown" and status == "holds":
                status, worst = "unknown", vd
    cert = worst.certificate if worst is not None else None
    return Verdict("all-principal-nonsingular", status, cert, witness, used,
                   per_alpha=table)


def _s_cone(A: Tensor, q: np.ndarray):
    """(settled, samples, candidates) of the subdivision of S_A = SOL(0, A)
    against q.  On the simplex S_A is the union over supports alpha of the
    points u of alpha's face with (A u^{m-1})_alpha = 0 and (A u^{m-1})_c
    >= 0, c the complement.  Each face is subdivided (_subdivide) with the
    rows of A u^{m-1}, alpha's first, and one more row of entries MARGIN -
    q_{j1}, which is MARGIN - q.u on the simplex: the rows of alpha are
    equations and the others slack rows (_signs), every coefficient moved
    against the rule by rho = 2^-30 times the sum of |entries| of its row,
    which bounds its rounding as in _simplex._enclose.  settled: every leaf
    of every face clears, so q.x > MARGIN |x|_1 on S_A.  The candidates are
    the vertices of the open leaves, polished by damped Newton on their
    face's rows of alpha (_polish); the samples, in order, are the unit
    vectors u among them with A u^{m-1} >= -MARGIN and |u.A u^{m-1}| <=
    MARGIN, each more than 1e-6 from those before it.  A tensor past
    _CLEAR_ENTRIES dense entries is not subdivided."""
    n, m = A.dim, A.order
    if n ** m > _CLEAR_ENTRIES:
        return False, [], 0
    D, points, top = A.to_dense(), [], MARGIN - q
    settled = True
    for k in range(1, n + 1):
        faces = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
        H = np.array([np.concatenate([D[np.ix_(list(a) + [j for j in range(n) if j not in a],
                                               *[a] * (m - 1))],
                                      np.broadcast_to(top[a].reshape((1, k) + (1,) * (m - 2)),
                                                      (1,) + (k,) * (m - 1))]) for a in faces])
        with np.errstate(over="ignore", invalid="ignore"):
            rho = 2.0**-30 * np.abs(H).reshape(len(H), n + 1, -1).sum(axis=2)
        owner, W, _ = _subdivide(H, np.eye(k), rho, "m1", _clearing(_signs(k)), _CLEAR_DEPTH,
                                 np.arange(len(H)), np.repeat(np.eye(k)[None], len(H), axis=0))
        settled = settled and not len(owner)
        if not len(owner):
            continue
        face = faces[np.repeat(owner, k)]
        G = np.moveaxis(np.eye(n)[:, face], 0, 1)
        start, L = _polish(_Forms([A]), np.zeros(len(face), dtype=np.intp), G,
                           np.swapaxes(W, 1, 2).reshape(-1, k), face)
        points.extend((G[start] @ L[:, :, None])[:, :, 0])
    samples = []
    if points:
        U = np.array(points)
        with np.errstate(invalid="ignore"):
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            F = apply_m1(A, U)
            near = (F >= -MARGIN).all(axis=1) & (np.abs(np.vecdot(U, F)) <= MARGIN)
        for u in U[near]:
            if all(np.linalg.norm(u - p) > 1e-6 for p in samples):
                samples.append(u)
    return settled, samples, len(points)


def s_cone_samples(A: Tensor, N: int) -> list[np.ndarray]:
    """At most N unit vectors x >= 0 approximately solving the homogeneous
    problem: A x^{m-1} >= -MARGIN componentwise and |A x^m| <= MARGIN; the
    first samples of the subdivision of S_A (_s_cone, with q = 0)."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return _s_cone(A, np.zeros(A.dim))[1][:N]


def q_in_dual_SA(A: Tensor, q) -> Verdict:
    """Is q in the interior of the dual of S_A = SOL(0, A)?  holds when the
    subdivision of S_A's faces settles (_s_cone): q.x > MARGIN |x|_1 on
    S_A.  fails, with witness u, when a sample u of S_A has q.u < -MARGIN,
    the least such q.u the certificate.  unknown otherwise."""
    q = _finite(q, (A.dim,), "q")
    settled, samples, used = _s_cone(A, q)
    if settled:
        return Verdict("q-in-dual-S_A", "holds", None, None, used,
                       note="every leaf of the faces of S_A clears: q.x > margin |x|_1 there")
    vals = [float(q @ u) for u in samples]
    j = int(np.argmin(vals)) if vals else None
    cert = None if j is None else vals[j]
    return _three_valued("q-in-dual-S_A", cert, None if j is None else samples[j], used, False,
                         j is not None and vals[j] < -MARGIN)
