"""Numeric tensor classification: copositivity, regularity, (non)singularity.

Every verdict is three-valued.  "fails" always carries a witness that
violates the defining inequality under a direct re-evaluation; "holds" is a
claim at the search resolution, with an explicit decision margin.  The
search minimizes over the compact basis of the cone given by the convex
hull of its normalized generators (the standard simplex for the orthant),
using a barycentric lattice plus projected-gradient polish.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .cones import PolyhedralCone, orthant
from .tensor import (
    IndexSet,
    Tensor,
    _derivative,
    _rows_m1,
    _stack_m1,
    apply_m1,
    batch_apply_m1,
    jacobian_m1,
    principal_subtensor,
)

__all__ = [
    "Verdict",
    "SearchBudget",
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


@dataclass(frozen=True)
class SearchBudget:
    grid_resolution: int = 0  # 0 = pick by dimension (64 up to n=3, else 16)
    multistarts: int = 16
    polish_iters: int = 200
    margin: float = 1e-6

    def __post_init__(self):
        if self.grid_resolution < 0 or self.multistarts <= 0 or self.polish_iters <= 0:
            raise ValueError("budget fields must be positive")
        if self.margin <= 0:
            raise ValueError("margin must be > 0")

    def resolution_for(self, k: int) -> int:
        if self.grid_resolution:
            return self.grid_resolution
        return 64 if k <= 3 else 16

    def scaled(self, factor: int) -> "SearchBudget":
        return replace(
            self,
            grid_resolution=self.resolution_for(2) * factor if self.grid_resolution else 0,
            multistarts=self.multistarts * factor,
        )


def _compositions(k: int, res: int) -> np.ndarray:
    """Every composition of res into k nonnegative integer parts, as the
    rows of an int array in lexicographic order (from the k-1 cut points of
    res + k - 1 slots, stars and bars)."""
    cuts = list(itertools.combinations(range(res + k - 1), k - 1))
    C = np.array(cuts, dtype=np.intp).reshape(len(cuts), k - 1)
    ends = np.full((len(cuts), 1), -1)
    return np.diff(np.hstack([ends, C, ends + res + k]), axis=1) - 1


def _simplex_lattice(k: int, res: int) -> np.ndarray:
    """All barycentric lattice points (c/res) with c a composition of res
    into k nonnegative parts, in lexicographic order."""
    return _compositions(k, res) / res


def _project_simplex(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row of V onto {x >= 0, sum x = 1}."""
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    cond = U - css / np.arange(1, V.shape[1] + 1) > 0
    last = V.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)  # last index with cond
    theta = css[np.arange(len(V)), last] / (last + 1)
    return np.maximum(V - theta[:, None], 0.0)


class _Objective:
    """Smooth surrogates of the three basis objectives for a stack of tensors
    that share _tails: row r of X is scored with the tensor tensors[own[r]].

    value(X, own) is what the polish minimizes (A x^m, ||A x^{m-1}||^2 or
    (A x^m)^2); from_internal maps it to the contract value (A x^m,
    ||A x^{m-1}|| or |A x^m|).
    """

    def __init__(self, kind: str, tensors):
        if kind not in ("xm", "norm_m1", "abs_xm"):
            raise ValueError(f"unknown objective {kind!r}")
        self.kind = kind
        self.A = tensors[0]
        self.coef = np.stack([A._coef for A in tensors])

    def value(self, X: np.ndarray, own: np.ndarray) -> np.ndarray:
        F = _stack_m1(self.A, X, self.coef, own)
        if self.kind == "norm_m1":
            return np.vecdot(F, F)
        xm = np.vecdot(X, F)
        return xm * xm if self.kind == "abs_xm" else xm

    def grad(self, X: np.ndarray, own: np.ndarray) -> np.ndarray:
        C = self.coef[own]
        F = _rows_m1(self.A, X, C)
        J = _derivative(self.A, X, range(self.A.order - 1), C)
        if self.kind == "norm_m1":
            return 2.0 * (F[:, None, :] @ J)[:, 0]
        dxm = F + (X[:, None, :] @ J)[:, 0]
        if self.kind == "xm":
            return dxm
        return 2.0 * np.vecdot(X, F)[:, None] * dxm

    def from_internal(self, v: np.ndarray) -> np.ndarray:
        if self.kind == "xm":
            return v
        return np.sqrt(np.maximum(v, 0.0))


def _combine(L: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The rows of L @ G.T, as a fixed-order sum over the columns of G: each
    row gets the bits it gets alone, which a matrix product does not promise
    once the stack height changes."""
    return sum(L[:, j, None] * G[:, j] for j in range(G.shape[1]))


_RUNGS = 30  # backtracking steps tried per descent step
_FIRST_RUNGS = 3  # rungs scored for every moving row; the rest only for rows that took none


def descend_on_simplex(f, grad, Lam0: np.ndarray, iters: int):
    """Projected gradient descent of f on the standard simplex, from every
    row of the (S, k) array Lam0 at once.  f(X, rows) maps (R, k) points to
    (R,) values and grad(X, rows) to (R, k) gradients, where rows holds the
    index in Lam0 of the start each point descends from, so one call can
    descend rows of different objectives (the stacked basis minimisation
    scores each row with its own tensor).

    Each row steps on its own: it backtracks from its last accepted step
    length t through the 30 rungs t, t/2, t/4, ... and accepts the first
    strict decrease of f; an accepted step length doubles for the next step
    (capped at 1e6).  A row stops when ||grad|| <= 1e-14 (or is NaN) or no
    rung decreases f.  The first 3 rungs of every moving row, then the
    other 27 of the rows that took none, are scored in one call each; a row
    is charged the evaluations the one-rung-at-a-time rule makes: its
    accepted rung + 1, or 30.  f must give each row the value it gets
    alone.  Returns (rows, their f values, evaluations of f per row).
    """
    lam = np.array(Lam0, dtype=float)
    val = f(lam, np.arange(len(lam)))
    evals = np.ones(len(lam), dtype=int)
    step = np.ones(len(lam))
    active = np.ones(len(lam), dtype=bool)
    for _ in range(iters):
        rows = np.flatnonzero(active)
        if not len(rows):
            break
        g = grad(lam[rows], rows)
        moving = np.sqrt(np.vecdot(g, g)) > 1e-14
        active[rows[~moving]] = False
        rows, g = rows[moving], g[moving]
        if not len(rows):
            break
        R = len(rows)
        T = np.full((R, _RUNGS), 0.5)
        T[:, 0] = step[rows]
        T = np.cumprod(T, axis=1)  # repeated halving: each rung has the one-rung rule's bits
        k = lam.shape[1]
        cand = np.empty((R, _RUNGS, k))
        fc = np.full((R, _RUNGS), np.inf)  # an unscored rung is never accepted
        for lo, hi in ((0, _FIRST_RUNGS), (_FIRST_RUNGS, _RUNGS)):
            r = np.flatnonzero(~np.any(fc < val[rows, None], axis=1))  # no rung taken yet
            if len(r):
                V = lam[rows[r], None] - T[r, lo:hi, None] * g[r, None]
                cand[r, lo:hi] = _project_simplex(V.reshape(-1, k)).reshape(V.shape)
                fc[r, lo:hi] = f(cand[r, lo:hi].reshape(-1, k),
                                 np.repeat(rows[r], hi - lo)).reshape(len(r), -1)
        ok = fc < val[rows, None]
        first = np.argmax(ok, axis=1)  # the first accepted rung, or 0 when there is none
        took = ok[np.arange(R), first]
        evals[rows] += np.where(took, first + 1, _RUNGS)
        pick = (np.arange(R) * _RUNGS + first)[took]
        done = rows[took]
        lam[done], val[done] = cand.reshape(R * _RUNGS, k)[pick], fc.ravel()[pick]
        step[done] = np.minimum(2.0 * T.ravel()[pick], 1e6)
        active[rows[~took]] = False
    return lam, val, evals


def min_over_basis(objective: str, A: Tensor, K: PolyhedralCone, budget: SearchBudget):
    """Minimize one of {A x^m, ||A x^{m-1}||, |A x^m|} over the compact basis
    of K (convex hull of normalized generators).

    Returns (value, argmin, evaluations).  The value is an upper bound on
    the true minimum; ties on the grid break toward the lexicographically
    smallest lattice point.  The best budget.multistarts lattice points are
    polished together; the lowest polished value replaces the lattice
    minimum when it is lower by more than 1e-15.
    """
    return _min_over_stack(objective, [A], K, budget)[0]


_STACK_ROWS = 240  # descent rows (tensors x starts) of one stacked block


def _min_over_stack(objective: str, tensors, K: PolyhedralCone, budget: SearchBudget):
    """[min_over_basis(objective, A, K, budget) for A in tensors], tensors of
    one order and dimension.  Each tensor scores the lattice on its own; the
    tensors that share _tails then polish their starts in one descent per
    block of about _STACK_ROWS rows, each row scored with its own tensor's
    coefficients, so every tensor gets the bits it gets alone."""
    gens = [np.asarray(g, float) / np.linalg.norm(g) for g in K.generators]
    if not gens:
        raise ValueError("cone has no generators")
    G = np.column_stack(gens)
    if K.is_orthant:  # G is the identity; + 0.0 turns -0.0 into +0.0 as _combine does
        to_x = to_lam = lambda L: L + 0.0
    else:
        to_x, to_lam = (lambda L: _combine(L, G)), (lambda X: _combine(X, G.T))

    lattice = _simplex_lattice(len(gens), budget.resolution_for(len(gens)))
    X = to_x(lattice)
    c = min(budget.multistarts, len(X))  # starts per tensor
    groups = {}
    for i, A in enumerate(tensors):
        groups.setdefault(A._tails.tobytes(), []).append(i)
    size = max(1, _STACK_ROWS // c)  # tensors per block
    out = [None] * len(tensors)
    for block in (m[b:b + size] for m in groups.values() for b in range(0, len(m), size)):
        obj = _Objective(objective, [tensors[i] for i in block])
        best, starts = [], []
        for s in range(len(block)):
            vals = obj.from_internal(obj.value(X, np.full(len(X), s)))
            order = np.argsort(vals, kind="stable")
            best.append((float(vals[order[0]]), X[order[0]]))
            starts.append(lattice[order[:c]])
        owner = np.repeat(np.arange(len(block)), c)
        lam, f, used = descend_on_simplex(lambda L, rows: obj.value(to_x(L), owner[rows]),
                                          lambda L, rows: to_lam(obj.grad(to_x(L), owner[rows])),
                                          np.concatenate(starts), budget.polish_iters)
        v = obj.from_internal(f).reshape(len(block), c)
        for s, i in enumerate(block):
            j = int(np.argmin(v[s]))
            if v[s, j] < best[s][0] - 1e-15:
                best[s] = float(v[s, j]), to_x(lam[s * c + j:s * c + j + 1])[0]
            out[i] = (*best[s], len(X) + int(used[s * c:(s + 1) * c].sum()))
    return out


def _unit(x: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(x)
    return x if nrm <= 1e-15 else x / nrm


def is_K_psd(A: Tensor, K: PolyhedralCone, budget: SearchBudget | None = None,
             property_name: str = "K-positive-semidefinite") -> Verdict:
    budget = budget or SearchBudget()
    return _psd_verdict(property_name, budget, *min_over_basis("xm", A, K, budget))


def _psd_verdict(name: str, budget: SearchBudget, v: float, x: np.ndarray, used: int) -> Verdict:
    """holds unless the basis minimum v of A x^m is below -margin, which
    fails with witness x."""
    if v < -budget.margin:
        return Verdict(name, "fails", v, _unit(x), used)
    return Verdict(name, "holds", v, None, used, note="holds at sampling resolution")


def is_copositive(A: Tensor, budget: SearchBudget | None = None) -> Verdict:
    return is_K_psd(A, orthant(A.dim), budget, property_name="copositive")


def _three_valued(name: str, v: float, x: np.ndarray, used: int,
                  holds_above: float, fails_at_most: float) -> Verdict:
    """holds when the basis minimum v > holds_above, fails (witness x) when
    v <= fails_at_most, unknown in between."""
    if v > holds_above:
        return Verdict(name, "holds", v, None, used, note="holds at sampling resolution")
    if v <= fails_at_most:
        return Verdict(name, "fails", v, _unit(x), used)
    return Verdict(name, "unknown", v, None, used)


def is_K_pd(A: Tensor, K: PolyhedralCone, budget: SearchBudget | None = None,
            property_name: str = "K-positive-definite") -> Verdict:
    budget = budget or SearchBudget()
    v, x, used = min_over_basis("xm", A, K, budget)
    return _three_valued(property_name, v, x, used, budget.margin, 0.0)


def is_strictly_copositive(A: Tensor, budget: SearchBudget | None = None) -> Verdict:
    return is_K_pd(A, orthant(A.dim), budget, property_name="strictly-copositive")


def is_K_regular(A: Tensor, K: PolyhedralCone, budget: SearchBudget | None = None) -> Verdict:
    budget = budget or SearchBudget()
    v, x, used = min_over_basis("abs_xm", A, K, budget)
    return _three_valued("K-regular", v, x, used, budget.margin, budget.margin * 1e-3)


def is_K_nonsingular(A: Tensor, K: PolyhedralCone, budget: SearchBudget | None = None) -> Verdict:
    """'holds' means K-nonsingular; 'fails' means K-singular with a witness
    x on which ||A x^{m-1}|| vanishes to a thousandth of the margin."""
    budget = budget or SearchBudget()
    return _nonsingular_verdict(budget, *min_over_basis("norm_m1", A, K, budget))


def _nonsingular_verdict(budget: SearchBudget, v: float, x: np.ndarray, used: int) -> Verdict:
    return _three_valued("K-nonsingular", v, x, used, budget.margin, budget.margin * 1e-3)


def all_principal_nonsingular(A: Tensor, budget: SearchBudget | None = None) -> Verdict:
    """Orthant-nonsingularity of every principal sub-tensor (2^n - 1 subsets)."""
    if A.dim > 12:
        raise ValueError("principal sweep limited to dim <= 12")
    budget = budget or SearchBudget()
    table: dict[str, str] = {}
    worst: Verdict | None = None
    used = 0
    status = "holds"
    witness = None
    for r in range(1, A.dim + 1):
        for alpha in itertools.combinations(range(1, A.dim + 1), r):
            iset = IndexSet(alpha, A.dim)
            sub = principal_subtensor(A, iset)
            vd = is_K_nonsingular(sub, orthant(r), budget)
            used += vd.budget_used
            table[",".join(map(str, alpha))] = vd.status
            if vd.status == "fails" and status != "fails":
                status = "fails"
                worst = vd
                w = np.zeros(A.dim)
                for k, i in enumerate(alpha):
                    w[i - 1] = vd.witness[k]
                witness = w
            elif vd.status == "unknown" and status == "holds":
                status = "unknown"
                worst = vd
    cert = worst.certificate if worst is not None else None
    return Verdict("all-principal-nonsingular", status, cert, witness, used,
                   per_alpha=table)


def s_cone_samples(A: Tensor, N: int,
                   budget: SearchBudget | None = None) -> list[np.ndarray]:
    """Unit vectors x >= 0 approximately solving the homogeneous problem:
    A x^{m-1} >= -margin componentwise and |A x^m| <= margin."""
    budget = budget or SearchBudget()
    n = A.dim
    res = budget.resolution_for(n)
    lattice = _simplex_lattice(n, res)
    F = batch_apply_m1(A, lattice)
    xm = np.einsum("pi,pi->p", lattice, F)
    loose = 1e-2
    mask = (F.min(axis=1) >= -loose) & (np.abs(xm) <= loose)

    def merit(X, _rows):
        F = apply_m1(A, X)
        return np.sum(np.minimum(F, 0.0) ** 2, axis=1) + np.vecdot(X, F) ** 2

    def merit_grad(X, _rows):
        F = apply_m1(A, X)
        J = jacobian_m1(A, X)
        g = 2.0 * (np.minimum(F, 0.0)[:, None, :] @ J)[:, 0]
        g += 2.0 * np.vecdot(X, F)[:, None] * (F + (X[:, None, :] @ J)[:, 0])
        return g

    X, _, _ = descend_on_simplex(merit, merit_grad, lattice[mask], budget.polish_iters)
    out: list[np.ndarray] = []
    for x in X:
        u = _unit(x)
        Fu = apply_m1(A, u)
        if np.all(Fu >= -budget.margin) and abs(float(np.dot(u, Fu))) <= budget.margin:
            if all(np.linalg.norm(u - p) > 1e-6 for p in out):
                out.append(u)
        if len(out) >= N:
            break
    return out


def q_in_dual_SA(A: Tensor, q, budget: SearchBudget | None = None) -> Verdict:
    """Necessary-condition check for q in the dual of the homogeneous
    solution cone: q must make a nonnegative product with every sampled
    element.  'holds' is a claim at sampling resolution only."""
    budget = budget or SearchBudget()
    q = np.asarray(q, dtype=float)
    samples = s_cone_samples(A, max(budget.multistarts, 8), budget)
    used = len(samples)
    worst = None
    worst_val = math.inf
    for x in samples:
        v = float(np.dot(q, x))
        if v < worst_val:
            worst_val, worst = v, x
    if worst is not None and worst_val < -budget.margin:
        return Verdict("q-in-dual-S_A", "fails", worst_val, worst, used)
    cert = None if worst is None else worst_val
    return Verdict("q-in-dual-S_A", "holds", cert, None, used,
                   note="holds at sampling resolution")
