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
    apply_m,
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


def _simplex_lattice(k: int, res: int) -> np.ndarray:
    """All barycentric lattice points (c/res) with c a composition of res
    into k nonnegative parts, in lexicographic order."""
    combos = itertools.combinations(range(res + k - 1), k - 1)
    pts = []
    for cut in combos:
        prev = -1
        comp = []
        for c in cut:
            comp.append(c - prev - 1)
            prev = c
        comp.append(res + k - 2 - prev)
        pts.append(comp)
    return np.asarray(pts, dtype=float) / res


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, len(v) + 1)
    cond = u - css / ind > 0
    rho = ind[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(v - theta, 0.0)


class _Objective:
    """Smooth surrogate for the three basis objectives.

    internal(x) is what the polish minimizes; report(x) is the contract
    value (A x^m, ||A x^{m-1}|| or |A x^m|).
    """

    def __init__(self, kind: str, A: Tensor):
        if kind not in ("xm", "norm_m1", "abs_xm"):
            raise ValueError(f"unknown objective {kind!r}")
        self.kind = kind
        self.A = A

    def batch_report(self, X: np.ndarray) -> np.ndarray:
        F = batch_apply_m1(self.A, X)
        if self.kind == "norm_m1":
            return np.linalg.norm(F, axis=1)
        xm = np.einsum("pi,pi->p", X, F)
        return np.abs(xm) if self.kind == "abs_xm" else xm

    def report(self, x: np.ndarray) -> float:
        if self.kind == "norm_m1":
            return float(np.linalg.norm(apply_m1(self.A, x)))
        v = apply_m(self.A, x)
        return abs(v) if self.kind == "abs_xm" else v

    def internal(self, x: np.ndarray) -> float:
        if self.kind == "xm":
            return apply_m(self.A, x)
        if self.kind == "norm_m1":
            return float(np.dot(apply_m1(self.A, x), apply_m1(self.A, x)))
        return apply_m(self.A, x) ** 2

    def grad(self, x: np.ndarray) -> np.ndarray:
        F = apply_m1(self.A, x)
        J = jacobian_m1(self.A, x)
        if self.kind == "xm":
            return F + J.T @ x
        if self.kind == "norm_m1":
            return 2.0 * (J.T @ F)
        v = float(np.dot(x, F))
        return 2.0 * v * (F + J.T @ x)

    def from_internal(self, v: float) -> float:
        if self.kind == "xm":
            return v
        return math.sqrt(max(v, 0.0))


def descend_on_simplex(f, grad, lam0: np.ndarray, iters: int):
    """Projected gradient descent of f on the standard simplex.

    Each step backtracks from the last accepted step length, halving at
    most 30 times, and accepts the first strict decrease of f; an accepted
    step length doubles for the next step (capped at 1e6).  Stops when
    ||grad|| <= 1e-14 or no halving decreases f.  Returns
    (lam, f(lam), evaluations of f).
    """
    lam = np.asarray(lam0, dtype=float).copy()
    val = f(lam)
    evals = 1
    step = 1.0
    for _ in range(iters):
        g = grad(lam)
        if float(np.linalg.norm(g)) <= 1e-14:
            break
        t = step
        for _ in range(30):
            cand = _project_simplex(lam - t * g)
            fc = f(cand)
            evals += 1
            if fc < val:
                lam, val = cand, fc
                step = min(2.0 * t, 1e6)
                break
            t *= 0.5
        else:
            break
    return lam, val, evals


def min_over_basis(objective: str, A: Tensor, K: PolyhedralCone, budget: SearchBudget):
    """Minimize one of {A x^m, ||A x^{m-1}||, |A x^m|} over the compact basis
    of K (convex hull of normalized generators).

    Returns (value, argmin, evaluations).  The value is an upper bound on
    the true minimum; ties on the grid break toward the lexicographically
    smallest lattice point.
    """
    gens = [np.asarray(g, float) / np.linalg.norm(g) for g in K.generators]
    if not gens:
        raise ValueError("cone has no generators")
    G = np.column_stack(gens)
    k = len(gens)
    obj = _Objective(objective, A)

    res = budget.resolution_for(k)
    lattice = _simplex_lattice(k, res)
    X = lattice @ G.T
    vals = obj.batch_report(X)
    evals = len(vals)
    order = np.argsort(vals, kind="stable")
    best_i = int(order[0])
    best_val = float(vals[best_i])
    best_x = X[best_i]

    starts = [lattice[int(i)] for i in order[: budget.multistarts]]
    for lam0 in starts:
        lam, f, used = descend_on_simplex(lambda lam: obj.internal(G @ lam),
                                          lambda lam: G.T @ obj.grad(G @ lam),
                                          lam0, budget.polish_iters)
        evals += used
        v = obj.from_internal(f)
        if v < best_val - 1e-15:
            best_val, best_x = v, G @ lam
    return best_val, best_x, evals


def _unit(x: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(x)
    return x if nrm <= 1e-15 else x / nrm


def is_K_psd(A: Tensor, K: PolyhedralCone, budget: SearchBudget | None = None,
             property_name: str = "K-positive-semidefinite") -> Verdict:
    budget = budget or SearchBudget()
    v, x, used = min_over_basis("xm", A, K, budget)
    if v < -budget.margin:
        return Verdict(property_name, "fails", v, _unit(x), used)
    return Verdict(property_name, "holds", v, None, used,
                   note="holds at sampling resolution")


def is_copositive(A: Tensor, budget: SearchBudget | None = None) -> Verdict:
    return is_K_psd(A, orthant(A.dim), budget, property_name="copositive")


def is_K_pd(A: Tensor, K: PolyhedralCone, budget: SearchBudget | None = None,
            property_name: str = "K-positive-definite") -> Verdict:
    budget = budget or SearchBudget()
    v, x, used = min_over_basis("xm", A, K, budget)
    if v > budget.margin:
        return Verdict(property_name, "holds", v, None, used,
                       note="holds at sampling resolution")
    if v <= 0.0:
        return Verdict(property_name, "fails", v, _unit(x), used)
    return Verdict(property_name, "unknown", v, None, used)


def is_strictly_copositive(A: Tensor, budget: SearchBudget | None = None) -> Verdict:
    return is_K_pd(A, orthant(A.dim), budget, property_name="strictly-copositive")


def is_K_regular(A: Tensor, K: PolyhedralCone, budget: SearchBudget | None = None) -> Verdict:
    budget = budget or SearchBudget()
    v, x, used = min_over_basis("abs_xm", A, K, budget)
    if v > budget.margin:
        return Verdict("K-regular", "holds", v, None, used,
                       note="holds at sampling resolution")
    if v <= budget.margin * 1e-3:
        return Verdict("K-regular", "fails", v, _unit(x), used)
    return Verdict("K-regular", "unknown", v, None, used)


def is_K_nonsingular(A: Tensor, K: PolyhedralCone, budget: SearchBudget | None = None) -> Verdict:
    """'holds' means K-nonsingular; 'fails' means K-singular with a witness
    x on which ||A x^{m-1}|| vanishes to a thousandth of the margin."""
    budget = budget or SearchBudget()
    v, x, used = min_over_basis("norm_m1", A, K, budget)
    if v > budget.margin:
        return Verdict("K-nonsingular", "holds", v, None, used,
                       note="holds at sampling resolution")
    if v <= budget.margin * 1e-3:
        return Verdict("K-nonsingular", "fails", v, _unit(x), used)
    return Verdict("K-nonsingular", "unknown", v, None, used)


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
    candidates = [lattice[i] for i in np.flatnonzero(mask)]

    def merit(x):
        Fx = apply_m1(A, x)
        return float(np.sum(np.minimum(Fx, 0.0) ** 2) + np.dot(x, Fx) ** 2)

    def merit_grad(x):
        Fx = apply_m1(A, x)
        J = jacobian_m1(A, x)
        g = 2.0 * (J.T @ np.minimum(Fx, 0.0))
        g += 2.0 * float(np.dot(x, Fx)) * (Fx + J.T @ x)
        return g

    out: list[np.ndarray] = []
    for lam in candidates:
        x, _, _ = descend_on_simplex(merit, merit_grad, lam, budget.polish_iters)
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
