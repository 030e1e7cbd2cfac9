"""Numeric tensor classification: copositivity, regularity, (non)singularity.

Every verdict is three-valued.  "fails" always carries a witness that
violates the defining inequality under a direct re-evaluation; "holds" is a
claim at the search resolution, with an explicit decision margin.  The
search minimizes over the compact basis of the cone given by the convex
hull of its normalized generators (the standard simplex for the orthant),
using a barycentric lattice plus projected-gradient polish (``_simplex``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._simplex import _bernstein_clears, _min_over_stack, _simplex_lattice, descend_on_simplex
from .cones import PolyhedralCone, orthant
from .tensor import IndexSet, Tensor, apply_m1, batch_apply_m1, jacobian_m1, principal_subtensor

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
    """The basis search's lattice resolution, starts and descent steps, and
    the verdicts' margin.  multistarts is the number of lattice points the
    basis search polishes (and the samples s_cone_samples keeps); the
    support scan takes its starts from its enclosure and reads no budget."""

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
    v <= fails_at_most and x is not 0, unknown otherwise."""
    if v > holds_above:
        return Verdict(name, "holds", v, None, used, note="holds at sampling resolution")
    if v <= fails_at_most and np.any(x):
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


def _holds(objective: str, tensors, K: PolyhedralCone, budget: SearchBudget) -> list[bool]:
    """Whether min_over_basis(objective, A, K, budget), read by its verdict
    rule (_psd_verdict for xm; for abs_xm and norm_m1 the rule of
    is_K_regular and is_K_nonsingular), holds, for every A in tensors (of
    one order and dimension).  The tensors a Bernstein enclosure clears
    (_bernstein_clears) hold with no descent; the rest are minimised in one
    stack (_min_over_stack) and read by the rule."""
    out = _bernstein_clears(objective, tensors, K, budget.margin).tolist()
    rest = [t for t, cleared in enumerate(out) if not cleared]
    if rest:
        for t, r in zip(rest, _min_over_stack(objective, [tensors[t] for t in rest], K, budget)):
            vd = _psd_verdict("", budget, *r) if objective == "xm" else _nonsingular_verdict(budget, *r)
            out[t] = vd.status == "holds"
    return out


def all_principal_nonsingular(A: Tensor, budget: SearchBudget | None = None) -> Verdict:
    """Orthant-nonsingularity of every principal sub-tensor (2^n - 1 subsets).

    The sub-tensors of each size are checked in one stacked minimisation,
    with the verdicts of one is_K_nonsingular call per sub-tensor."""
    if A.dim > 12:
        raise ValueError("principal sweep limited to dim <= 12")
    budget = budget or SearchBudget()
    table: dict[str, str] = {}
    worst: Verdict | None = None
    used = 0
    status = "holds"
    witness = None
    for r in range(1, A.dim + 1):
        alphas = list(itertools.combinations(range(1, A.dim + 1), r))
        subs = [principal_subtensor(A, IndexSet(alpha, A.dim)) for alpha in alphas]
        for alpha, res in zip(alphas, _min_over_stack("norm_m1", subs, orthant(r), budget)):
            vd = _nonsingular_verdict(budget, *res)
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
