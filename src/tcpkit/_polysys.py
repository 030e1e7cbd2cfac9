"""Root search for the per-support systems A u^{m-1} + q = 0, u >= 0.

This is the workhorse behind complementary-cone membership and the
enumeration solver.  It combines

  * componentwise sign analysis (exact infeasibility certificates when all
    coefficients of a component share a sign),
  * a norm lower bound on the unit sphere that confines roots to a box,
  * a vectorized residual grid over that box, and
  * damped projected Newton refinement from the best grid cells.

Infeasibility is only certified when the box bound is valid and the grid
minimum clears a Lipschitz slack; otherwise the scan is inconclusive.

``walk_supports`` runs these scans over the complementary supports and
applies the slack test; membership and the enumeration solver both read it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    IndexSet,
    Tensor,
    apply_m1,
    apply_off,
    batch_apply_m1,
    jacobian_m1,
    principal_subtensor,
)

SYS_TOL = 1e-9  # residual at which a refined point counts as a root
SLACK_TOL = 1e-8  # a support root counts when its slack is >= -SLACK_TOL

_C_MIN = 0.05  # sphere-norm level below which no box bound is claimed


@dataclass
class SystemScan:
    roots: list = field(default_factory=list)
    certified_infeasible: bool = False
    inconclusive: bool = False
    grid_min_residual: float = math.inf
    box_radius: float | None = None
    reason: str = ""
    roots_complete: bool = False  # the root list is provably exhaustive


def _sign_infeasible(dense: np.ndarray, q: np.ndarray) -> bool:
    """True when some component cannot vanish for any u >= 0."""
    flat = dense.reshape(dense.shape[0], -1)
    return bool(np.any((np.all(flat >= 0, axis=1) & (q > 1e-12))
                       | (np.all(flat <= 0, axis=1) & (q < -1e-12))))


def _sphere_grid(k: int, res: int) -> np.ndarray:
    """Unit-norm nonnegative directions from a barycentric lattice."""
    if k == 1:
        return np.array([[1.0]])
    if k == 2:
        t = np.linspace(0.0, math.pi / 2, res)
        return np.column_stack([np.cos(t), np.sin(t)])
    pts = []
    for comp in itertools.product(range(res + 1), repeat=k):
        if sum(comp) == res:
            pts.append(comp)
    X = np.asarray(pts, dtype=float)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X


def _row_abs_sum(dense: np.ndarray) -> float:
    k = dense.shape[0]
    return float(np.max(np.abs(dense.reshape(k, -1)).sum(axis=1)))


def min_sphere_norm(A: Tensor) -> float:
    """Grid estimate of min ||A v^{m-1}|| over unit v >= 0, with a Lipschitz
    correction subtracted so the result lower-bounds the true minimum
    (clipped at 0)."""
    k = A.dim
    res = 4096 if k <= 2 else (48 if k == 3 else 12)
    V = _sphere_grid(k, res)
    norms = np.linalg.norm(batch_apply_m1(A, V), axis=1)
    est = float(norms.min())
    if k == 1:
        return est
    lip = (A.order - 1) * _row_abs_sum(A.to_dense())
    h = (math.pi / 2) / (res - 1) if k == 2 else 2.0 / res
    return max(est - lip * h, 0.0)


def _box_grid(k: int, R: float, budget_cells: int = 300_000) -> np.ndarray:
    if k == 1:
        g = min(4096, budget_cells)
        return np.linspace(0.0, R, g).reshape(-1, 1)
    g = int(budget_cells ** (1.0 / k))
    g = max(min(g, 512), 8)
    axes = [np.linspace(0.0, R, g)] * k
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def damped_newton(F, J, x, iters: int, tol: float, project=lambda v: v):
    """Newton on F(x) = 0 with backtracking on ||F||.

    Each step solves J(x) d = -F(x) (least squares when J is singular) and
    halves t until ||F(project(x + t d))|| < (1 - 1e-4 t) ||F(x)|| or drops
    to tol; the loop stops at tol, after iters steps, or when no halving
    down to t = 1e-14 helps.  Returns (x, ||F(x)||).
    """
    Fx = F(x)
    r = float(np.linalg.norm(Fx))
    for _ in range(iters):
        if r <= tol:
            break
        Jx = J(x)
        try:
            d = np.linalg.solve(Jx, -Fx)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(Jx, -Fx, rcond=None)[0]
        if not np.all(np.isfinite(d)):
            break
        t = 1.0
        while t > 1e-14:
            xn = project(x + t * d)
            Fn = F(xn)
            rn = float(np.linalg.norm(Fn))
            if rn < r * (1.0 - 1e-4 * t) or rn <= tol:
                x, Fx, r = xn, Fn, rn
                break
            t *= 0.5
        else:
            break
    return x, r


def newton_refine(A: Tensor, q: np.ndarray, u0: np.ndarray,
                  iters: int = 60) -> tuple[np.ndarray, float]:
    """Damped Newton with nonnegativity clamping on F(u) = A u^{m-1} + q."""
    return damped_newton(lambda u: apply_m1(A, u) + q,
                         lambda u: jacobian_m1(A, u),
                         np.maximum(np.asarray(u0, dtype=float), 0.0),
                         iters, SYS_TOL * 1e-2,
                         project=lambda v: np.maximum(v, 0.0))


def _dedup(roots: list[np.ndarray], tol: float = 1e-6) -> list[np.ndarray]:
    kept: list[np.ndarray] = []
    for u in sorted(roots, key=lambda v: tuple(v)):
        if all(np.linalg.norm(u - w) > tol for w in kept):
            kept.append(u)
    return kept


def scan_system(A: Tensor, q, multistarts: int = 24,
                want_all: bool = False) -> SystemScan:
    """Search for nonnegative roots of A u^{m-1} + q = 0."""
    q = np.asarray(q, dtype=float)
    k = A.dim
    m = A.order
    dense = A.to_dense()
    scan = SystemScan()

    if _sign_infeasible(dense, q):
        scan.certified_infeasible = True
        scan.reason = "sign analysis"
        return scan

    if k == 1:
        # scalar a u^{m-1} = -q solves in closed form; root list is complete
        a = float(dense.reshape(-1)[0])
        q0 = float(q[0])
        if abs(a) > 1e-12:
            t = -q0 / a
            if t >= 0.0:
                scan.roots = [np.array([t ** (1.0 / (m - 1))])]
                scan.roots_complete = True
            else:
                scan.certified_infeasible = True
            scan.reason = "scalar closed form"
            return scan
        if abs(q0) <= SYS_TOL:
            scan.roots = [np.zeros(1)]  # every u solves; not exhaustive
            scan.reason = "scalar degenerate"
            return scan
        scan.certified_infeasible = True
        scan.reason = "scalar zero coefficient"
        return scan

    qn = float(np.linalg.norm(q))
    if qn <= SYS_TOL:
        scan.roots = [np.zeros(k)]
        scan.grid_min_residual = qn
        return scan

    c = min_sphere_norm(A)
    bounded = c > _C_MIN
    if bounded:
        R = (qn / (0.5 * c)) ** (1.0 / (m - 1))
        scan.box_radius = R
    else:
        R = (1.0 + qn) ** (1.0 / (m - 1)) * 10.0

    if k <= 3:
        U = _box_grid(k, R)
        resid = np.abs(batch_apply_m1(A, U) + q).max(axis=1)
        scan.grid_min_residual = float(resid.min())
        n_starts = multistarts * (4 if want_all else 1)
        order = np.argsort(resid, kind="stable")[: max(n_starts, 8)]
        starts = [U[int(i)] for i in order]
        step = R / (len(U) ** (1.0 / k) - 1) if len(U) > 1 else R
    else:
        # dimension too high for a dense grid: multistart only, never certify
        rng = np.random.default_rng(0)
        starts = [np.zeros(k)] + [R * rng.random(k) for _ in range(4 * multistarts)]
        scan.grid_min_residual = math.inf
        step = None

    roots = []
    for u0 in starts:
        u, r = newton_refine(A, q, u0)
        if r <= SYS_TOL:
            roots.append(u)
            if not want_all:
                break
    scan.roots = _dedup(roots)

    if not scan.roots:
        if bounded and step is not None:
            lip = (m - 1) * _row_abs_sum(dense) * max(R, 1.0) ** (m - 2)
            slack = lip * step * math.sqrt(k) / 2.0
            if scan.grid_min_residual > slack + 1e-9:
                scan.certified_infeasible = True
                scan.reason = "bounded box grid"
            else:
                scan.inconclusive = True
                scan.reason = "grid minimum within Lipschitz slack"
        else:
            scan.inconclusive = True
            scan.reason = "no box bound (near-singular on the orthant)"
    return scan


def walk_supports(A: Tensor, q: np.ndarray, multistarts: int):
    """Scan every complementary support alpha of {1..n}, by increasing size
    and lexicographically within a size, yielding (alpha, feasible, settled).

    feasible lists the (u_alpha, slack) pairs with u_alpha >= 0 a root of
    A_aa u^{m-1} + q_a = 0 whose slack A_{comp,a} u^{m-1} + q_comp is
    >= -SLACK_TOL; each one gives a solution (u_alpha, 0) of TCP(q, A).
    settled is True when the scan proves no other feasible root exists:
    the system is certified infeasible, or its root list is complete.
    The generator is lazy, so a caller may stop at the first feasible root.
    """
    n = A.dim
    for r in range(n + 1):
        for members in itertools.combinations(range(1, n + 1), r):
            alpha = IndexSet(members, n)
            if r == 0:
                yield alpha, ([(np.zeros(0), q)] if np.all(q >= -SLACK_TOL) else []), True
                continue
            scan = scan_system(principal_subtensor(A, alpha), q[[i - 1 for i in members]],
                               multistarts=multistarts, want_all=True)
            comp = [i - 1 for i in alpha.complement]
            feasible = []
            for u_a in scan.roots:
                slack = apply_off(A, alpha, u_a) + q[comp] if comp else np.zeros(0)
                if np.all(slack >= -SLACK_TOL):
                    feasible.append((u_a, slack))
            yield alpha, feasible, (scan.certified_infeasible
                                    or (scan.roots_complete and not scan.inconclusive))
