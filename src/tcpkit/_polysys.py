"""Root search for the per-support systems A u^{m-1} + q = 0, u >= 0.

This is the workhorse behind complementary-cone membership and the
enumeration solver.  It combines

  * componentwise sign analysis (exact infeasibility certificates when all
    coefficients of a component share a sign),
  * a norm lower bound on the unit sphere that confines roots to a box,
  * a residual grid over that box, scored in the power basis from its one
    axis, only in the blocks of the grid that can hold one of the best
    points: a monotone enclosure of each component over each block bounds
    the residual there, and
  * one row-batched damped projected Newton refinement from the best grid
    points, the same points a full scoring of the grid would pick.

Every test reads the tensor's frozen form; none calls ``to_dense``.
Infeasibility is only certified when the box bound is valid and the grid
minimum clears a Lipschitz slack; otherwise the scan is inconclusive.
``damped_newton`` also serves ``compcones.tpos_contains``, whose Jacobian
in generator coordinates need not be square.

``walk_supports`` runs these scans over the complementary supports and
applies the slack test; membership and the enumeration solver both read it.
It walks a stack of instances at once: each runs its sign test and start
phase alone, then one Newton run refines the starts of all of them, every
row with its own instance's coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._forms import _Forms
from ._simplex import _compositions
from .tensor import (
    IndexSet,
    Tensor,
    _power_coefficients,
    apply_off,
    batch_apply_m1,
    principal_subtensor,
)

SYS_TOL = 1e-9  # residual at which a refined point counts as a root
SLACK_TOL = 1e-8  # a support root counts when its slack is >= -SLACK_TOL

_C_MIN = 0.05  # sphere-norm level below which no box bound is claimed
_GRID_CELLS = 300_000  # points of the residual grid over the root box


@dataclass
class SystemScan:
    roots: list = field(default_factory=list)
    certified_infeasible: bool = False
    grid_min_residual: float = math.inf
    reason: str = ""
    roots_complete: bool = False  # the root list is provably exhaustive


def _sign_infeasible(A: Tensor, q: np.ndarray) -> bool:
    """True when some component cannot vanish for any u >= 0: the stored
    coefficients of a component (its unstored ones are zero) share a sign
    that q's does not cancel."""
    return bool(np.any((np.all(A._coef >= 0, axis=0) & (q > 1e-12))
                       | (np.all(A._coef <= 0, axis=0) & (q < -1e-12))))


@functools.cache  # one grid per (k, res); min_sphere_norm asks for one res per k
def _sphere_grid(k: int, res: int) -> np.ndarray:
    """Unit-norm nonnegative directions from a barycentric lattice, read-only."""
    if k == 2:
        t = np.linspace(0.0, math.pi / 2, res)
        X = np.column_stack([np.cos(t), np.sin(t)])
    else:
        X = _compositions(k, res).astype(float)
        X /= np.linalg.norm(X, axis=1, keepdims=True)
    X.setflags(write=False)
    return X


def _row_abs_sum(A: Tensor) -> float:
    """max_i sum |a_{i, ...}|, summed over each component's k^{m-1} entries
    in index order, its unstored zeros included: numpy's pairwise sum then
    has the bits of the dense row sum, which it loses on sparse rows once
    the zeros are dropped."""
    k = A.dim
    rows = np.zeros((k, k ** (A.order - 1)))
    rows[:, np.ravel_multi_index(tuple(A._tails.T), (k,) * (A.order - 1))] = np.abs(A._coef.T)
    return float(np.max(rows.sum(axis=1)))


def min_sphere_norm(A: Tensor) -> float:
    """Grid estimate of min ||A v^{m-1}|| over unit v >= 0, with a Lipschitz
    correction subtracted so the result lower-bounds the true minimum
    (clipped at 0)."""
    k = A.dim
    res = 4096 if k <= 2 else (48 if k == 3 else 12)
    V = _sphere_grid(k, res)
    norms = np.linalg.norm(batch_apply_m1(A, V), axis=1)
    est = float(norms.min())
    lip = (A.order - 1) * _row_abs_sum(A)
    h = (math.pi / 2) / (res - 1) if k == 2 else 2.0 / res
    return max(est - lip * h, 0.0)


def _contract(C: np.ndarray, P: list) -> np.ndarray:
    """sum_e C[:, e] prod_d P[d][:, :, e_d] at every point of S boxes at once.

    C holds power-basis coefficients component first, shape (n,) + (m,) * k,
    and P[d], of shape (S, b, m), the powers 0..m-1 of box s's points on axis
    d; the result has shape (n, S) + (b,) * k.  Each axis is contracted by
    elementwise products summed over its exponent in order, so a point gets
    the same bits in every box that holds it (a matrix product would not)."""
    k, m = len(P), C.shape[1]
    T = C[:, None]
    for d in reversed(range(k)):  # T is (n, S, e_0..e_d, a_{d+1}..a_{k-1})
        S, b, _ = P[d].shape
        Pd = np.moveaxis(P[d], 2, 0).reshape((m, 1, S) + (1,) * d + (b,) + (1,) * (k - 1 - d))
        at = (slice(None),) * (2 + d)
        F = T[at + (slice(0, 1),)] * Pd[0]
        for e in range(1, m):
            F += T[at + (slice(e, e + 1),)] * Pd[e]
        T = F
    return T


def _block_bounds(C: np.ndarray, q: np.ndarray, P: np.ndarray):
    """Lower and upper bounds on the residual max_i |(A u^{m-1} + q)_i| over
    each block of a grid, as two arrays of shape (nb,) * k: P (nb, b, m) holds
    the powers of the points of the nb blocks of its axis, sorted, and C the
    power-basis coefficients component first.

    On u >= 0 every monomial is monotone, so over a block [l, h]^k component
    i lies in [C+_i(l) + C-_i(h) + q_i, C+_i(h) + C-_i(l) + q_i], C+ and C-
    being the sign parts of C; both ends are widened by 1e-12 (|C_i|(h) +
    |q_i|), far above the rounding error of either bound or of a point
    value from _contract.  An overflow gives NaN or infinite bounds."""
    k = C.ndim - 1
    qk = q.reshape((k,) + (1,) * k)
    signed = np.concatenate([np.maximum(C, 0.0), np.minimum(C, 0.0)])
    at_l = _contract(signed, [P[None, :, 0]] * k)[:, 0]
    at_h = _contract(signed, [P[None, :, -1]] * k)[:, 0]
    err = 1e-12 * (at_h[:k] - at_h[k:] + np.abs(qk))
    lo = at_l[:k] + at_h[k:] + qk - err
    hi = at_h[:k] + at_l[k:] + qk + err
    return np.maximum(np.maximum(lo, -hi), 0.0).max(axis=0), np.maximum(-lo, hi).max(axis=0)


def _grid_starts(A: Tensor, q: np.ndarray, axis: np.ndarray, N: int):
    """The raveled indices in the grid axis^k of its N points of least
    residual, ties by index, and the least residual: exactly
    np.argsort(r, kind="stable")[:N] and r.min() of the residuals r that
    _contract gives on the full axis.

    The axis is cut into blocks, and only the points of the blocks that can
    hold one of the N are scored: with tau the least upper bound at which
    the blocks at or below it hold N points, a block whose lower bound
    exceeds tau holds only points past the N-th.  A NaN bound keeps its
    block, so after an overflow every block is scored."""
    k, g = A.dim, len(axis)
    C = np.moveaxis(_power_coefficients(A), -1, 0)
    b = math.isqrt(g // 2)  # 32 blocks per axis at g = 512, 14 at g = 66
    nb = -(-g // b)
    pos = np.arange(nb * b).reshape(nb, b)  # the last block is padded with the last point
    P = axis[np.minimum(pos, g - 1)][..., None] ** np.arange(C.shape[1])
    low, up = _block_bounds(C, q, P)

    up = up.ravel()
    counts = math.prod(np.ix_(*[np.minimum(b, g - b * np.arange(nb))] * k)).ravel()
    order = np.argsort(up)  # NaN last
    reach = np.cumsum(counts[order]) >= N
    tau = up[order[np.argmax(reach)]] if reach[-1] else np.inf
    J = np.argwhere(~(low > tau))

    r = _contract(C, [P[J[:, d]] for d in range(k)])
    r += q.reshape((k, 1) + (1,) * k)
    r = np.abs(r, out=r).max(axis=0)
    flat, valid = 0, True
    for d in range(k):
        c = pos[J[:, d]].reshape((-1,) + (1,) * d + (b,) + (1,) * (k - 1 - d))
        flat, valid = flat * g + c, valid & (c < g)
    flat, r = np.broadcast_to(flat, r.shape)[valid], r[valid]
    return flat[np.lexsort((flat, r))[:N]], float(r.min())


def _solve_rows(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve J[s] d[s] = b[s] for every row s, by least squares where J[s]
    is singular or not square.  When np.linalg.solve rejects the batch, a
    batched LU test (slogdet sign 0: an exact zero pivot, the test solve
    raises on) finds the singular rows; the others are solved in one batch
    and only the singular ones one by one."""
    try:
        return np.linalg.solve(J, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        square = J.shape[-1] == J.shape[-2]
        lone = np.linalg.slogdet(J)[0] == 0 if square else np.ones(len(b), dtype=bool)
        out = np.empty(b.shape[:-1] + J.shape[-1:])
        if not lone.all():
            out[~lone] = np.linalg.solve(J[~lone], b[~lone][..., None])[..., 0]
        for s in np.flatnonzero(lone):
            out[s] = np.linalg.lstsq(J[s], b[s], rcond=None)[0]
        return out


def damped_newton(F, J, X, iters: int, tol: float, project=lambda v: v):
    """Newton on F(x) = 0 with backtracking on ||F||, for every row x of the
    (S, k) array X at once.  F(X, rows) maps (R, k) points to (R, n) values
    and J(X, rows) to (R, n, k) Jacobians, where rows holds the index in X
    of the start each point comes from, so one call can solve rows of
    different systems (a stacked support walk gives each row its own
    tensor's coefficients).

    Each row steps on its own: it solves J(x) d = -F(x) (least squares when
    J is singular, or a Gauss-Newton step when n != k) and halves t until
    ||F(project(x + t d))|| < (1 - 1e-4 t) ||F(x)|| or drops to tol; it
    stops at tol, after iters steps, when d is not finite, or when no
    halving down to t = 1e-14 helps.  F and J must give each row the value
    they give it alone.
    Returns (X, ||F|| of every row).
    """
    X = np.array(X, dtype=float)
    FX = F(X, np.arange(len(X)))
    r = np.sqrt(np.vecdot(FX, FX))  # np.linalg.norm of each row, bit for bit
    rows = np.flatnonzero(~(r <= tol))  # only r <= tol stops; a NaN residual steps on
    for _ in range(iters):
        if not len(rows):
            break
        rows = _newton_step(F, J, project, X, FX, r, rows, tol)
    return X, r


def _newton_step(F, J, project, X, FX, r, rows, tol):
    """One damped Newton step of the given rows of X, updating X, FX and r
    in place; returns the rows that step on.  Its temporaries die with it,
    so a long run holds only X, FX and r."""
    D = _solve_rows(J(X[rows], rows), -FX[rows])
    if not np.isfinite(D).all():  # a non-finite step stops its row
        finite = np.isfinite(D).all(axis=1)
        rows, D = rows[finite], D[finite]
    t = np.ones(len(rows))
    stepped = np.zeros(len(X), dtype=bool)
    while len(rows):
        Xn = project(X[rows] + t[:, None] * D)
        Fn = F(Xn, rows)
        rn = np.sqrt(np.vecdot(Fn, Fn))
        ok = (rn < r[rows] * (1.0 - 1e-4 * t)) | (rn <= tol)
        if ok.all():
            X[rows], FX[rows], r[rows] = Xn, Fn, rn
            stepped[rows] = True
            break
        done = rows[ok]
        X[done], FX[done], r[done] = Xn[ok], Fn[ok], rn[ok]
        stepped[done] = True
        t = 0.5 * t
        left = ~ok & (t > 1e-14)  # a row whose t halves to 1e-14 stops
        rows, D, t = rows[left], D[left], t[left]
    return np.flatnonzero(stepped & ~(r <= tol))


def _refine_rows(forms: _Forms, Q: np.ndarray, U0, own: np.ndarray, iters: int = 60):
    """Damped Newton with nonnegativity clamping on F(u) = A u^{m-1} + q,
    from every row r of U0 at once, with A the tensor own[r] of forms and q
    the row own[r] of Q."""
    def F(U, rows):
        o = own[rows]
        return forms.m1(U, o) + Q.take(o, axis=0)

    return damped_newton(F, lambda U, rows: forms.eval(U, own[rows], m1=False, jac=True)[1],
                         np.maximum(np.asarray(U0, dtype=float), 0.0),
                         iters, SYS_TOL * 1e-2,
                         project=lambda V: np.maximum(V, 0.0))


def newton_refine(A: Tensor, q: np.ndarray, u0: np.ndarray,
                  iters: int = 60) -> tuple[np.ndarray, float]:
    """Damped Newton with nonnegativity clamping on F(u) = A u^{m-1} + q."""
    U, r = _refine_rows(_Forms([A]), np.asarray(q, dtype=float)[None],
                        np.asarray(u0, dtype=float)[None], np.zeros(1, dtype=np.intp), iters)
    return U[0], float(r[0])


def _dedup(roots: np.ndarray, tol: float = 1e-6) -> list[int]:
    """The indices of the rows of roots in lexicographic order, each row
    kept when it is more than tol from every row kept before it."""
    kept, left = [], np.lexsort(roots.T[::-1])
    while len(left):  # the first row left is kept, and drops the rows near it
        kept.append(left[0])
        d = roots[left] - roots[left[0]]
        left = left[np.sqrt(np.vecdot(d, d)) > tol]  # np.linalg.norm, bit for bit
    return kept


def _scan_head(A: Tensor, q: np.ndarray, multistarts: int):
    """The part of scan_system before its Newton stage: (scan, None) when
    the sign test, the scalar closed form or q = 0 settles the scan, else
    (scan, _box_starts(...)) with the grid minimum in the scan."""
    scan = SystemScan()
    if _sign_infeasible(A, q):
        scan.certified_infeasible = True
        scan.reason = "sign analysis"
        return scan, None

    if A.dim == 1:
        # scalar a u^{m-1} = -q solves in closed form; root list is complete
        a = float(A._coef.sum())  # the one coefficient, or 0 when none is stored
        q0 = float(q[0])
        if abs(a) > 1e-12:
            t = -q0 / a
            if t >= 0.0:
                scan.roots = [np.array([t ** (1.0 / (A.order - 1))])]
                scan.roots_complete = True
            else:
                scan.certified_infeasible = True
            scan.reason = "scalar closed form"
        elif abs(q0) <= SYS_TOL:
            scan.roots = [np.zeros(1)]  # every u solves; not exhaustive
            scan.reason = "scalar degenerate"
        else:
            scan.certified_infeasible = True
            scan.reason = "scalar zero coefficient"
        return scan, None

    qn = float(np.linalg.norm(q))
    if qn <= SYS_TOL:
        scan.roots = [np.zeros(A.dim)]
        scan.grid_min_residual = qn
        return scan, None
    starts, scan.grid_min_residual, slack = _box_starts(A, q, qn, multistarts)
    return scan, (starts, slack)


def _box_starts(A: Tensor, q: np.ndarray, qn: float, multistarts: int):
    """The start phase of a scan, per tensor: (Newton starts, least residual
    on the root-box grid, slack), where a scan that finds no root is
    certified infeasible when the grid minimum exceeds slack + 1e-9; slack
    is None when no box bound holds or there is no grid (k >= 4)."""
    k, m = A.dim, A.order
    c = min_sphere_norm(A)
    bounded = c > _C_MIN
    R = (qn / (0.5 * c)) ** (1.0 / (m - 1)) if bounded else (1.0 + qn) ** (1.0 / (m - 1)) * 10.0
    if k > 3:  # dimension too high for a dense grid: multistart only, never certify
        rng = np.random.default_rng(0)
        return np.vstack([np.zeros(k), R * rng.random((4 * multistarts, k))]), math.inf, None

    g = max(min(int(_GRID_CELLS ** (1.0 / k)), 512), 8)  # a uniform grid on [0, R]^k
    axis = np.linspace(0.0, R, g)
    best, least = _grid_starts(A, q, axis, max(4 * multistarts, 8))
    starts = axis[np.column_stack(np.unravel_index(best, (g,) * k))]
    if not bounded:
        return starts, least, None
    lip = (m - 1) * _row_abs_sum(A) * max(R, 1.0) ** (m - 2)
    return starts, least, lip * (R / (g - 1)) * math.sqrt(k) / 2.0


def _scan_stack(tensors, qs, multistarts: int) -> list[SystemScan]:
    """[scan_system(A, q, multistarts) for A, q in zip(tensors, qs)], for
    tensors of one order and dimension.  Each system runs its sign test,
    closed form and start phase alone; then the starts of every system are
    refined in one damped Newton, each row with its own system's
    coefficients, so every scan gets the bits it gets alone."""
    scans, heads = zip(*(_scan_head(A, q, multistarts) for A, q in zip(tensors, qs)))
    open_ = [i for i, head in enumerate(heads) if head is not None]
    if open_:
        own = np.repeat(np.arange(len(open_)), [len(heads[i][0]) for i in open_])
        X, r = _refine_rows(_Forms([tensors[i] for i in open_]), np.array([qs[i] for i in open_]),
                            np.concatenate([heads[i][0] for i in open_]), own)
    for j, i in enumerate(open_):
        scan, slack = scans[i], heads[i][1]
        mine = own == j
        roots = X[mine][r[mine] <= SYS_TOL]
        scan.roots = list(roots[_dedup(roots)])
        if scan.roots:
            continue
        if slack is None:
            scan.reason = "no box bound (near-singular on the orthant)"
        elif scan.grid_min_residual > slack + 1e-9:
            scan.certified_infeasible = True
            scan.reason = "bounded box grid"
        else:
            scan.reason = "grid minimum within Lipschitz slack"
    return list(scans)


def scan_system(A: Tensor, q, multistarts: int = 24) -> SystemScan:
    """Search for all nonnegative roots of A u^{m-1} + q = 0."""
    return _scan_stack([A], [np.asarray(q, dtype=float)], multistarts)[0]


def walk_supports(tensors, qs, multistarts: int):
    """Scan every complementary support alpha of {1..n} for every instance
    (A, q) of a stack at once (tensors of one order and dimension n), by
    increasing size and lexicographically within a size, yielding (alpha,
    feasible, settled) with one entry per instance in each list.

    feasible lists the (u_alpha, slack) pairs with u_alpha >= 0 a root of
    A_aa u^{m-1} + q_a = 0 whose slack A_{comp,a} u^{m-1} + q_comp is
    >= -SLACK_TOL; each one gives a solution (u_alpha, 0) of TCP(q, A).
    settled is True when the scan proves no other feasible root exists:
    the system is certified infeasible, or its root list is complete.
    Each support cuts every instance's sub-form and scans them as one stack
    (_scan_stack), so every instance gets what it gets alone.  The
    generator is lazy, so a caller may stop at the first feasible root.
    """
    n = tensors[0].dim
    for r in range(n + 1):
        for members in itertools.combinations(range(1, n + 1), r):
            alpha = IndexSet(members, n)
            if r == 0:
                yield alpha, [[(np.zeros(0), q)] if np.all(q >= -SLACK_TOL) else []
                              for q in qs], [True] * len(qs)
                continue
            a, comp = [i - 1 for i in members], [i - 1 for i in alpha.complement]
            scans = _scan_stack([principal_subtensor(A, alpha) for A in tensors],
                                [q[a] for q in qs], multistarts)
            feasible = []
            for A, q, scan in zip(tensors, qs, scans):
                feasible.append([])
                for u_a in scan.roots:
                    slack = apply_off(A, alpha, u_a) + q[comp] if comp else np.zeros(0)
                    if np.all(slack >= -SLACK_TOL):
                        feasible[-1].append((u_a, slack))
            yield alpha, feasible, [s.certified_infeasible or s.roots_complete for s in scans]
