"""Root search for the per-support systems A u^{m-1} + q = 0, u >= 0.

This is the workhorse behind complementary-cone membership and the
enumeration solver.  It combines

  * componentwise sign analysis (exact infeasibility certificates when all
    coefficients of a component share a sign),
  * a norm lower bound on the unit sphere that confines roots to a box,
  * a residual grid over that box (``_grid``), scored in the power basis
    from its one axis, only in the blocks of the grid that can hold one of
    the best points: a monotone enclosure of each component over each
    block bounds the residual there, and
  * one row-batched damped projected Newton refinement from the best grid
    points, the same points a full scoring of the grid would pick.

Every test reads the tensor's frozen form; none calls ``to_dense``.
Infeasibility is only certified when the box bound is valid and the grid
minimum clears a Lipschitz slack; otherwise the scan is inconclusive.
``_scan_stack`` is the package's one search for nonnegative roots: besides
the support walk, ``compcones.tpos_contains`` scans with it the systems of
its image-cone membership, lifted to the cone's generators.

``walk_supports`` runs these scans over the complementary supports and
applies the slack test, and a sign test of the slack rows settles a
support no root of which can be feasible; membership and the enumeration
solver both read it.
It walks a stack of instances at once.  The instances whose tensors share
``_tails`` (the groups of ``_Forms``) cut their sub-systems once per
support (``_Forms.cut``), run their sign test as one test on the stacked
coefficients and their start phase in blocks of tensors: one sphere
bound, one block enclosure per level and one scoring of the kept blocks
per block, each block tagged with its instance.  Then one Newton run
refines the starts of all of them, every row with its own instance's
coefficients.  Every instance gets the bits it gets alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._forms import _Forms
from ._grid import _grid_picks
from ._rng import SplitMix64, _uniform_stack
from ._simplex import _compositions
from .tensor import IndexSet, Tensor, _monomials, apply_off

SYS_TOL = 1e-9  # residual at which a refined point counts as a root
SLACK_TOL = 1e-8  # a support root counts when its slack is >= -SLACK_TOL

_C_MIN = 0.05  # sphere-norm level below which no box bound is claimed
_GRID_CELLS = 300_000  # points of the residual grid over the root box
_HEAD_TENSORS = 8  # tensors per block of a stacked start phase
_NEWTON_ITERS = 60  # damped Newton steps from each start
_DEDUP_DIST = 1e-6  # roots (and solutions) closer than this are one


@dataclass
class SystemScan:
    roots: list = field(default_factory=list)
    certified_infeasible: bool = False
    grid_min_residual: float = math.inf
    reason: str = ""
    roots_complete: bool = False  # the root list is provably exhaustive


def _sign_infeasible(coef: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """For every system s of a stack (the coefficients coef[s], of shape (T,
    k), and Q[s]): True when some component cannot vanish for any u >= 0:
    its stored coefficients (its unstored ones are zero) share a sign that
    q's does not cancel."""
    return (((coef.min(axis=1, initial=0.0) >= 0) & (Q > 1e-12))
            | ((coef.max(axis=1, initial=0.0) <= 0) & (Q < -1e-12))).any(axis=1)


def _slack_infeasible(forms: _Forms, a: list, comp: list, Q: np.ndarray) -> np.ndarray:
    """For every instance of forms (q = Q[i]) on the support a: True when
    some complement row j has no positive coefficient on the support's
    monomials (the tails inside a) and q_j < -SLACK_TOL, so its slack is
    below -SLACK_TOL at every u >= 0 and no root is feasible.  One test
    per group of forms, on its stacked coefficients."""
    out = np.zeros(len(Q), dtype=bool)
    for g, (A, coef) in enumerate(forms.groups):
        pos = (coef[:, np.isin(A._tails, a).all(axis=1)][:, :, comp] > 0).any(axis=1)
        members = np.flatnonzero(forms.group == g)
        out[members] = (~pos[forms.slot[members]] & (Q[members][:, comp] < -SLACK_TOL)).any(axis=1)
    return out


@functools.cache  # one grid per (k, res); _sphere_bounds asks for one res per k
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


def _row_abs_sums(A: Tensor, coef: np.ndarray) -> np.ndarray:
    """max_i sum |a_{i, ...}| of every tensor coef[s] with A's tails, summed
    over each component's k^{m-1} entries in index order, its unstored zeros
    included: numpy's pairwise sum then has the bits of the dense row sum,
    which it loses on sparse rows once the zeros are dropped."""
    k = A.dim
    rows = np.zeros((len(coef), k, k ** (A.order - 1)))
    at = np.ravel_multi_index(tuple(A._tails.T), (k,) * (A.order - 1))
    rows[:, :, at] = np.abs(np.swapaxes(coef, 1, 2))
    return rows.sum(axis=2).max(axis=1)


@np.errstate(over="ignore", invalid="ignore")
def _sphere_bounds(A: Tensor, coef: np.ndarray, abs_sums: list) -> list:
    """min_sphere_norm of every tensor coef[s] with A's tails, abs_sums its
    _row_abs_sums.  The sphere grid is contracted with every tensor in the
    row blocks of batch_apply_m1, one product per tensor and block, so each
    tensor gets the bits it gets alone; a NaN anywhere gives a NaN bound.
    The products are component first, (S, k, rows): numpy adds fewer than 8
    terms in order, so the sum over the leading axis has the bits of a sum
    over each row's k components; from 8 on it sums them pairwise, so the
    squares are copied row first, contiguous, for that sum."""
    k = A.dim
    res = 4096 if k <= 2 else (48 if k == 3 else 12)
    V = _sphere_grid(k, res)
    least = np.inf
    step = max(1, 2**16 // max(len(A._tails) * len(coef), 1))  # rows x T x S per block
    for s in range(0, len(V), step):
        F = np.swapaxes(coef, 1, 2) @ _monomials(A, V[s:s + step])
        F *= F  # np.linalg.norm's squares; the least norm is the root of the least square
        sq = (np.add.reduce(F, axis=1) if k < 8
              else np.ascontiguousarray(np.swapaxes(F, 1, 2)).sum(axis=2))
        least = np.minimum(least, sq.min(axis=1))
    h = (math.pi / 2) / (res - 1) if k == 2 else 2.0 / res
    return [max(est - (A.order - 1) * a * h, 0.0)
            for est, a in zip(np.sqrt(least).tolist(), abs_sums)]


def min_sphere_norm(A: Tensor) -> float:
    """Grid estimate of min ||A v^{m-1}|| over unit v >= 0, with a Lipschitz
    correction subtracted so the result lower-bounds the true minimum
    (clipped at 0)."""
    coef = A._coef[None]
    return _sphere_bounds(A, coef, _row_abs_sums(A, coef).tolist())[0]


def _solve_rows(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve J[s] d[s] = b[s] for every row s of a stack of square J, by
    least squares where J[s] is singular.  When np.linalg.solve rejects the
    batch, a batched LU test (slogdet sign 0: an exact zero pivot, the test
    solve raises on) finds the singular rows; the others are solved in one
    batch and only the singular ones one by one."""
    try:
        return np.linalg.solve(J, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        lone = np.linalg.slogdet(J)[0] == 0
        out = np.empty(b.shape)
        if not lone.all():
            out[~lone] = np.linalg.solve(J[~lone], b[~lone][..., None])[..., 0]
        for s in np.flatnonzero(lone):
            out[s] = np.linalg.lstsq(J[s], b[s], rcond=None)[0]
        return out


def damped_newton(F, J, X, iters: int, tol: float, project=lambda v: v):
    """Newton on F(x) = 0 with backtracking on ||F||, for every row x of the
    (S, k) array X at once.  F(X, rows) maps (R, k) points to (R, k) values
    and J(X, rows) to (R, k, k) Jacobians, where rows holds the index in X
    of the start each point comes from, so one call can solve rows of
    different systems (a stacked support walk gives each row its own
    tensor's coefficients).

    Each row steps on its own: it solves J(x) d = -F(x) (least squares when
    J is singular) and halves t until
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


def _refine_rows(forms: _Forms, Q: np.ndarray, U0, own: np.ndarray):
    """Damped Newton with nonnegativity clamping on F(u) = A u^{m-1} + q,
    for at most 60 steps, from every row r of U0 at once, with A the tensor
    own[r] of forms and q the row own[r] of Q."""
    def F(U, rows):
        o = own[rows]
        return forms.m1(U, o) + Q.take(o, axis=0)

    return damped_newton(F, lambda U, rows: forms.eval(U, own[rows], m1=False, jac=True)[1],
                         np.maximum(np.asarray(U0, dtype=float), 0.0),
                         _NEWTON_ITERS, SYS_TOL * 1e-2,
                         project=lambda V: np.maximum(V, 0.0))


def newton_refine(A: Tensor, q: np.ndarray, u0: np.ndarray) -> tuple[np.ndarray, float]:
    """Damped Newton with nonnegativity clamping on F(u) = A u^{m-1} + q."""
    U, r = _refine_rows(_Forms([A]), np.asarray(q, dtype=float)[None],
                        np.asarray(u0, dtype=float)[None], np.zeros(1, dtype=np.intp))
    return U[0], float(r[0])


def _dedup(roots: np.ndarray) -> list[int]:
    """The indices of the rows of roots in lexicographic order, each row
    kept when it is more than _DEDUP_DIST from every row kept before it."""
    kept, left = [], np.lexsort(roots.T[::-1])
    while len(left):  # the first row left is kept, and drops the rows near it
        kept.append(left[0])
        d = roots[left] - roots[left[0]]
        left = left[np.sqrt(np.vecdot(d, d)) > _DEDUP_DIST]  # np.linalg.norm, bit for bit
    return kept


def _settle(A: Tensor, coef: np.ndarray, Q: np.ndarray, scans: list):
    """The part of the scans of one group (the tensors coef[s] with A's
    tails, q = Q[s]) that needs no grid: the sign test, the scalar closed
    form and q = 0 settle scans[s] in place.  Returns the positions of the
    scans left open and their ||q||."""
    sign = _sign_infeasible(coef, Q)
    left, norms = [], []
    for s, scan in enumerate(scans):
        if sign[s]:
            scan.certified_infeasible = True
            scan.reason = "sign analysis"
        elif A.dim == 1:
            # scalar a u^{m-1} = -q solves in closed form; root list is complete
            a = float(coef[s].sum())  # the one coefficient, or 0 when none is stored
            q0 = float(Q[s, 0])
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
        elif (qn := float(np.linalg.norm(Q[s]))) <= SYS_TOL:
            scan.roots = [np.zeros(A.dim)]
            scan.grid_min_residual = qn
        else:
            left.append(s)
            norms.append(qn)
    return left, norms


def _start_phase(A: Tensor, coef: np.ndarray, Q: np.ndarray, norms: list, multistarts: int):
    """The start phase of the open scans of a block of one group (the
    tensors coef[s] with A's tails, q = Q[s] of norm norms[s]): for each,
    (Newton starts, least residual on its root-box grid, slack), where a
    scan that finds no root is certified infeasible when the grid minimum
    exceeds slack + 1e-9; slack is None when no box bound holds (the sphere
    bound is at most 0.05, NaN or inf) or there is no grid (k >= 4).  The
    sphere bounds, the block bounds and the scoring of the kept blocks each
    run once for the whole block."""
    k, m = A.dim, A.order
    abs_sums = _row_abs_sums(A, coef).tolist()
    c = _sphere_bounds(A, coef, abs_sums)
    bounded = [_C_MIN < cs < math.inf for cs in c]  # a NaN or overflowed bound bounds no box
    R = [(qn / (0.5 * cs)) ** (1.0 / (m - 1)) if ok
         else (1.0 + qn) ** (1.0 / (m - 1)) * 10.0 for cs, qn, ok in zip(c, norms, bounded)]
    if k > 3:  # dimension too high for a dense grid: multistart only, never certify
        U = _uniform_stack([SplitMix64(0)], 4 * multistarts * k).reshape(4 * multistarts, k)
        return [(np.vstack([np.zeros(k), Rs * U]), math.inf, None) for Rs in R]

    g = max(min(int(_GRID_CELLS ** (1.0 / k)), 512), 8)  # a uniform grid on [0, R]^k
    axes = np.array([np.linspace(0.0, Rs, g) for Rs in R])
    best, least = _grid_picks(A, coef, Q, axes, max(4 * multistarts, 8))
    heads = []
    for s, Rs in enumerate(R):
        starts = axes[s][np.column_stack(np.unravel_index(best[s], (g,) * k))]
        slack = None
        if bounded[s]:
            lip = (m - 1) * abs_sums[s] * max(Rs, 1.0) ** (m - 2)
            slack = lip * (Rs / (g - 1)) * math.sqrt(k) / 2.0
        heads.append((starts, float(least[s]), slack))
    return heads


def _scan_heads(forms: _Forms, Q: np.ndarray, multistarts: int):
    """The part of scan_system(A, q, multistarts) before its Newton stage,
    for every system of a stack (the tensors of forms, q = Q[i]): (scans,
    heads), heads[i] being (starts, slack) when scans[i] is left open, else
    None.  The scans of each group of tensors that share _tails settle what
    needs no grid in one pass, then run their start phase together,
    _HEAD_TENSORS tensors at a time; every scan gets the bits it gets
    alone."""
    scans = [SystemScan() for _ in Q]
    heads = [None] * len(Q)
    for g, (A, coef) in enumerate(forms.groups):
        members = np.flatnonzero(forms.group == g)
        left, norms = _settle(A, coef, Q[members], [scans[i] for i in members])
        for b in range(0, len(left), _HEAD_TENSORS):
            block = left[b:b + _HEAD_TENSORS]
            phase = _start_phase(A, coef[block], Q[members[block]], norms[b:b + _HEAD_TENSORS],
                                 multistarts)
            for i, (starts, least, slack) in zip(members[block], phase):
                scans[i].grid_min_residual = least
                heads[i] = starts, slack
    return scans, heads


def _scan_stack(forms: _Forms, Q: np.ndarray, multistarts: int) -> list[SystemScan]:
    """[scan_system(A, q, multistarts) for A, q in zip(tensors, Q)], for
    the tensors of forms (of one order and dimension): the heads of all
    scans (_scan_heads), then the starts of every open scan refined in one
    damped Newton, each row with its own system's coefficients, so every
    scan gets the bits it gets alone."""
    scans, heads = _scan_heads(forms, Q, multistarts)
    open_ = [i for i, head in enumerate(heads) if head is not None]
    if open_:
        own = np.repeat(open_, [len(heads[i][0]) for i in open_])
        X, r = _refine_rows(forms, Q, np.concatenate([heads[i][0] for i in open_]), own)
    for i in open_:
        scan, slack = scans[i], heads[i][1]
        mine = own == i
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
    return scans


def scan_system(A: Tensor, q, multistarts: int = 24) -> SystemScan:
    """Search for all nonnegative roots of A u^{m-1} + q = 0."""
    return _scan_stack(_Forms([A]), np.asarray(q, dtype=float)[None], multistarts)[0]


def walk_supports(tensors, qs, multistarts: int, live=None):
    """Scan every complementary support alpha of {1..n} for every instance
    (A, q) of a stack at once (tensors of one order and dimension n), by
    increasing size and lexicographically within a size, yielding (alpha,
    feasible, settled) with one entry per instance in each list.

    feasible lists the (u_alpha, slack) pairs with u_alpha >= 0 a root of
    A_aa u^{m-1} + q_a = 0 whose slack A_{comp,a} u^{m-1} + q_comp is
    >= -SLACK_TOL; each one gives a solution (u_alpha, 0) of TCP(q, A).
    settled is True when the scan proves no other feasible root exists:
    the system is certified infeasible, its root list is complete, or a
    slack row is negative at every u >= 0 (_slack_infeasible).
    Each support cuts the sub-forms of each group of instances that share
    _tails once (_Forms.cut) and scans them as one stack (_scan_stack), so
    every instance gets what it gets alone.  The generator is lazy, so a
    caller may stop at the first feasible root.  live, a boolean array over
    the instances that the caller may clear between yields, drops instances:
    from the next support on only the live ones are scanned (a dropped one
    gets no root and settled False), and the walk ends when none is live.
    """
    n = tensors[0].dim
    live = np.ones(len(tensors), dtype=bool) if live is None else live
    Q, rows = np.array(qs, dtype=float), None
    for r in range(n + 1):
        for members in itertools.combinations(range(1, n + 1), r):
            if not live.any():
                return
            alpha = IndexSet(members, n)
            if r == 0:
                yield alpha, [[(np.zeros(0), q)] if np.all(q >= -SLACK_TOL) else []
                              for q in qs], [True] * len(qs)
                continue
            if rows is None or not np.array_equal(rows, np.flatnonzero(live)):
                rows = np.flatnonzero(live)
                forms = _Forms([tensors[i] for i in rows])
            a, comp = [i - 1 for i in members], [i - 1 for i in alpha.complement]
            feasible, settled = [[] for _ in qs], [False] * len(qs)
            ruled_out = _slack_infeasible(forms, a, comp, Q[rows])
            for i, out, scan in zip(rows, ruled_out, _scan_stack(forms.cut(a), Q[rows][:, a],
                                                                 multistarts)):
                for u_a in scan.roots:
                    slack = apply_off(tensors[i], alpha, u_a) + qs[i][comp] if comp else np.zeros(0)
                    if np.all(slack >= -SLACK_TOL):
                        feasible[i].append((u_a, slack))
                settled[i] = bool(out) or scan.certified_infeasible or scan.roots_complete
            yield alpha, feasible, settled
