"""Root search for the per-support systems A u^{m-1} + q = 0, u >= 0.

This is the workhorse behind complementary-cone membership and the
enumeration solver.  Every system is homogenized: G(u, t) = A u^{m-1} +
q t^{m-1} vanishes on the standard simplex of R^{k+1}_+ exactly when the
system has a root u >= 0 (at u / t), or a root at infinity on the orthant
(on the face t = 0).  On a support a of TCP(q, A) a root is feasible where
the slack rows of the complement c, S_j(u, t) = A_{j,a} u^{m-1} + (q_j +
SLACK_TOL) t^{m-1}, are >= 0.  The scan of a stack of systems runs

  * the sign test (an equation whose coefficients share a sign that q's
    does not cancel, or a slack row with no positive coefficient and q_j <
    -SLACK_TOL) and the scalar closed form,
  * a shallow Bernstein subdivision of the equations on that simplex
    (_simplex._subdivide, _SHALLOW cuts), whose open leaves' centroids,
    mapped to u = c_u / c_t, are the starts of
  * one row-batched damped projected Newton refinement of every open
    system's starts, each row with its own system's coefficients, and
  * for the systems with no feasible root, the subdivision of the equations
    and the slack rows together, continued to _simplex._CLEAR_DEPTH cuts:
    when every leaf clears, no root is feasible, found or not.

The sign test and Newton read the tensor's frozen form; the enclosure
reads its homogenized dense array.  A scan left open names why (_OPEN and
_AT_INFINITY).  ``_scan_stack`` is the package's one search for nonnegative
roots: besides the support walk, ``compcones.tpos_contains`` scans with it
the systems of its image-cone membership, lifted to the cone's generators.

``walk_supports`` runs these scans over the complementary supports;
membership and the enumeration solver both read it.  It walks a stack of
instances at once: the instances whose tensors share ``_tails`` (the
groups of ``_Forms``) cut their sub-systems once per support
(``_Forms.cut``), and every system of the stack is scanned as one stack.
Every instance gets the bits it gets alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._forms import _Forms
from ._simplex import (_CLEAR_DEPTH, _NEWTON_ITERS, _clearing, _enclose, _signs, _subdivide,
                       damped_newton)
from .cones import orthant
from .tensor import IndexSet, Tensor

SYS_TOL = 1e-9  # residual at which a refined point counts as a root
SLACK_TOL = 1e-8  # a support root counts when its slack is >= -SLACK_TOL

_SHALLOW = 8  # cuts of the subdivision whose open leaves give the Newton starts
_SCAN_ENTRIES = 2**14  # entries k (k+1)^{m-1} of a homogenized system the enclosure takes
_DEDUP_DIST = 1e-6  # roots (and solutions) closer than this are one

# why a scan is left open: the stop code of _subdivide, 3 past _SCAN_ENTRIES,
# 4 for a slack that overflows
_AT_INFINITY = ("a leaf on the t = 0 face stayed open: a root at infinity on the orthant, "
                "a vertex where A u^{m-1} is 0 within the slack")
_OPEN = {0: f"depth cap reached: leaves open after {_CLEAR_DEPTH} cuts",
         1: "a vertex is a near-root Newton did not refine",
         2: "leaf cap reached: too many open leaves",
         3: "too large for the enclosure",
         4: "the enclosure overflows: its rounding slack is not finite"}


@dataclass
class SystemScan:
    roots: list = field(default_factory=list)
    certified_infeasible: bool = False  # no root is feasible (with no slack rows: no root)
    reason: str = ""
    roots_complete: bool = False  # the root list is provably exhaustive
    feasible: list = field(default_factory=list)  # (u, slack) of each root with slack >= -SLACK_TOL


def _sign_infeasible(coef: np.ndarray, Q: np.ndarray, off: np.ndarray, Qc: np.ndarray):
    """For every system s of a stack (coef[s], of shape (T, k), and Q[s];
    its slack rows off[s], of shape (T', c), and Qc[s]): True when no root
    u >= 0 is feasible: some equation's stored coefficients (its unstored
    ones are zero) share a sign that q's does not cancel, or some slack row
    has no positive coefficient and q_j < -SLACK_TOL."""
    return ((((coef.min(axis=1, initial=0.0) >= 0) & (Q > 1e-12))
             | ((coef.max(axis=1, initial=0.0) <= 0) & (Q < -1e-12))).any(axis=1)
            | (~(off > 0).any(axis=1) & (Qc < -SLACK_TOL)).any(axis=1))


def _homogenized(tails: np.ndarray, coef: np.ndarray, Q: np.ndarray, k: int) -> np.ndarray:
    """The dense arrays of A u^{m-1} + q t^{m-1} for the (S, T, r) stack coef
    on the tails of u in R^k and q = Q[s]: shape (S, r) + (k + 1,) * (m - 1),
    the last index of each trailing axis standing for t."""
    H = np.zeros(coef.shape[::2] + (k + 1,) * tails.shape[1])
    H[(slice(None), slice(None)) + tuple(tails.T)] = np.swapaxes(coef, 1, 2)
    H[(slice(None), slice(None)) + (k,) * tails.shape[1]] = Q
    return H


def min_sphere_norm(A: Tensor) -> float:
    """A lower bound on min ||A v^{m-1}|| over unit v >= 0, 0 when none is
    shown: the lower bound of the norm_m1 enclosure on the orthant's basis
    (_simplex._enclose), which bounds ||A s^{m-1}||_inf from below on the
    standard simplex; ||A v^{m-1}||_2 >= ||A s^{m-1}||_inf at s = v / |v|_1."""
    lower = _enclose("norm_m1", [A], orthant(A.dim))[0][3]
    return lower if lower > 0 else 0.0


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


def _settle(A: Tensor, coef: np.ndarray, Q: np.ndarray, scans: list, off, Qc) -> list:
    """The part of the scans of one group (the tensors coef[s] with A's
    tails, q = Q[s], beside the slack rows off[s] and Qc[s]) that needs no
    enclosure: the sign test and the scalar closed form settle scans[s] in
    place.  Returns the positions of the scans left open."""
    sign = _sign_infeasible(coef, Q, off, Qc)
    left = []
    for s, scan in enumerate(scans):
        if sign[s]:
            scan.certified_infeasible = True
            scan.reason = "sign analysis"
        elif A.dim == 1:
            # scalar a u^{m-1} = -q solves in closed form; root list is complete
            a = float(coef[s].sum())  # the one coefficient, or 0 when none is stored
            q0 = float(Q[s, 0])
            t = -q0 / a if a else math.nan
            if t == math.inf:
                scan.reason = "scalar closed form overflows: -q/a is past the largest float"
            elif a:
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
        else:
            left.append(s)
    return left


def _feasible(forms: _Forms, Q: np.ndarray, a, comp: list, scans: list) -> None:
    """Sets scan.feasible to (u, slack) for each root u whose slack, the rows
    comp of A x^{m-1} + q at x = (u, 0) with the bits apply_off gives, is
    >= -SLACK_TOL: every root, with no comp."""
    own = np.array([s for s, scan in enumerate(scans) for _ in scan.roots], dtype=np.intp)
    roots = [u for scan in scans for u in scan.roots]
    slack = np.zeros((len(roots), 0))
    if comp and roots:
        X = np.zeros((len(roots), Q.shape[1]))
        X[:, a] = roots
        slack = forms.m1(X, own)[:, comp] + Q[own][:, comp]
    for s, u, w in zip(own, roots, slack):
        if np.all(w >= -SLACK_TOL):
            scans[s].feasible.append((u, w))


def _scan_stack(forms: _Forms, Q: np.ndarray, a: list) -> list[SystemScan]:
    """The scans of the support a (sorted 0-based indices) of every instance
    (A, q) of a stack, A the tensors of forms (of one order and dimension)
    and q the rows of Q: the system A_aa u^{m-1} + q_a = 0 (forms.cut(a)),
    a root feasible where the slack rows of the complement are >=
    -SLACK_TOL (_feasible).  The full support has no slack rows; its scan
    of (A, q) is scan_system(A, q).  Each group settles what needs no
    enclosure (_settle); the equations of the systems left open are
    subdivided _SHALLOW cuts deep as one stack, and the centroids c of their
    open leaves, at u = c_u / c_t, are refined in one damped Newton.  The
    systems with no feasible root are cut on, to _CLEAR_DEPTH cuts in all,
    with their slack rows beside the equations (_signs), unless their
    subdivision stopped at a cap, or at a vertex with no slack row to clear
    it: one whose every leaf clears is certified infeasible, any other names
    why it is open.  Every scan gets the bits it gets alone.
    An overflow only leaves a scan open, so the enclosure raises no warning;
    the Newton stage runs under the caller's np.errstate."""
    sub, Qa, comp = forms.cut(a), Q[:, a], [j for j in range(Q.shape[1]) if j not in a]
    scans, k = [SystemScan() for _ in Q], sub.groups[0][0].dim
    own, H, S = [], [], []
    for g, (A, coef) in enumerate(sub.groups):
        members = np.flatnonzero(sub.group == g)
        tails, off = sub.off[g]
        Qc = Q[members][:, comp]
        left = _settle(A, coef, Qa[members], [scans[i] for i in members], off, Qc)
        if left:
            own.extend(members[left])
            H.append(_homogenized(A._tails, coef[left], Qa[members[left]], k))
            S.append(_homogenized(tails, off[left], Qc[left] + SLACK_TOL, k))
    if not own:
        _feasible(forms, Q, a, comp, scans)
        return scans
    own, H = np.array(own), np.concatenate(H)
    HS = np.concatenate([H, np.concatenate(S)], axis=1) if comp else H
    with np.errstate(over="ignore"):  # an inf or NaN rho clears nothing
        rho, rho_s = (2.0**-30 * np.abs(D).reshape(len(D), -1).sum(axis=1) for D in (H, HS))
    # the systems the enclosure does not take keep one leaf, the simplex
    stop = np.where(H[0].size > _SCAN_ENTRIES, 3, np.where(rho < math.inf, 0, 4)).astype(np.int8)
    leaf, W = np.arange(len(H)), np.repeat(np.eye(k + 1)[None], len(H), axis=0)
    go = stop == 0
    if go.any():
        cut, Wc, stop_c = _subdivide(H, np.eye(k + 1), rho, "m1", _clearing(_signs(k)), _SHALLOW,
                                     leaf[go], W[go])
        stop[go] = stop_c[go]
        leaf, W = np.concatenate([leaf[~go], cut]), np.concatenate([W[~go], Wc])
    c = W.mean(axis=2)  # a leaf is full-dimensional, so c_t > 0
    X, r = _refine_rows(sub, Qa, c[:, :k] / c[:, k:], own[leaf])
    for j, i in enumerate(own):
        mine = leaf == j
        roots = X[mine][r[mine] <= SYS_TOL]
        scans[i].roots = list(roots[_dedup(roots)])
    _feasible(forms, Q, a, comp, scans)
    unsettled = [j for j, i in enumerate(own) if not scans[i].feasible]
    deep = np.isin(leaf, unsettled) & ((stop[leaf] == 0) | (stop[leaf] == 1) & bool(comp))
    if deep.any():
        more, Wd, stop_d = _subdivide(HS, np.eye(k + 1), rho_s, "m1", _clearing(_signs(k)),
                                      _CLEAR_DEPTH - _SHALLOW, leaf[deep], W[deep])
        stop[leaf[deep]] = stop_d[leaf[deep]]
        leaf, W = np.concatenate([leaf[~deep], more]), np.concatenate([W[~deep], Wd])
    V = np.swapaxes(W, 1, 2)  # vertices as rows
    p, v = np.nonzero((V[:, :, k] == 0) & np.isin(leaf, unsettled)[:, None])  # on t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        zero = np.abs(sub.m1(V[p, v, :k], own[leaf[p]])).max(axis=1) <= rho[leaf[p]]
    at_infinity = np.isin(np.arange(len(H)), leaf[p][zero]) & (stop < 3)
    for j in unsettled:
        scan = scans[own[j]]
        if not (leaf == j).any():
            scan.certified_infeasible = True
            scan.reason = "Bernstein enclosure"
        else:
            scan.reason = _AT_INFINITY if at_infinity[j] else _OPEN[int(stop[j])]
    return scans


def scan_system(A: Tensor, q) -> SystemScan:
    """Search for all nonnegative roots of A u^{m-1} + q = 0."""
    return _scan_stack(_Forms([A]), np.asarray(q, dtype=float)[None], list(range(A.dim)))[0]


def walk_supports(tensors, qs, live=None):
    """Scan every complementary support alpha of {1..n} for every instance
    (A, q) of a stack at once (tensors of one order and dimension n), by
    increasing size and lexicographically within a size, yielding (alpha,
    feasible, open_) with one entry per instance in each list.

    feasible lists the (u_alpha, slack) pairs with u_alpha >= 0 a root of
    A_aa u^{m-1} + q_a = 0 whose slack A_{comp,a} u^{m-1} + q_comp is
    >= -SLACK_TOL; each one gives a solution (u_alpha, 0) of TCP(q, A).
    open_ is "" when the scan of the support (_scan_stack, one stack per
    support, every instance with what it gets alone) proves no other
    feasible root exists: the sign test or the enclosure of the equations
    and the slack rows settles it, or its root list is complete.  Otherwise
    it is the scan's reason, or that roots were found but the list is not
    proved complete.  The generator is lazy, so a caller may stop at the
    first feasible root.  live, a boolean array over the instances that the
    caller may clear between yields, drops instances: from the next support
    on only the live ones are scanned (a dropped one gets no root and the
    reason "not scanned"), and the walk ends when none is live.
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
                              for q in qs], [""] * len(qs)
                continue
            if rows is None or not np.array_equal(rows, np.flatnonzero(live)):
                rows = np.flatnonzero(live)
                forms = _Forms([tensors[i] for i in rows])
            feasible, open_ = [[] for _ in qs], ["not scanned"] * len(qs)
            for i, scan in zip(rows, _scan_stack(forms, Q[rows], [i - 1 for i in members])):
                feasible[i] = scan.feasible
                open_[i] = "" if scan.certified_infeasible or scan.roots_complete else (
                    scan.reason or "roots found, list not proved complete")
            yield alpha, feasible, open_
