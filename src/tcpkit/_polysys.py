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
reads its homogenized dense array.  ``_scan_stack`` is the package's one
search for nonnegative roots: besides the support walk,
``compcones.tpos_contains`` scans with it the systems of its image-cone
membership, lifted to the cone's generators.  Its result is arrays
(``_Scans``), each system's reason a code into _REASONS; only
``scan_system`` builds a ``SystemScan``.

``walk_supports`` runs these scans over the complementary supports;
membership and the enumeration solver both read it.  It walks a stack of
instances at once, given as their ``_Forms`` and the array of their q's:
the instances whose tensors share ``_tails`` (the
groups of ``_Forms``) cut their sub-systems once per support
(``_Forms.cut``), every system of the stack is scanned as one stack, and
each support yields arrays over the stack.  Every instance gets the bits
it gets alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

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
# what settles a scan or leaves it open, by code: _SIGN to _ENCLOSED certify it,
# _COMPLETE completes its roots, _OPEN[s] is _STOP + s; _WALK maps it to the walk's
_REASONS = ("", "sign analysis", "scalar closed form", "scalar zero coefficient",
            "Bernstein enclosure", "scalar closed form", "scalar degenerate",
            "scalar closed form overflows: -q/a is past the largest float",
            "roots found, list not proved complete", "not scanned", _AT_INFINITY, *_OPEN.values())
(_SIGN, _CLOSED, _ZERO, _ENCLOSED, _COMPLETE, _DEGENERATE, _OVERFLOW, _FOUND, _UNSCANNED,
 _INFINITE, _STOP) = range(1, 12)
_WALK = np.r_[_FOUND, [0] * _COMPLETE, _DEGENERATE:len(_REASONS)].astype(np.int8)


@dataclass
class SystemScan:
    roots: list = field(default_factory=list)
    certified_infeasible: bool = False  # no root exists
    reason: str = ""
    roots_complete: bool = False  # the root list is provably exhaustive


class _Scans(NamedTuple):
    """The scans of a stack of systems as arrays: the roots (R, k), by system
    and each system's in _dedup's order, with the system owner, slack rows
    (R, c) and feasibility (all >= -SLACK_TOL) of each; every system's reason
    code, which says whether no root is feasible (certified) or all found."""
    roots: np.ndarray
    owner: np.ndarray
    slack: np.ndarray
    feasible: np.ndarray
    reason: np.ndarray


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
    lower = _enclose("norm_m1", A.to_dense()[None], orthant(A.dim))[0][3]
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


def _dedup(roots: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The rows of roots kept, by owner and lexicographically within one: each
    when more than _DEDUP_DIST from every row of its owner kept before it.  A
    round keeps each owner's first row left, so rounds = most rows one keeps."""
    order = np.lexsort((*roots.T[::-1], owner))
    roots, owner = roots[order], owner[order]
    kept, left = np.zeros(len(order), dtype=bool), np.arange(len(order))
    while len(left):
        head = np.ones(len(left), dtype=bool)
        head[1:] = owner[left[1:]] != owner[left[:-1]]
        kept[left[head]] = True
        d = roots[left] - roots[left[head]][np.cumsum(head) - 1]
        left = left[np.sqrt(np.vecdot(d, d)) > _DEDUP_DIST]  # np.linalg.norm, bit for bit
    return order[kept]


def _settle(A: Tensor, coef: np.ndarray, Q: np.ndarray, off: np.ndarray, Qc: np.ndarray):
    """What needs no enclosure in the scans of one group, coef[s] (T, k) on
    A's tails with q = Q[s] beside the slack rows off[s] (T', c) and Qc[s]:
    every system's reason, 0 when left open, and one root of a scalar system
    that has one, else NaN.  The sign test finds no feasible root when some
    equation's stored coefficients (its unstored ones are zero) share a sign
    q's does not cancel, or a slack row has none > 0 and q_j < -SLACK_TOL."""
    sign = ((((coef.min(axis=1, initial=0.0) >= 0) & (Q > 1e-12))
             | ((coef.max(axis=1, initial=0.0) <= 0) & (Q < -1e-12))).any(axis=1)
            | (~(off > 0).any(axis=1) & (Qc < -SLACK_TOL)).any(axis=1))
    if A.dim > 1:
        return np.where(sign, _SIGN, 0), np.nan
    # scalar a u^{m-1} = -q solves in closed form; the root list is complete
    a, q0 = coef.reshape(len(coef), -1).sum(axis=1), Q[:, 0]  # 0 when no coefficient is stored
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = -q0 / a
    reason = np.where(sign, _SIGN, np.where(
        a == 0, np.where(np.abs(q0) <= SYS_TOL, _DEGENERATE, _ZERO),
        np.where(t == np.inf, _OVERFLOW, np.where(t >= 0.0, _COMPLETE, _CLOSED))))
    root = np.where(reason == _DEGENERATE, 0.0, np.nan)  # every u solves; not exhaustive
    closed = reason == _COMPLETE
    root[closed] = [v ** (1.0 / (A.order - 1)) for v in t[closed].tolist()]  # Python float **
    return reason, root


def _scan_stack(forms: _Forms, Q: np.ndarray, a: list) -> _Scans:
    """The scans of the support a (sorted 0-based indices) of every instance
    (A, q) of a stack, A the tensors of forms (of one order and dimension)
    and q the rows of Q: the system A_aa u^{m-1} + q_a = 0 (forms.cut(a)),
    a root feasible where its slack, the rows comp of A x^{m-1} + q at x =
    (u, 0) with the bits apply_off gives, is >= -SLACK_TOL.  The full
    support has no slack rows; its scan of (A, q) is scan_system(A, q).
    Each group settles what needs no enclosure (_settle); the equations of
    the systems left open are subdivided _SHALLOW cuts deep as one stack,
    the centroids c of their open leaves, at u = c_u / c_t, refined in one
    damped Newton and the roots deduplicated in one pass (_dedup).  The
    systems with no feasible root are cut on, to _CLEAR_DEPTH cuts in all,
    with their slack rows beside the equations (_signs), unless their
    subdivision stopped at a cap, or at a vertex with no slack row to clear
    it: one whose every leaf clears is certified infeasible, any other names
    why it is open.  Every scan gets the bits it gets alone.
    An overflow only leaves a scan open, so the enclosure raises no warning;
    the Newton stage runs under the caller's np.errstate."""
    sub, Qa, comp = forms.cut(a), Q[:, a], [j for j in range(Q.shape[1]) if j not in a]
    k, S = len(a), len(Q)
    reason, root, own, H, HS = np.empty(S, dtype=np.int8), np.empty(S), [], [], []
    for g, (A, coef) in enumerate(sub.groups):
        members = np.flatnonzero(sub.group == g)
        tails, off = sub.off[g]
        Qc = Q[members][:, comp]
        reason[members], root[members] = _settle(A, coef, Qa[members], off, Qc)
        left = reason[members] == 0
        if left.any():
            own.append(members[left])
            H.append(_homogenized(A._tails, coef[left], Qa[members[left]], k))
            HS.append(_homogenized(tails, off[left], Qc[left] + SLACK_TOL, k))
    U, owner = root[~np.isnan(root), None], np.flatnonzero(~np.isnan(root))  # scalar roots
    if own:
        own, H = np.concatenate(own), np.concatenate(H)
        HS = np.concatenate([H, np.concatenate(HS)], axis=1) if comp else H
        with np.errstate(over="ignore"):  # an inf or NaN rho clears nothing
            rho, rho_s = (2.0**-30 * np.abs(D).reshape(len(D), -1).sum(axis=1) for D in (H, HS))
        # the systems the enclosure does not take keep one leaf, the simplex
        stop = np.where(H[0].size > _SCAN_ENTRIES, 3, np.where(rho < np.inf, 0, 4)).astype(np.int8)
        leaf, W = np.arange(len(H)), np.repeat(np.eye(k + 1)[None], len(H), axis=0)
        go = stop == 0
        if go.any():
            cut, Wc, stop_c = _subdivide(H, None, rho, "m1", _clearing(_signs(k)),
                                         _SHALLOW, leaf[go], W[go])
            stop[go] = stop_c[go]
            leaf, W = np.concatenate([leaf[~go], cut]), np.concatenate([W[~go], Wc])
        c = W.mean(axis=2)  # a leaf is full-dimensional, so c_t > 0
        X, r = _refine_rows(sub, Qa, c[:, :k] / c[:, k:], own[leaf])
        found = np.flatnonzero(r <= SYS_TOL)
        found = found[_dedup(X[found], own[leaf[found]])]
        U, owner = X[found], own[leaf[found]]
    slack = np.zeros((len(U), 0))
    if comp and len(U):
        X = np.zeros((len(U), Q.shape[1]))
        X[:, a] = U
        slack = forms.m1(X, owner)[:, comp] + Q[owner][:, comp]
    feasible = (slack >= -SLACK_TOL).all(axis=1)
    if len(own):
        unsettled = np.ones(S, dtype=bool)
        unsettled[owner[feasible]] = False
        unsettled = unsettled[own]  # of the systems j enclosed, those with no feasible root
        deep = unsettled[leaf] & ((stop[leaf] == 0) | (stop[leaf] == 1) & bool(comp))
        if deep.any():
            more, Wd, stop_d = _subdivide(HS, None, rho_s, "m1", _clearing(_signs(k)),
                                          _CLEAR_DEPTH - _SHALLOW, leaf[deep], W[deep])
            stop[leaf[deep]] = stop_d[leaf[deep]]
            leaf, W = np.concatenate([leaf[~deep], more]), np.concatenate([W[~deep], Wd])
        V = np.swapaxes(W, 1, 2)  # vertices as rows
        p, v = np.nonzero((V[:, :, k] == 0) & unsettled[leaf][:, None])  # on t = 0
        with np.errstate(over="ignore", invalid="ignore"):
            zero = np.abs(sub.m1(V[p, v, :k], own[leaf[p]])).max(axis=1) <= rho[leaf[p]]
        at_infinity = np.zeros(len(H), dtype=bool)
        at_infinity[leaf[p][zero]] = True
        cleared = unsettled & (np.bincount(leaf, minlength=len(H)) == 0)
        reason[own[unsettled]] = np.where(cleared, _ENCLOSED, np.where(
            at_infinity & (stop < 3), _INFINITE, _STOP + stop))[unsettled]
    return _Scans(U, owner, slack, feasible, reason)


def scan_system(A: Tensor, q) -> SystemScan:
    """Search for all nonnegative roots of A u^{m-1} + q = 0."""
    return _system_scan(_scan_stack(_Forms([A]), np.asarray(q, dtype=float)[None],
                                    list(range(A.dim))), 0)


def _system_scan(s: _Scans, i: int) -> SystemScan:
    """The SystemScan of the system i of a stack's scans."""
    return SystemScan(list(s.roots[s.owner == i]), bool(0 < s.reason[i] < _COMPLETE),
                      _REASONS[s.reason[i]], bool(s.reason[i] == _COMPLETE))


def walk_supports(forms: _Forms, Q, live=None):
    """Scan every complementary support alpha of {1..n} for every instance
    (A, q) of a stack at once, A the tensors of forms (of one order and
    dimension n) and q the rows of Q, by increasing size and
    lexicographically within a size, yielding (alpha, U, slack, owner,
    open_) as arrays over the stack.

    The rows of U are the roots u_alpha >= 0 of A_aa u^{m-1} + q_a = 0 of
    the instances owner, by instance, whose slack rows A_{comp,a} u^{m-1} +
    q_comp are >= -SLACK_TOL; each gives a solution (u_alpha, 0) of TCP(q,
    A).  open_[t] is 0 when the scan of the support (_scan_stack, one stack
    per support, every instance with what it gets alone) proves instance t
    has no other feasible root: the sign test or the enclosure settles it,
    or its root list is complete.  Else it codes (_REASONS) the scan's
    reason, or that the roots found are not proved all.  The generator is
    lazy, so a caller may stop at the first feasible root.  live, a boolean
    array over the instances that the caller may clear between yields,
    drops instances: from the next support on only the live ones are
    scanned (a dropped one gets no root and the reason "not scanned"), with
    the forms of the live ones (_Forms.take), and the walk ends when none is
    live.
    """
    Q, rows = np.asarray(Q, dtype=float), None
    n, live = Q.shape[1], np.ones(len(Q), dtype=bool) if live is None else live
    for r in range(n + 1):
        for members in itertools.combinations(range(1, n + 1), r):
            if not live.any():
                return
            alpha, open_ = IndexSet(members, n), np.full(len(Q), _UNSCANNED, dtype=np.int8)
            if r == 0:
                owner = np.flatnonzero((Q >= -SLACK_TOL).all(axis=1))
                yield alpha, np.zeros((len(owner), 0)), Q[owner], owner, np.zeros_like(open_)
                continue
            if rows is None or not np.array_equal(rows, np.flatnonzero(live)):
                rows = np.flatnonzero(live)
                sub = forms if len(rows) == len(Q) else forms.take(rows)
            s = _scan_stack(sub, Q[rows], [i - 1 for i in members])
            open_[rows] = _WALK[s.reason]
            yield alpha, s.roots[s.feasible], s.slack[s.feasible], rows[s.owner[s.feasible]], open_
