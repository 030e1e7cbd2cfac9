"""Root search for the per-support systems A u^{m-1} + q = 0, u >= 0.

This is the workhorse behind complementary-cone membership and the
enumeration solver.  Every system is homogenized: G(u, t) = A u^{m-1} +
q t^{m-1} vanishes on the standard simplex of R^{k+1}_+ exactly when the
system has a root u >= 0 (at u / t), or a root at infinity on the orthant
(on the face t = 0).  The scan of a stack of systems runs

  * componentwise sign analysis (exact infeasibility certificates when all
    coefficients of a component share a sign) and the scalar closed form,
  * a shallow Bernstein subdivision of that simplex (_simplex._subdivide,
    _SHALLOW cuts), whose open leaves' centroids, mapped to u = c_u / c_t,
    are the starts of
  * one row-batched damped projected Newton refinement of every open
    system's starts, each row with its own system's coefficients, and
  * for the systems Newton found no root of, the subdivision continued to
    _simplex._CLEAR_DEPTH cuts: when every leaf clears, the system is
    certified infeasible.

The sign test and Newton read the tensor's frozen form; the enclosure
reads its homogenized dense array.  A scan left open names why (_OPEN and
_AT_INFINITY).  ``_scan_stack`` is the package's one search for nonnegative
roots: besides the support walk, ``compcones.tpos_contains`` scans with it
the systems of its image-cone membership, lifted to the cone's generators.

``walk_supports`` runs these scans over the complementary supports and
applies the slack test, and a sign test of the slack rows settles a
support no root of which can be feasible; membership and the enumeration
solver both read it.  It walks a stack of instances at once: the
instances whose tensors share ``_tails`` (the groups of ``_Forms``) cut
their sub-systems once per support (``_Forms.cut``), and every system of
the stack is scanned as one stack.  Every instance gets the bits it gets
alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._forms import _Forms
from ._simplex import _CLEAR_DEPTH, _NEWTON_ITERS, _clearing, _subdivide, damped_newton
from .tensor import IndexSet, Tensor, apply_off

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
    certified_infeasible: bool = False
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


def _homogenized(A: Tensor, coef: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The dense arrays of G(u, t) = A u^{m-1} + q t^{m-1} for the tensors
    coef[s] with A's tails and q = Q[s]: shape (S, k) + (k + 1,) * (m - 1),
    the last index of each trailing axis standing for t."""
    k = A.dim
    H = np.zeros((len(coef), k) + (k + 1,) * (A.order - 1))
    H[(slice(None), slice(None)) + tuple(A._tails.T)] = np.swapaxes(coef, 1, 2)
    H[(slice(None), slice(None)) + (k,) * (A.order - 1)] = Q
    return H


def _clears(lo, hi, r):
    """A component whose coefficients, moved by r, are all > 0 or all < 0."""
    return (lo - r > 0) | (hi + r < 0)


def min_sphere_norm(A: Tensor) -> float:
    """A lower bound on min ||A v^{m-1}|| over unit v >= 0, 0 when none is
    shown.  On that sphere ||A v^{m-1}||_2 >= ||A s^{m-1}||_inf at s = v /
    |v|_1, which the subdivision of the simplex (_subdivide) shows >= c when
    every leaf has a component whose coefficients, moved by 2^-30 sum|a|,
    are all >= c or all <= -c; c is the first of 2^(e-1), ..., 2^(e-40)
    it shows, 2^e > sum|a|."""
    dense = A.to_dense()[None]
    with np.errstate(over="ignore"):
        scale = np.abs(dense).sum()
    if 0.0 < scale < math.inf:
        top, rho, k = math.frexp(scale)[1], np.array([2.0**-30 * scale]), A.dim
        for c in 2.0 ** np.arange(top - 1, top - 41, -1):
            if not len(_subdivide(dense, np.eye(k), rho, "m1",
                                  _clearing(lambda lo, hi, r: (lo - r >= c) | (hi + r <= -c)),
                                  _CLEAR_DEPTH, np.zeros(1, dtype=np.intp), np.eye(k)[None])[0]):
                return float(c)
    return 0.0


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


def _settle(A: Tensor, coef: np.ndarray, Q: np.ndarray, scans: list) -> list:
    """The part of the scans of one group (the tensors coef[s] with A's
    tails, q = Q[s]) that needs no enclosure: the sign test, the scalar
    closed form and q = 0 settle scans[s] in place.  Returns the positions
    of the scans left open."""
    sign = _sign_infeasible(coef, Q)
    left = []
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
        elif float(np.linalg.norm(Q[s])) <= SYS_TOL:
            scan.roots = [np.zeros(A.dim)]
        else:
            left.append(s)
    return left


def _scan_stack(forms: _Forms, Q: np.ndarray) -> list[SystemScan]:
    """[scan_system(A, q) for A, q in zip(tensors, Q)], for the tensors of
    forms (of one order and dimension k): each group settles what needs no
    enclosure (_settle); the homogenized systems left open are subdivided
    _SHALLOW cuts deep as one stack, and the centroids c of their open
    leaves, at u = c_u / c_t, are refined in one damped Newton, each row
    with its own system's coefficients.  The systems with no root are cut
    on, to _CLEAR_DEPTH cuts in all, unless their subdivision stopped: a
    system whose every leaf clears is certified infeasible, any other names
    why it is open.  Every scan gets the bits it gets alone.  The enclosure
    may overflow, which only leaves a scan open, so it raises no warning;
    the Newton stage runs under the caller's np.errstate."""
    scans = [SystemScan() for _ in Q]
    own, H = [], []
    for g, (A, coef) in enumerate(forms.groups):
        members = np.flatnonzero(forms.group == g)
        left = _settle(A, coef, Q[members], [scans[i] for i in members])
        own.extend(members[left])
        H.append(_homogenized(A, coef[left], Q[members[left]]))
    if not own:
        return scans
    own, H, k = np.array(own), np.concatenate(H), forms.groups[0][0].dim
    with np.errstate(over="ignore"):  # an inf or NaN rho clears nothing
        rho = 2.0**-30 * np.abs(H).reshape(len(H), -1).sum(axis=1)
    # the systems the enclosure does not take keep one leaf, the simplex
    stop = np.where(H[0].size > _SCAN_ENTRIES, 3, np.where(rho < math.inf, 0, 4)).astype(np.int8)
    leaf, W = np.arange(len(H)), np.repeat(np.eye(k + 1)[None], len(H), axis=0)
    go = stop == 0
    if go.any():
        cut, Wc, stop_c = _subdivide(H, np.eye(k + 1), rho, "m1", _clearing(_clears), _SHALLOW,
                                     leaf[go], W[go])
        stop[go] = stop_c[go]
        leaf, W = np.concatenate([leaf[~go], cut]), np.concatenate([W[~go], Wc])
    c = W.mean(axis=2)  # a leaf is full-dimensional, so c_t > 0
    X, r = _refine_rows(forms, Q, c[:, :k] / c[:, k:], own[leaf])
    rootless = []
    for j, i in enumerate(own):
        mine = leaf == j
        roots = X[mine][r[mine] <= SYS_TOL]
        scans[i].roots = list(roots[_dedup(roots)])
        if not scans[i].roots:
            rootless.append(j)
    deep = np.isin(leaf, rootless) & (stop[leaf] == 0)
    if deep.any():
        more, Wd, stop_d = _subdivide(H, np.eye(k + 1), rho, "m1", _clearing(_clears),
                                      _CLEAR_DEPTH - _SHALLOW, leaf[deep], W[deep])
        stop = np.maximum(stop, stop_d)
        leaf, W = np.concatenate([leaf[~deep], more]), np.concatenate([W[~deep], Wd])
    V = np.swapaxes(W, 1, 2)  # vertices as rows
    p, v = np.nonzero((V[:, :, k] == 0) & np.isin(leaf, rootless)[:, None])  # on t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        zero = np.abs(forms.m1(V[p, v, :k], own[leaf[p]])).max(axis=1) <= rho[leaf[p]]
    at_infinity = np.isin(np.arange(len(H)), leaf[p][zero]) & (stop < 3)
    for j in rootless:
        scan = scans[own[j]]
        if not (leaf == j).any():
            scan.certified_infeasible = True
            scan.reason = "Bernstein enclosure"
        else:
            scan.reason = _AT_INFINITY if at_infinity[j] else _OPEN[int(stop[j])]
    return scans


def scan_system(A: Tensor, q) -> SystemScan:
    """Search for all nonnegative roots of A u^{m-1} + q = 0."""
    return _scan_stack(_Forms([A]), np.asarray(q, dtype=float)[None])[0]


def walk_supports(tensors, qs, live=None):
    """Scan every complementary support alpha of {1..n} for every instance
    (A, q) of a stack at once (tensors of one order and dimension n), by
    increasing size and lexicographically within a size, yielding (alpha,
    feasible, open_) with one entry per instance in each list.

    feasible lists the (u_alpha, slack) pairs with u_alpha >= 0 a root of
    A_aa u^{m-1} + q_a = 0 whose slack A_{comp,a} u^{m-1} + q_comp is
    >= -SLACK_TOL; each one gives a solution (u_alpha, 0) of TCP(q, A).
    open_ is "" when the scan proves no other feasible root exists (the
    system is certified infeasible, its root list is complete, or a slack
    row is negative at every u >= 0, _slack_infeasible), and otherwise says
    why the support is open: the scan's reason, or that its roots were
    found but the list is not proved complete.
    Each support cuts the sub-forms of each group of instances that share
    _tails once (_Forms.cut) and scans them as one stack (_scan_stack), so
    every instance gets what it gets alone.  The generator is lazy, so a
    caller may stop at the first feasible root.  live, a boolean array over
    the instances that the caller may clear between yields, drops instances:
    from the next support on only the live ones are scanned (a dropped one
    gets no root and the reason "not scanned"), and the walk ends when none
    is live.
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
            a, comp = [i - 1 for i in members], [i - 1 for i in alpha.complement]
            feasible, open_ = [[] for _ in qs], ["not scanned"] * len(qs)
            ruled_out = _slack_infeasible(forms, a, comp, Q[rows])
            for i, out, scan in zip(rows, ruled_out, _scan_stack(forms.cut(a), Q[rows][:, a])):
                for u_a in scan.roots:
                    slack = apply_off(tensors[i], alpha, u_a) + qs[i][comp] if comp else np.zeros(0)
                    if np.all(slack >= -SLACK_TOL):
                        feasible[i].append((u_a, slack))
                open_[i] = "" if out or scan.certified_infeasible or scan.roots_complete else (
                    scan.reason or "roots found, " + ("" if feasible[i] else "none feasible, ")
                    + "list not proved complete")
            yield alpha, feasible, open_
