"""Bernstein enclosures of forms on simplices, and the one damped Newton.

A form of degree d on a sub-simplex (a leaf) with vertices V is sum_alpha
b_alpha B_alpha(lam) at x = V lam, the Bernstein polynomials B_alpha >= 0
summing to 1 on the simplex: its least and greatest coefficient bound it
on the leaf, and its coefficients at the vertices are its values there.
``_subdivide`` cuts leaves at the midpoint of their longest edge until
each clears a rule or its tensor stops.  It is the package's one search
over a simplex: ``_enclose`` decides the classifiers on the basis of a
cone, ``classify`` the dual test of S_A on the faces of the simplex, and
``_polysys`` the support scan's homogenized systems and its sphere bound.
``damped_newton`` is the one Newton loop: the support scan, the min-map
refinement and the polish of the enclosures' points (``_polish``) run on
it.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ._forms import _Forms
from .tensor import ShapeError

_CLEAR_DEPTH = 30  # rounds of bounds and cuts, at most: every vertex stays dyadic
_CLEAR_LEAVES = 64  # open leaves per tensor, at most
_CLEAR_ENTRIES = 2**10  # dense entries (n^m and k^m) of a tensor the enclosure takes, at most
_CLEAR_BLOCK = 2**14  # transformed-tensor entries per block of leaves
_NEWTON_ITERS = 60  # damped Newton steps from each start
MARGIN = 1e-6  # the verdicts' decision margin; every clear rule and threshold is a multiple of it


def _basis(K, n: int) -> np.ndarray:
    """The normalized generators of K, the vertices of its basis, as the
    columns of an (n, k) array."""
    if K.dim != n:
        raise ShapeError(f"cone of dimension {K.dim}, tensor of dimension {n}")
    gens = [np.asarray(g, float) / np.linalg.norm(g) for g in K.generators]
    if not gens:
        raise ValueError("cone has no generators")
    return np.column_stack(gens)


@functools.cache
def _class_means(k: int, r: int) -> np.ndarray:
    """The (k^r, C) matrix that averages the entries of a k^r tensor over
    each class of index tuples equal up to order: the product with it is
    the symmetrised tensor, one column per multiset of indices."""
    idx = np.sort(np.array(list(itertools.product(range(k), repeat=r))), axis=1)
    _, cls = np.unique(idx, axis=0, return_inverse=True)
    M = np.zeros((len(idx), cls.max() + 1))
    M[np.arange(len(idx)), cls] = 1.0 / np.bincount(cls)[cls]
    M.flags.writeable = False  # cached, so shared by every call
    return M


def _lift(dense: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The tensors dense[p] (n^m, or one tensor broadcast as a stack of one)
    with every trailing index contracted with V[p], an (n, k) matrix: the
    (P, n, k, ..., k) stack B[p]_{i j...} = sum_l A_{i l...} V_{l j} ..., so
    B[p] lam^{m-1} = A (V[p] lam)^{m-1}."""
    P, n, k = V.shape
    d = dense.ndim
    Vb, T = V.reshape((P,) + (1,) * (d - 3) + (n, k)), dense
    for _ in range(d - 2):
        T = (T @ Vb).transpose(0, 1, d - 1, *range(2, d - 1))  # the new axis to position 2
    return T


def _bernstein(dense: np.ndarray, V: np.ndarray, form: str):
    """Bernstein coefficients on the leaves with vertices V[p] (columns):
    of A x^m (form "xm", one component) or of every component of A x^{m-1}
    ("m1"), A = dense[p].  A form of degree d is sum_alpha b_alpha
    B_alpha(lam) at x = V lam, with B_alpha >= 0 summing to 1 on the
    simplex and b_alpha the entries of the symmetrised tensor A x_1 V ...
    x_d V.  Returns (min, max) of each component's coefficients and the
    coefficients at the vertices, shapes (P, c) and (P, c, k)."""
    P, n, k = V.shape
    m = dense.ndim - 1
    T, r = _lift(dense, V), m - 1
    if form == "xm":  # contract the first index too
        T, r = np.moveaxis(T, 1, -1) @ V.reshape((P,) + (1,) * (m - 2) + (n, k)), m
    T = T.reshape(P, -1, k**r)
    # reductions here, in _bisect and in _clearing run over the leading axes of a copy:
    # the same bits as over many short rows (B, a sum from +0.0, holds no -0.0)
    B = np.ascontiguousarray((T @ _class_means(k, r)).transpose(2, 0, 1))
    vertices = np.ravel_multi_index((np.arange(k),) * r, (k,) * r)  # the tuples (j, ..., j)
    return B.min(axis=0), B.max(axis=0), T[:, :, vertices]


@functools.cache
def _edges(k: int) -> np.ndarray:
    """The vertex pairs (a, b), a < b, of a simplex of k vertices, in
    row-major order (k = 1: its one pair (0, 0)), as the rows of a (2, E)
    array."""
    E = np.array([*itertools.combinations(range(k), 2)] or [(0, 0)]).T
    E.flags.writeable = False  # cached, so shared by every call
    return E


def _bisect(W: np.ndarray) -> np.ndarray:
    """Both halves of every leaf W[p] (vertices as columns, in simplex
    coordinates) cut at the midpoint of its longest edge (the first (a, b)
    in row-major order among equals), the halves of W[p] at rows 2p and
    2p + 1.  Only the edges a < b are scored (_edges): (b, a) has the same
    length and comes later."""
    k, p = W.shape[1], np.arange(len(W))
    V = np.ascontiguousarray(W.transpose(1, 0, 2))  # coordinates first
    a, b = _edges(k)
    D = V[:, :, a] - V[:, :, b]
    j = np.argmax((D * D).sum(axis=0), axis=1)
    a, b = a[j], b[j]
    halves = np.stack([W, W], axis=1)
    halves[p, 0, :, a] = halves[p, 1, :, b] = 0.5 * (W[p, :, a] + W[p, :, b])  # the midpoint
    return halves.reshape(-1, k, k)


def _blocks(dense, G, form: str, owner, W):
    """(block, lo, hi, vert) of _bernstein on the leaves W[p] of the tensors
    dense[owner[p]], in blocks of about _CLEAR_BLOCK transformed entries; G
    None is the identity basis."""
    step = max(1, _CLEAR_BLOCK // max(dense[0].size, W.shape[1] ** (dense.ndim - 1)))
    for s in range(0, len(owner), step):
        block = slice(s, s + step)
        yield (block, *_bernstein(dense[owner[block]], W[block] if G is None else G @ W[block],
                                  form))


def _clearing(clears):
    """The rule of _subdivide for a test clears(lo, hi, r) of every
    component: a leaf clears when some component does, and stops its tensor
    when one of its vertices clears under no component, so no leaf around
    it can clear."""
    def rule(lo, hi, vert, r, _owner, _W):
        return (np.ascontiguousarray(clears(lo, hi, r).T).any(axis=0),
                ~np.ascontiguousarray(clears(vert, vert, r[:, :, None]).T).any(axis=1).all(axis=0))
    return rule


def _signs(k: int):
    """The test of _clearing for systems of k equations (0 at a point sought)
    above slack rows (>= 0 there): an equation clears a leaf when its
    coefficients, moved by r, are all > 0 or all < 0; a slack row, < -r."""
    def clears(lo, hi, r):
        out = hi + r < 0
        out[:, :k] |= (lo - r > 0)[:, :k]
        return out
    return clears


@np.errstate(over="ignore", invalid="ignore")
def _subdivide(dense, G, rho, form: str, rule, depth: int, owner, W):
    """Bernstein subdivision of the leaves W[p] (vertices as columns, in the
    simplex coordinates of the basis G, None for the identity) of the
    tensors dense[owner[p]], for
    at most depth rounds (Bundfuss and Duer, Linear Algebra Appl. 428, 2008;
    Mourrain and Pavone, J. Symbolic Comput. 44, 2009).

    Each round takes every leaf's Bernstein coefficients of form
    (_bernstein, in _blocks) and reads rule(lo, hi, vert, r, owner, W) on
    every block: which leaves clear, and are dropped, and which stop their
    tensor with code 1; r = rho[owner] (one slack per tensor, or one per
    component) moves each coefficient against the rule, so an inf or NaN
    rho clears nothing (_clearing builds the rule of a per-component test).
    A tensor also stops, with code 2, when more than _CLEAR_LEAVES leaves
    would be open; a stopped tensor's open leaves are kept as they are.
    The others are cut in two (_bisect).  Every leaf is bounded and read on
    its own, so a tensor gets the leaves it gets alone.  Returns (owner, W)
    of the open leaves, each tensor's in one run, and the stop code of every
    tensor (0 when it ran every round)."""
    stop = np.zeros(len(dense), dtype=np.int8)
    frozen = [(owner[:0], W[:0])]
    for _ in range(depth):
        if not len(owner):
            break
        done, dead = np.empty((2, len(owner)), dtype=bool)
        for block, lo, hi, vert in _blocks(dense, G, form, owner, W):
            done[block], dead[block] = rule(lo, hi, vert, rho[owner[block]].reshape(len(lo), -1),
                                            owner[block], W[block])
        stop[owner[dead]] = 1
        keep = ~done
        stop[(np.bincount(owner[keep], minlength=len(dense)) > _CLEAR_LEAVES // 2) & (stop == 0)] = 2
        held = keep & (stop[owner] > 0)
        frozen.append((owner[held], W[held]))
        keep &= ~held
        owner, W = np.repeat(owner[keep], 2), _bisect(W[keep])
    owner, W = (np.concatenate(a) for a in zip(*frozen, (owner, W)))
    order = np.argsort(owner, kind="stable")
    return owner[order], W[order], stop


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


@np.errstate(over="ignore", invalid="ignore")
def _polish(forms: _Forms, own, G, L0, rows=None):
    """Damped Newton (_NEWTON_ITERS steps) from every start L0[s], the
    simplex coordinates of x = G[s] lam, toward a zero of the form
    x.A x^{m-1} (rows None) or a common zero of the components rows[s] of
    A x^{m-1}, A the tensor own[s] of forms.  Every set of p = min(k - 1, R)
    of the R components (the form is one) is a square system in p unknowns:
    the shifts of lam along the gradients of its components at the start,
    projected on the plane sum lam = 1 of the start's face.  Returns the
    start of every system and its end point, clamped to lam >= 0 and
    rescaled to sum 1."""
    Q, k = L0.shape
    R = 1 if rows is None else rows.shape[1]
    sets = np.array(list(itertools.combinations(range(R), min(k - 1, R))), dtype=np.intp)
    start = np.repeat(np.arange(Q), len(sets))
    if k == 1:
        return start, L0[start]
    pick = None if rows is None else np.take_along_axis(rows[start], np.tile(sets, (Q, 1)), axis=1)
    G, own, L0 = G[start], own[start], L0[start]

    def at(L, i):  # the chosen components at lam = L of the systems i, and their lam-gradients
        X = (G[i] @ L[:, :, None])[:, :, 0]
        F, J = forms.eval(X, own[i], jac=True)
        if pick is None:
            F, J = np.vecdot(X, F)[:, None], (F + (X[:, None, :] @ J)[:, 0])[:, None]
        else:
            F, J = (np.take_along_axis(F, pick[i], axis=1),
                    np.take_along_axis(J, pick[i][:, :, None], axis=1))
        return F, J @ G[i]

    g, on = at(L0, np.arange(len(L0)))[1], (L0 > 0)[:, None, :]  # on: the start's face
    g = np.where(on, g - (g * on).sum(axis=2, keepdims=True) / on.sum(axis=2, keepdims=True), 0.0)
    D = np.swapaxes(g, 1, 2)  # (systems, k, p)

    def point(Z, i):
        return L0[i] + (D[i] @ Z[:, :, None])[:, :, 0]

    Z, _ = damped_newton(lambda Z, i: at(point(Z, i), i)[0],
                         lambda Z, i: at(point(Z, i), i)[1] @ D[i],
                         np.zeros((len(L0), sets.shape[1])), _NEWTON_ITERS, 0.0)
    L = np.maximum(point(Z, np.arange(len(L0))), 0.0)
    return start, L / L.sum(axis=1, keepdims=True)


def _objective(objective: str, F, X=None):
    """The basis objective from the components F of A x^{m-1} on axis 1 at
    the points X, or (X None) from the values F of A x^m: A x^m ("xm"),
    |A x^m| ("abs_xm") or ||A x^{m-1}||_2 ("norm_m1", by hypot, which
    overflows only past the largest float)."""
    if objective == "norm_m1":
        return np.hypot.reduce(np.abs(F), axis=1)
    xm = F if X is None else np.vecdot(X, F)
    return np.abs(xm) if objective == "abs_xm" else xm


@np.errstate(over="ignore", invalid="ignore")
def _enclose(objective: str, D: np.ndarray, K):
    """Branch and bound of a basis objective (_objective) over the basis of
    K for the (T, n, ..., n) stack D of dense tensors, each with what it
    gets alone: (value, x, evaluations, lower) of each.

    A leaf's bound is the least coefficient of A x^m (xm), or the greatest
    distance from 0 of a component's coefficients of one sign (abs_xm, of
    A x^m; norm_m1, of A x^{m-1}), each moved against it by rho = 2^-30
    sum|a|.  A leaf clears at a bound >= 2 MARGIN (abs_xm, norm_m1), or for
    xm > MARGIN, or >= -MARGIN/2 once one of its vertices is at most MARGIN.
    A tensor stops at a vertex no leaf around which can clear (_subdivide).
    lower, the least bound of a leaf cleared or left open, bounds the
    minimum from below.  value, at the point x (the lexicographically
    first among equals), is the least objective at a leaf vertex or at a
    point _polish reaches from the best vertex and the centroid of each
    open leaf, when the best value is above where the verdicts fail (0 for
    xm, MARGIN/1000).  evaluations counts the leaves bounded.  Each
    coefficient sums at most _CLEAR_ENTRIES products of an entry with
    coordinates of modulus <= 1 (the basis vectors are unit, a
    leaf's vertices their convex combinations), so its rounding error is
    below 2^-40 sum|a| <= rho.  A tensor past _CLEAR_ENTRIES dense entries
    (n^m or k^m) is not subdivided: lower is -inf, and value the least at a
    basis vertex."""
    G = _basis(K, D.shape[1])
    (n, k), m, T = G.shape, D.ndim - 1, len(D)
    best, lam = np.full(T, np.inf), np.zeros((T, k))
    used, lower, owner, W = np.zeros(T, dtype=int), np.full(T, -np.inf), np.arange(0), None
    form = "m1" if objective == "norm_m1" else "xm"

    def keep(s, own, L):  # each tensor's least candidate s at lam = L, lexicographically first
        if len(s):
            order = np.lexsort((*L.T[::-1], s, own))
            first = order[np.r_[True, own[order][1:] != own[order][:-1]]]
            t, s, L = own[first], s[first], L[first]
            j = np.argmax(L != lam[t], axis=1)  # the first coordinate where L differs from the best
            better = (s < best[t]) | ((s == best[t]) & (L[np.arange(len(t)), j] < lam[t, j]))
            best[t[better]], lam[t[better]] = s[better], L[better]

    if max(n, k) ** m > _CLEAR_ENTRIES:
        own, X = np.repeat(np.arange(T), k), np.tile(G.T, (T, 1))
        keep(_objective(objective, _Forms.dense(D).m1(X, own), X), own, np.tile(np.eye(k), (T, 1)))
    else:
        rho = 2.0**-30 * np.abs(D).reshape(T, -1).sum(axis=1)
        lower[:] = np.inf

        def bound(lo, hi, r):  # of every leaf, or of every vertex (on a last axis)
            if objective == "xm":
                return (lo - r)[:, 0]
            return np.maximum(np.maximum(lo - r, -hi - r), 0.0).max(axis=1)

        def rule(lo, hi, vert, r, own, W):
            keep(_objective(objective, vert if form == "m1" else vert[:, 0]).ravel(),
                 np.repeat(own, k), np.swapaxes(W, 1, 2).reshape(-1, k))
            used[:] += np.bincount(own, minlength=T)
            b, v = bound(lo, hi, r), bound(vert, vert, r[:, :, None])
            if objective == "xm":
                done = (b > MARGIN) | ((v.min(axis=1) <= MARGIN) & (b >= -0.5 * MARGIN))
                dead = (v < -0.5 * MARGIN).any(axis=1)
            else:
                done, dead = b >= 2.0 * MARGIN, (v < 2.0 * MARGIN).any(axis=1)
            np.minimum.at(lower, own[done], b[done])
            return done, dead

        owner, W, _ = _subdivide(D, G, rho, form, rule, _CLEAR_DEPTH, np.arange(T),
                                 np.repeat(np.eye(k)[None], T, axis=0))
        for block, lo, hi, vert in _blocks(D, G, form, owner, W):  # the leaves left open
            r = rho[owner[block], None]
            rule(lo, hi, vert, r, owner[block], W[block])
            np.minimum.at(lower, owner[block], bound(lo, hi, r))
    polish = (np.bincount(owner, minlength=T) > 0) & (best > (0.0 if objective == "xm" else 1e-3 * MARGIN))
    p = np.flatnonzero(polish)
    if len(p):  # on the tensors scaled by powers of two to entries below 1, so nothing overflows
        shift = np.frexp(np.abs(D[p]).reshape(len(p), -1).max(axis=1))[1]
        forms = _Forms.dense(D[p] * np.ldexp(1.0, -shift).reshape((-1,) + (1,) * m))
        slot = np.cumsum(polish) - 1
        own = np.concatenate([np.arange(len(p)), slot[owner[polish[owner]]]])
        start, L = _polish(forms, own, np.broadcast_to(G, (len(own), n, k)),
                           np.concatenate([lam[p], W[polish[owner]].mean(axis=2)]),
                           None if form == "xm" else np.tile(np.arange(n), (len(own), 1)))
        X, own = L @ G.T, own[start]
        keep(np.ldexp(_objective(objective, forms.m1(X, own), X), shift[own]), p[own], L)
    return [(float(best[t]), G @ lam[t], int(used[t]), float(lower[t])) for t in range(T)]
