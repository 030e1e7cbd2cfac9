"""Minimisation over the standard simplex, for one objective or a stack.

The barycentric lattice, the Euclidean projection onto the simplex, the
row-batched projected gradient descent every basis search polishes with,
and the stacked basis minimisation: tensors of one order and dimension
score the lattice each on its own, then all their starts descend together,
each row scored with its own tensor's coefficients, so every tensor gets
the bits it gets alone.  ``classify`` builds its verdicts on these.  The
Bernstein subdivision of sub-simplices (``_subdivide``) encloses forms on
a simplex: it decides the probes' gates and the support scan's systems.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ._forms import _Forms
from .tensor import ShapeError


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


def _combine(L: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The rows of L @ G.T, as a fixed-order sum over the columns of G: each
    row gets the bits it gets alone, which a matrix product does not promise
    once the stack height changes."""
    return sum(L[:, j, None] * G[:, j] for j in range(G.shape[1]))


_RUNGS = 30  # backtracking steps tried per descent step
_FIRST_RUNGS = 3  # rungs scored for every moving row
_RUNG_POINTS = 1024  # candidate points scored per call past the first rungs


def descend_on_simplex(f, grad, Lam0: np.ndarray, iters: int):
    """Projected gradient descent of f on the standard simplex, from every
    row of the (S, k) array Lam0 at once.  f(X, rows) maps (R, k) points to
    (R,) values and grad(X, rows) to (R, k) gradients, where rows holds the
    index in Lam0 of the start each point descends from, so one call can
    descend rows of different objectives (the stacked basis minimisation
    scores each row with its own tensor).

    Each row steps on its own: it backtracks from its last accepted step
    length t through the 30 rungs t, t/2, t/4, ... and accepts the first
    strict decrease of f at a point on the simplex (its sum within 1e-9 of
    1, which the projection of a huge step misses); an accepted step length
    doubles for the next step (capped at 1e6).  A row stops when ||grad||
    <= 1e-14 (or is NaN) or no rung decreases f.  The first 3 rungs of
    every moving row are scored in one call, then the next rungs of the
    rows that took none, in pieces of about 1 024 points, until every row
    took one or ran out; a row is charged the evaluations the
    one-rung-at-a-time rule makes: its accepted rung + 1, or 30.  f must
    give each row the value it gets alone.
    Returns (rows, their f values, evaluations of f per row).
    """
    lam = np.array(Lam0, dtype=float)
    val = f(lam, np.arange(len(lam)))
    evals = np.ones(len(lam), dtype=int)
    step = np.ones(len(lam))
    active = np.ones(len(lam), dtype=bool)
    k = lam.shape[1]
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
        first = np.full(R, _RUNGS)  # the first accepted rung; _RUNGS when none is
        new_lam, new_val, new_t = np.empty((R, k)), np.empty(R), np.empty(R)
        t = step[rows]  # the first rung not scored yet, of every row
        left, lo = np.arange(R), 0  # the rows that took no rung yet
        while len(left) and lo < _RUNGS:
            hi = _FIRST_RUNGS if lo == 0 else min(_RUNGS, lo + max(1, _RUNG_POINTS // len(left)))
            T = np.full((len(left), hi - lo), 0.5)
            T[:, 0] = t[left]
            T = np.cumprod(T, axis=1)  # repeated halving: each rung has the one-rung rule's bits
            V = lam[rows[left], None] - T[:, :, None] * g[left, None]
            cand = _project_simplex(V.reshape(-1, k)).reshape(V.shape)
            fc = f(cand.reshape(-1, k), np.repeat(rows[left], hi - lo)).reshape(len(left), -1)
            # a huge step cancels in the projection and leaves the simplex: no decrease
            ok = (fc < val[rows[left], None]) & (np.abs(cand.sum(axis=2) - 1.0) <= 1e-9)
            took = ok.any(axis=1)
            j, hit = np.argmax(ok, axis=1)[took], left[took]
            first[hit] = lo + j
            new_lam[hit], new_val[hit], new_t[hit] = cand[took, j], fc[took, j], T[took, j]
            t[left] = 0.5 * T[:, -1]
            left, lo = left[~took], hi
        took = first < _RUNGS
        evals[rows] += np.where(took, first + 1, _RUNGS)
        done = rows[took]
        lam[done], val[done] = new_lam[took], new_val[took]
        step[done] = np.minimum(2.0 * new_t[took], 1e6)
        active[rows[~took]] = False
    return lam, val, evals


class _Objective:
    """Smooth surrogates of the three basis objectives for a stack of tensors
    of one order and dimension: row r of X is scored with the tensor
    tensors[own[r]].

    value(X, own) is what the polish minimizes (A x^m, ||A x^{m-1}||^2 or
    (A x^m)^2); from_internal maps it to the contract value (A x^m,
    ||A x^{m-1}|| or |A x^m|).
    """

    def __init__(self, kind: str, tensors):
        if kind not in ("xm", "norm_m1", "abs_xm"):
            raise ValueError(f"unknown objective {kind!r}")
        self.kind = kind
        self.forms = _Forms(tensors)

    def value(self, X: np.ndarray, own: np.ndarray) -> np.ndarray:
        F = self.forms.m1(X, own)
        if self.kind == "norm_m1":
            return np.vecdot(F, F)
        xm = np.vecdot(X, F)
        return xm * xm if self.kind == "abs_xm" else xm

    def grad(self, X: np.ndarray, own: np.ndarray) -> np.ndarray:
        F, J = self.forms.eval(X, own, jac=True)
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


def _basis(K, n: int) -> np.ndarray:
    """The normalized generators of K, the vertices of its basis, as the
    columns of an (n, k) array."""
    if K.dim != n:
        raise ShapeError(f"cone of dimension {K.dim}, tensor of dimension {n}")
    gens = [np.asarray(g, float) / np.linalg.norm(g) for g in K.generators]
    if not gens:
        raise ValueError("cone has no generators")
    return np.column_stack(gens)


def _min_over_stack(objective: str, tensors, K, budget):
    """[min_over_basis(objective, A, K, budget) for A in tensors], tensors of
    one order and dimension.  Each tensor scores the lattice on its own; then
    the starts of every tensor are polished in one descent, each row scored
    with its own tensor's coefficients, so every tensor gets the bits it
    gets alone.  A tensor with an entry of 2^64 or more is searched scaled
    by a power of two to entries below 1, so no square or step overflows,
    and its value is scaled back."""
    G = _basis(K, tensors[0].dim)
    if K.is_orthant:  # G is the identity; + 0.0 turns -0.0 into +0.0 as _combine does
        to_x = to_lam = lambda L: L + 0.0
    else:
        to_x, to_lam = (lambda L: _combine(L, G)), (lambda X: _combine(X, G.T))

    lattice = _simplex_lattice(G.shape[1], budget.resolution_for(G.shape[1]))
    X = to_x(lattice)
    c = min(budget.multistarts, len(X))  # starts per tensor
    top = [math.frexp(np.abs(A._coef).max(initial=0.0))[1] for A in tensors]
    shift = [e if e > 64 else 0 for e in top]  # an entry of 2^64 or more has exponent 65
    obj = _Objective(objective, [A.scale(2.0 ** -e) if e else A for A, e in zip(tensors, shift)])
    best, starts = [], []
    for s in range(len(tensors)):
        vals = obj.from_internal(obj.value(X, np.full(len(X), s)))
        order = np.argsort(vals, kind="stable")
        best.append((float(vals[order[0]]), X[order[0]]))
        starts.append(lattice[order[:c]])
    owner = np.repeat(np.arange(len(tensors)), c)
    lam, f, used = descend_on_simplex(lambda L, rows: obj.value(to_x(L), owner[rows]),
                                      lambda L, rows: to_lam(obj.grad(to_x(L), owner[rows])),
                                      np.concatenate(starts), budget.polish_iters)
    v = obj.from_internal(f).reshape(len(tensors), c)
    out = []
    for s in range(len(tensors)):
        j = int(np.argmin(v[s]))
        if v[s, j] < best[s][0] - 1e-15:
            best[s] = float(v[s, j]), to_x(lam[s * c + j:s * c + j + 1])[0]
        with np.errstate(over="ignore"):  # a value past the largest float is inf
            value = float(np.ldexp(best[s][0], shift[s]))
        out.append((value, best[s][1], len(X) + int(used[s * c:(s + 1) * c].sum())))
    return out


_CLEAR_DEPTH = 30  # rounds of bounds and cuts, at most: every vertex stays dyadic
_CLEAR_LEAVES = 64  # open leaves per tensor, at most
_CLEAR_ENTRIES = 2**8  # dense entries (n^m and k^m) of a tensor the enclosure takes, at most
_CLEAR_SCALE = 2.0**8  # sum of |entries| of a tensor the enclosure takes, at most
_CLEAR_BLOCK = 2**14  # transformed-tensor entries per block of leaves


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
    Vb = V.reshape((P,) + (1,) * (dense.ndim - 3) + (n, k))
    T = dense
    for _ in range(dense.ndim - 2):
        T = np.moveaxis(T @ Vb, -1, 2)
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
    B = T @ _class_means(k, r)
    vertices = np.ravel_multi_index((np.arange(k),) * r, (k,) * r)  # the tuples (j, ..., j)
    return B.min(axis=2), B.max(axis=2), T[:, :, vertices]


def _bisect(W: np.ndarray) -> np.ndarray:
    """Both halves of every leaf W[p] (vertices as columns, in simplex
    coordinates) cut at the midpoint of its longest edge (the first in
    order among equals), the halves of W[p] at rows 2p and 2p + 1."""
    P, k, _ = W.shape
    D = W[:, :, :, None] - W[:, :, None, :]
    a, b = np.divmod(np.argmax((D * D).sum(axis=1).reshape(P, k * k), axis=1), k)
    mid = 0.5 * (W[np.arange(P), :, a] + W[np.arange(P), :, b])
    halves = np.stack([W, W], axis=1)
    halves[np.arange(P), 0, :, a] = mid
    halves[np.arange(P), 1, :, b] = mid
    return halves.reshape(2 * P, k, k)


@np.errstate(over="ignore", invalid="ignore")
def _subdivide(dense, G, rho, form: str, clears, depth: int, owner, W):
    """Bernstein subdivision of the leaves W[p] (vertices as columns, in the
    simplex coordinates of the basis G) of the tensors dense[owner[p]], for
    at most depth rounds (Bundfuss and Duer, Linear Algebra Appl. 428, 2008;
    Mourrain and Pavone, J. Symbolic Comput. 44, 2009).

    Each round takes every leaf's Bernstein coefficients of form
    (_bernstein), in blocks of about _CLEAR_BLOCK entries.  A leaf clears,
    and is dropped, when clears(lo, hi, r) holds for some component, r =
    rho[owner] moving each coefficient against the rule; an inf or NaN rho
    clears nothing.  A tensor stops with code 1 when a vertex of one of its
    leaves clears under no component (no leaf around it can clear), and
    with code 2 when more than _CLEAR_LEAVES leaves would be open; its open
    leaves are kept as they are.  The others are cut in two (_bisect).
    Every leaf is bounded on its own, so a tensor gets the leaves it gets
    alone.  Returns (owner, W) of the open leaves, each tensor's in one run,
    and the stop code of every tensor (0 when it ran every round)."""
    stop = np.zeros(len(dense), dtype=np.int8)
    frozen = [(owner[:0], W[:0])]
    step = max(1, _CLEAR_BLOCK // max(dense[0].size, W.shape[1] ** (dense.ndim - 1)))
    for _ in range(depth):
        if not len(owner):
            break
        done, dead = np.empty(len(owner), dtype=bool), np.empty(len(owner), dtype=bool)
        for s in range(0, len(owner), step):
            lo, hi, vert = _bernstein(dense[owner[s:s + step]], G @ W[s:s + step], form)
            r = rho[owner[s:s + step], None]
            done[s:s + step] = clears(lo, hi, r).any(axis=1)
            dead[s:s + step] = ~clears(vert, vert, r[:, :, None]).any(axis=1).all(axis=1)
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


def _bernstein_clears(objective: str, tensors, K, margin: float) -> np.ndarray:
    """Which tensors of the stack provably hold under the basis objective's
    verdict rule, one bool per tensor: those whose every leaf clears in the
    subdivision (_subdivide) of the basis simplex, for at most _CLEAR_DEPTH
    rounds.

    A leaf clears when, each coefficient moved against the rule by rho =
    2^-30 sum|a|,
      xm: every coefficient of A x^m is >= -margin/2;
      abs_xm: every coefficient of A x^m is >= 2 margin, or every one is
        <= -2 margin;
      norm_m1: for some i, every coefficient of (A x^{m-1})_i is >= 2
        margin, or every one is <= -2 margin.
    rho bounds the rounding of the coefficients and of the descent's
    evaluations, sums of at most _CLEAR_ENTRIES products of coordinates of
    modulus <= 1; the slack to the verdicts' thresholds (-margin, and
    margin) covers the descent's points summing to 1 only up to rounding,
    which scales a value by (sum x)^m.  So a cleared tensor also holds by
    _min_over_stack.  A tensor past _CLEAR_ENTRIES dense entries, or past a
    sum of |entries| of _CLEAR_SCALE, where the descent's steps may leave
    the simplex by more than rounding (and its squares overflow), is left
    open."""
    G = _basis(K, tensors[0].dim)
    (n, k), m = G.shape, tensors[0].order
    alive = np.zeros(len(tensors), dtype=bool)
    if max(n, k) ** m > _CLEAR_ENTRIES:
        return alive
    dense = np.array([A.to_dense() for A in tensors])
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.abs(dense).reshape(len(tensors), -1).sum(axis=1)
    alive = scale <= _CLEAR_SCALE  # False at NaN
    c = -0.5 * margin if objective == "xm" else 2.0 * margin

    def clears(lo, hi, r):  # per component: its coefficients lo..hi clear c
        up = lo - r >= c
        return up if objective == "xm" else up | (hi + r <= -c)

    owner = np.flatnonzero(alive)
    owner = _subdivide(dense, G, 2.0**-30 * scale, "m1" if objective == "norm_m1" else "xm",
                       clears, _CLEAR_DEPTH, owner,
                       np.repeat(np.eye(k)[None], len(owner), axis=0))[0]
    alive[owner] = False  # a tensor with a leaf left open
    return alive
