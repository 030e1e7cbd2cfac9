"""The root-box grid of a scan, scored in the power basis from its axis.

The grid of a system A u^{m-1} + q = 0 over a box [0, R]^k is the product
of one axis.  A monotone enclosure of each component over each block of
the grid (_block_bounds) bounds the residual there, so only the blocks
that can hold one of the best points are kept (_kept): coarse blocks of
_COARSE blocks per axis first, then the blocks inside the kept coarse
ones.  The points of the kept blocks are scored (_contract), and one
stable selection picks them (_grid_picks).  Every function takes a stack
of systems whose tensors share _tails, each with its own q and axis, and
gives each system the bits it gets alone.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _power_coefficients

_COARSE = 4  # fine blocks per coarse block, on each axis


@np.errstate(over="ignore", invalid="ignore")
def _contract(C: np.ndarray, P: list) -> np.ndarray:
    """sum_e C[:, s, e] prod_d P[d][s, :, e_d] at every point of S boxes at once.

    C holds power-basis coefficients component first, shape (n, S) + (m,) * k
    (or (n, 1) + (m,) * k for coefficients every box shares), and P[d], of
    shape (S, b, m), the powers 0..m-1 of box s's points on axis d; the
    result has shape (n, S) + (b,) * k.  Each axis is contracted by
    elementwise products summed over its exponent in order, so a point gets
    the same bits in every box that holds it (a matrix product would not)."""
    k, m = len(P), C.shape[2]
    T = C
    for d in reversed(range(k)):  # T is (n, S, e_0..e_d, a_{d+1}..a_{k-1})
        S, b, _ = P[d].shape
        Pd = np.moveaxis(P[d], 2, 0).reshape((m, 1, S) + (1,) * d + (b,) + (1,) * (k - 1 - d))
        at = (slice(None),) * (2 + d)
        F = T[at + (slice(0, 1),)] * Pd[0]
        for e in range(1, m):
            F += T[at + (slice(e, e + 1),)] * Pd[e]
        T = F
    return T


@np.errstate(over="ignore", invalid="ignore")
def _block_bounds(C: np.ndarray, Q: np.ndarray, lows: list, highs: list):
    """Lower and upper bounds on the residual max_i |(A u^{m-1} + q)_i| over
    each block of a grid of every box s of a stack, as two arrays of shape
    (S, nb_0, ..., nb_{k-1}): lows[d] and highs[d], of shape (S, nb_d, m),
    hold the powers of the first and the last point of each of box s's
    blocks on axis d, C (k, S) + (m,) * k the power-basis coefficients
    component first and Q (S, k) the q's.

    On u >= 0 every monomial is monotone, so over a block [l, h] component
    i lies in [C+_i(l) + C-_i(h) + q_i, C+_i(h) + C-_i(l) + q_i], C+ and C-
    being the sign parts of C; both ends are widened by 1e-12 (|C_i|(h) +
    |q_i|), far above the rounding error of either bound or of a point
    value from _contract.  An overflow gives NaN or infinite bounds."""
    k = C.ndim - 2
    qk = Q.T.reshape(Q.shape[::-1] + (1,) * k)
    signed = np.concatenate([np.maximum(C, 0.0), np.minimum(C, 0.0)])
    at_l = _contract(signed, lows)
    at_h = _contract(signed, highs)
    err = 1e-12 * (at_h[:k] - at_h[k:] + np.abs(qk))
    lo = at_l[:k] + at_h[k:] + qk - err
    hi = at_h[:k] + at_l[k:] + qk + err
    return np.maximum(np.maximum(lo, -hi), 0.0).max(axis=0), np.maximum(-lo, hi).max(axis=0)


def _kept(low: np.ndarray, up: np.ndarray, widths: np.ndarray, own: np.ndarray, N: int):
    """The blocks that can hold one of the N points of least residual of
    their system, as the rows (box, block index on each axis) of np.argwhere:
    low and up bound the blocks of every box r, shape (K,) + (c,) * k,
    widths[r, d] holds the points of box r's blocks on axis d (0 for a
    block past the grid's end) and own[r], nondecreasing, its system.

    tau is, per system, the least upper bound at which its blocks at or
    below it hold N points (inf when all of them hold fewer); a block whose
    lower bound exceeds tau holds only points past the N-th.  A NaN upper
    bound sorts last and may give a NaN tau, and a NaN bound keeps its
    block."""
    K, k = low.shape[0], low.ndim - 1
    counts = math.prod(widths[:, d].reshape((K,) + (1,) * d + (-1,) + (1,) * (k - 1 - d))
                       for d in range(k))
    system = np.repeat(own, counts[0].size)
    order = np.lexsort((up.ravel(), system))  # by system, then upper bound, NaN last
    runs = np.bincount(own, minlength=own[-1] + 1) * counts[0].size
    start = np.cumsum(runs) - runs
    before = np.cumsum(counts.ravel()[order])
    before = before - np.r_[0, before][start][system]  # points of the run up to each block
    short = np.bincount(system[before < N], minlength=len(runs))  # the blocks before tau's
    tau = np.full(len(runs), np.inf)
    reached = short < runs
    tau[reached] = up.ravel()[order[(start + short)[reached]]]
    return np.argwhere(~(low > tau[own].reshape((K,) + (1,) * k)) & (counts > 0))


def _grid_picks(A: Tensor, coef: np.ndarray, Q: np.ndarray, axes: np.ndarray, N: int):
    """For every system s of a stack (the tensor coef[s] with A's tails and
    q = Q[s]): the raveled indices in its grid axes[s]^k of its N points of
    least residual, ties by index, and its least residual; exactly
    np.argsort(r, kind="stable")[:N] and r.min() of the residuals r that
    _contract gives on the full axis.  Returns (list of index arrays, array
    of least residuals).

    Each axis is cut into fine blocks, _COARSE of which make a coarse
    block, and only the points of the blocks that can hold one of the N
    are scored (_kept): first the coarse blocks of every system are
    bounded, then the fine blocks inside the kept coarse ones, and the
    points of the kept fine blocks are scored, each tagged with its
    system.  A point dropped at either level lies past the N-th of its
    system, so a lexsort of each system's run of points by residual and
    index picks its N."""
    k, (S, g) = A.dim, axes.shape
    C = np.moveaxis(_power_coefficients(A, coef), -1, 0)
    P = axes[:, :, None] ** np.arange(C.shape[2])  # the powers of every point
    b = math.isqrt(g // 2)  # points per fine block: 32 blocks per axis at g = 512, 14 at g = 66
    nb = -(-g // b)
    first = np.arange(-(-nb // _COARSE)) * (_COARSE * b)  # the first point of each coarse block
    last = np.minimum(first + _COARSE * b, g) - 1
    low, up = _block_bounds(C, Q, [P[:, first]] * k, [P[:, last]] * k)
    J = _kept(low, up, np.broadcast_to(last + 1 - first, (S, k, len(first))), np.arange(S), N)

    own = J[:, 0]
    f = _COARSE * J[:, 1:, None] + np.arange(_COARSE)  # the fine blocks of each kept coarse block
    fc = np.minimum(f, nb - 1) * b  # a ragged coarse block's missing ones repeat its last
    low, up = _block_bounds(C[:, own], Q[own], [P[own[:, None], fc[:, d]] for d in range(k)],
                            [P[own[:, None], np.minimum(fc[:, d] + b, g) - 1] for d in range(k)])
    width = np.where(f < nb, np.minimum(b, g - b * f), 0)
    J = _kept(low, up, width, own, N)

    box, own = J[:, 0], own[J[:, 0]]
    starts = [b * f[box, d, J[:, 1 + d]] for d in range(k)]
    pts = [s[:, None] + np.arange(b) for s in starts]  # past the grid's end on a ragged block
    r = _contract(C[:, own], [P[own[:, None], np.minimum(p, g - 1)] for p in pts])
    r += Q[own].T.reshape((k, -1) + (1,) * k)
    r = np.abs(r, out=r).max(axis=0)
    flat, valid = 0, True
    for d, p in enumerate(pts):
        c = p.reshape((-1,) + (1,) * d + (b,) + (1,) * (k - 1 - d))
        flat, valid = flat * g + c, valid & (c < g)
    flat, r = np.broadcast_to(flat, r.shape)[valid], r[valid]
    # each system's points are one run of r; its N are a stable sort of that run
    sizes = np.bincount(own, math.prod(np.minimum(b, g - s) for s in starts), S).astype(np.intp)
    first = np.cumsum(sizes) - sizes
    return ([flat[i:j][np.lexsort((flat[i:j], r[i:j]))[:N]] for i, j in zip(first, first + sizes)],
            np.minimum.reduceat(r, first))  # NaN wins, as in r.min()
