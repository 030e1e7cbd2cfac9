"""The root-box grid of a scan, scored in the power basis from its axis.

The grid of a system A u^{m-1} + q = 0 over a box [0, R]^k is the product
of one axis.  A monotone enclosure of each component over each block of
the grid (_block_bounds) bounds the residual there, so only the blocks
that can hold one of the best points are scored (_contract), and one
stable selection picks them (_grid_picks).  Every function takes a stack
of systems whose tensors share _tails, each with its own q and axis, and
gives each system the bits it gets alone.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _power_coefficients


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
def _block_bounds(C: np.ndarray, Q: np.ndarray, P: np.ndarray):
    """Lower and upper bounds on the residual max_i |(A u^{m-1} + q)_i| over
    each block of the grid of every system s of a stack, as two arrays of
    shape (S,) + (nb,) * k: P (S, nb, b, m) holds the powers of the points of
    the nb blocks of system s's axis, sorted, C (k, S) + (m,) * k the
    power-basis coefficients component first and Q (S, k) the q's.

    On u >= 0 every monomial is monotone, so over a block [l, h]^k component
    i lies in [C+_i(l) + C-_i(h) + q_i, C+_i(h) + C-_i(l) + q_i], C+ and C-
    being the sign parts of C; both ends are widened by 1e-12 (|C_i|(h) +
    |q_i|), far above the rounding error of either bound or of a point
    value from _contract.  An overflow gives NaN or infinite bounds."""
    k = C.ndim - 2
    qk = Q.T.reshape(Q.shape[::-1] + (1,) * k)
    signed = np.concatenate([np.maximum(C, 0.0), np.minimum(C, 0.0)])
    at_l = _contract(signed, [P[:, :, 0]] * k)
    at_h = _contract(signed, [P[:, :, -1]] * k)
    err = 1e-12 * (at_h[:k] - at_h[k:] + np.abs(qk))
    lo = at_l[:k] + at_h[k:] + qk - err
    hi = at_h[:k] + at_l[k:] + qk + err
    return np.maximum(np.maximum(lo, -hi), 0.0).max(axis=0), np.maximum(-lo, hi).max(axis=0)


def _grid_picks(A: Tensor, coef: np.ndarray, Q: np.ndarray, axes: np.ndarray, N: int):
    """For every system s of a stack (the tensor coef[s] with A's tails and
    q = Q[s]): the raveled indices in its grid axes[s]^k of its N points of
    least residual, ties by index, and its least residual; exactly
    np.argsort(r, kind="stable")[:N] and r.min() of the residuals r that
    _contract gives on the full axis.  Returns (list of index arrays, array
    of least residuals).

    Each axis is cut into blocks, and only the points of the blocks that can
    hold one of the N are scored: with tau the least upper bound at which
    the blocks at or below it hold N points, a block whose lower bound
    exceeds tau holds only points past the N-th.  A NaN bound keeps its
    block, so after an overflow every block of its system is scored.  The
    blocks of every system are bounded together and the kept ones scored
    together, each tagged with its system; then a lexsort of each system's
    run of points by residual and index picks its N."""
    k, (S, g) = A.dim, axes.shape
    C = np.moveaxis(_power_coefficients(A, coef), -1, 0)
    b = math.isqrt(g // 2)  # 32 blocks per axis at g = 512, 14 at g = 66
    nb = -(-g // b)
    pos = np.arange(nb * b).reshape(nb, b)  # the last block is padded with the last point
    P = axes[:, np.minimum(pos, g - 1), None] ** np.arange(C.shape[2])
    low, up = _block_bounds(C, Q, P)

    up = up.reshape(S, -1)
    width = np.minimum(b, g - b * np.arange(nb))  # points of each block of the axis
    counts = math.prod(np.ix_(*[width] * k)).ravel()
    order = np.argsort(up, axis=1)  # NaN last
    reach = np.cumsum(counts[order], axis=1) >= N
    at = np.arange(S)
    tau = up[at, order[at, np.argmax(reach, axis=1)]]
    tau[~reach[:, -1]] = np.inf
    J = np.argwhere(~(low > tau.reshape((S,) + (1,) * k)))  # sorted by system, then block

    own = J[:, 0]
    r = _contract(C[:, own], [P[own, J[:, 1 + d]] for d in range(k)])
    r += Q[own].T.reshape((k, -1) + (1,) * k)
    r = np.abs(r, out=r).max(axis=0)
    flat, valid = 0, True
    for d in range(k):
        c = pos[J[:, 1 + d]].reshape((-1,) + (1,) * d + (b,) + (1,) * (k - 1 - d))
        flat, valid = flat * g + c, valid & (c < g)
    flat, r = np.broadcast_to(flat, r.shape)[valid], r[valid]
    # each system's points are one run of r; its N are a stable sort of that run
    sizes = np.bincount(own, math.prod(width[J[:, 1 + d]] for d in range(k)), S).astype(np.intp)
    first = np.cumsum(sizes) - sizes
    return ([flat[i:j][np.lexsort((flat[i:j], r[i:j]))[:N]] for i, j in zip(first, first + sizes)],
            np.minimum.reduceat(r, first))  # NaN wins, as in r.min()
