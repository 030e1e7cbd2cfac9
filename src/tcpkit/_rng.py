"""Deterministic 64-bit PRNG used by every sampling routine in the package.

A splitmix-style generator is used instead of ``numpy.random`` so that
reports are bit-identical for a given seed across platforms, numpy versions
and Python versions.  Constants are the usual splitmix64 ones:

    increment  0x9E3779B97F4A7C15
    mixer 1    0xBF58476D1CE4E5B9
    mixer 2    0x94D049BB133111EB

The j-th next output of a stream is a pure function of its state plus j
increments (Steele, Lea and Flood, OOPSLA 2014), so the stacked draws
(_uniform_stack, _sphere_stack) compute the next outputs of many streams at
once in wrapping uint64 arithmetic, and leave each stream where the same
scalar calls would.  Their log, cos and sin are math's, applied element by
element, and a sum of squares is added in component order: the bits do not
depend on numpy's vector math or on the builtin sum, which compensates
since Python 3.12.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_INC = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Splitmix64 sequence with helpers for floats, spheres and balls."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK
        self._gauss_cache: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _INC) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi) built from the top 53 bits."""
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u * (1.0 / (1 << 53)))

    def on_sphere(self, k: int) -> list[float]:
        """Uniform point on the unit sphere in R^k (_sphere_stack of one)."""
        return _sphere_stack([self], 1, k)[0, 0].tolist()

    def spawn(self, salt: int) -> "SplitMix64":
        """Independent child stream; deterministic in (state, salt)."""
        return SplitMix64(self.next_u64() ^ (salt * _INC & _MASK))


def _uniforms(states: np.ndarray, count: int) -> np.ndarray:
    """(T, count): the next count uniform() draws in [0, 1) from each uint64
    state, without advancing anything."""
    z = states[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _INC
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return ((z ^ (z >> 31)) >> 11) * (1.0 / (1 << 53))


def _uniform_stack(streams, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """(T, count): count uniform(lo, hi) calls on each stream."""
    u = _uniforms(np.array([s._state for s in streams], dtype=np.uint64), count)
    for s in streams:
        s._state = (s._state + count * _INC) & _MASK
    return lo + (hi - lo) * u


def _normal_stack(streams, count: int) -> np.ndarray:
    """(T, count): count standard normals from each stream by Box-Muller, as
    the scalar rule draws them: the cached deviate first, then r cos and
    r sin of pairs (u1, u2), u1 redrawn while it is 0, and a sine left
    unused goes to the cache."""
    cached = np.array([s._gauss_cache is not None for s in streams], dtype=bool)
    pairs = (count - cached + 1) // 2
    P = int(pairs.max(initial=0))
    U = _uniforms(np.array([s._state for s in streams], dtype=np.uint64), 2 * P)
    used = np.arange(P) < pairs[:, None]
    ends = [(s._state + 2 * int(p) * _INC) & _MASK for s, p in zip(streams, pairs)]
    for t in np.flatnonzero(np.any(used & (U[:, ::2] == 0.0), axis=1)):
        s, row = SplitMix64(0), []  # a u1 of 0: draw this row one uniform at a time
        s._state = streams[t]._state
        while len(row) < 2 * pairs[t]:
            u1 = s.uniform()
            if u1 > 0.0:
                row += [u1, s.uniform()]
        U[t, :len(row)], ends[t] = row, s._state
    u1 = np.where(used, U[:, ::2], 1.0)  # log(1) for the pairs a stream does not use
    r = np.sqrt(-2.0 * np.array(list(map(math.log, u1.ravel().tolist())))).reshape(u1.shape)
    theta = (2.0 * math.pi * U[:, 1::2]).ravel().tolist()
    N = np.zeros((len(streams), 2 * P + 2))  # [cache, cos, sin, cos, ..., sin, unused]
    N[:, 1:-1:2] = r * np.reshape(list(map(math.cos, theta)), r.shape)
    N[:, 2:-1:2] = r * np.reshape(list(map(math.sin, theta)), r.shape)
    N[:, 0] = [s._gauss_cache if c else 0.0 for s, c in zip(streams, cached)]
    out = np.where(cached[:, None], N[:, :count], N[:, 1:count + 1])
    for t, s in enumerate(streams):
        s._state = ends[t]
        s._gauss_cache = float(N[t, 2 * pairs[t]]) if (count - cached[t]) % 2 else None
    return out


def _sphere_stack(streams, reps: int, k: int) -> np.ndarray:
    """(T, reps, k): reps successive uniform points on the unit sphere in R^k
    from each stream, k normals scaled by their norm, redrawn while the norm
    is <= 1e-12."""
    entry = [(s._state, s._gauss_cache) for s in streams]
    V = _normal_stack(streams, reps * k).reshape(len(streams), reps, k)
    norms = _norms(V)
    for t in np.flatnonzero(np.any(norms <= 1e-12, axis=1)):
        s = streams[t]  # a rejected draw: redraw this stream one sphere at a time
        s._state, s._gauss_cache = entry[t]
        for r in range(reps):
            norms[t, r] = 0.0
            while norms[t, r] <= 1e-12:
                V[t, r] = _normal_stack([s], k)[0]
                norms[t, r] = _norms(V[t, r])
    return V / norms[..., None]


def _norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, the squares added in order (an
    accumulate is sequential; a reduce may pair its terms)."""
    return np.sqrt(np.cumsum(V * V, axis=-1)[..., -1])
