"""Deterministic 64-bit PRNG used by every sampling routine in the package.

A splitmix-style generator is used instead of ``numpy.random`` so that
reports are bit-identical for a given seed across platforms, numpy versions
and Python versions.  Constants are the usual splitmix64 ones:

    increment  0x9E3779B97F4A7C15
    mixer 1    0xBF58476D1CE4E5B9
    mixer 2    0x94D049BB133111EB

The j-th next output of a stream is a pure function of its state plus j
increments (Steele, Lea and Flood, OOPSLA 2014).  So many streams are one
struct of arrays (``_Streams``: the uint64 states and each stream's cached
Box-Muller deviate), which the stacked draws (_uniform_stack, _normal_stack,
_sphere_stack) read and advance in wrapping uint64 arithmetic, leaving each
stream where the same scalar ``SplitMix64`` calls would; ``_trial_streams``
spawns the streams of a probe's trials in one step.  Their log, cos and sin
are math's, applied element by element, and a sum of squares is added in
component order: the bits do not depend on numpy's vector math or on the
builtin sum, which compensates since Python 3.12.
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
        return self.stacked(_sphere_stack, 1, k)[0].tolist()

    def spawn(self, salt: int) -> "SplitMix64":
        """Independent child stream; deterministic in (state, salt)."""
        return SplitMix64(self.next_u64() ^ (salt * _INC & _MASK))

    def stacked(self, draw, *args) -> np.ndarray:
        """draw(streams, *args) (a stacked draw) on this stream alone, which
        moves on as the draw leaves it: the row of its one stream."""
        s = _Streams(np.array([self._state], dtype=np.uint64),
                     np.array([math.nan if self._gauss_cache is None else self._gauss_cache]))
        out = draw(s, *args)[0]
        self._state, cache = int(s.state[0]), float(s.cache[0])
        self._gauss_cache = None if math.isnan(cache) else cache
        return out


class _Streams:
    """T splitmix64 streams as arrays: the uint64 state of each and its
    cached Box-Muller deviate, NaN for none (a deviate is always finite).
    streams[rows] is a copy of some, and streams[rows] = sub writes them
    back."""

    def __init__(self, state: np.ndarray, cache: np.ndarray):
        self.state, self.cache = state, cache

    def __len__(self) -> int:
        return len(self.state)

    def __getitem__(self, rows) -> "_Streams":
        return _Streams(self.state[rows].copy(), self.cache[rows].copy())

    def __setitem__(self, rows, sub: "_Streams"):
        self.state[rows], self.cache[rows] = sub.state, sub.cache


def _outputs(states: np.ndarray, count: int) -> np.ndarray:
    """(T, count): the next count next_u64() outputs of each uint64 state,
    without advancing anything."""
    z = states[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _INC
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


def _uniforms(states: np.ndarray, count: int) -> np.ndarray:
    """(T, count): the next count uniform() draws in [0, 1) from each uint64
    state, without advancing anything."""
    return (_outputs(states, count) >> 11) * (1.0 / (1 << 53))


def _trial_streams(seed: int, trials: int) -> _Streams:
    """The streams SplitMix64(seed).spawn(t + 1) of the trials t < trials:
    the parent's outputs, each xor its salt."""
    salt = np.arange(1, trials + 1, dtype=np.uint64) * _INC
    state = _outputs(np.array([int(seed) & _MASK], dtype=np.uint64), trials)[0] ^ salt
    return _Streams(state, np.full(trials, math.nan))


def _uniform_stack(s: _Streams, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """(T, count): count uniform(lo, hi) calls on each stream."""
    u = _uniforms(s.state, count)
    s.state = s.state + np.uint64(count * _INC & _MASK)
    return lo + (hi - lo) * u


def _normal_stack(s: _Streams, count: int) -> np.ndarray:
    """(T, count): count standard normals from each stream by Box-Muller, as
    the scalar rule draws them: the cached deviate first, then r cos and
    r sin of pairs (u1, u2), u1 redrawn while it is 0, and a sine left
    unused goes to the cache."""
    T, cached = len(s), ~np.isnan(s.cache)
    pairs = (count - cached + 1) // 2
    P = int(pairs.max(initial=0))
    U = _uniforms(s.state, 2 * P)
    used = np.arange(P) < pairs[:, None]
    ends = s.state + (2 * pairs).astype(np.uint64) * _INC
    for t in np.flatnonzero(np.any(used & (U[:, ::2] == 0.0), axis=1)):
        rng, row = SplitMix64(int(s.state[t])), []  # a u1 of 0: this row one uniform at a time
        while len(row) < 2 * pairs[t]:
            u1 = rng.uniform()
            if u1 > 0.0:
                row += [u1, rng.uniform()]
        U[t, :len(row)], ends[t] = row, rng._state
    r = np.sqrt(-2.0 * _each(math.log, np.where(used, U[:, ::2], 1.0)))  # log(1): a pair unused
    theta = 2.0 * math.pi * U[:, 1::2]
    N = np.zeros((T, 2 * P + 2))  # [cache, cos, sin, cos, ..., sin, unused]
    N[:, 1:-1:2] = r * _each(math.cos, theta)
    N[:, 2:-1:2] = r * _each(math.sin, theta)
    N[:, 0] = np.where(cached, s.cache, 0.0)
    out = np.where(cached[:, None], N[:, :count], N[:, 1:count + 1])
    s.state = ends
    s.cache = np.where((count - cached) % 2 == 1, N[np.arange(T), 2 * pairs], math.nan)
    return out


def _sphere_stack(s: _Streams, reps: int, k: int) -> np.ndarray:
    """(T, reps, k): reps successive uniform points on the unit sphere in R^k
    from each stream, k normals scaled by their norm, redrawn while the norm
    is <= 1e-12."""
    entry = s[:]  # a copy
    V = _normal_stack(s, reps * k).reshape(len(s), reps, k)
    norms = _norms(V)
    for t in np.flatnonzero(np.any(norms <= 1e-12, axis=1)):
        one = entry[[t]]  # a rejected draw: redraw this stream one sphere at a time
        for r in range(reps):
            norms[t, r] = 0.0
            while norms[t, r] <= 1e-12:
                V[t, r] = _normal_stack(one, k)[0]
                norms[t, r] = _norms(V[t, r])
        s[[t]] = one
    return V / norms[..., None]


def _each(f, X: np.ndarray) -> np.ndarray:
    """f, a function of math, applied to every entry of X one at a time."""
    return np.fromiter(map(f, X.ravel().tolist()), float, X.size).reshape(X.shape)


def _norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, the squares added in order (an
    accumulate is sequential; a reduce may pair its terms)."""
    return np.sqrt(np.cumsum(V * V, axis=-1)[..., -1])
