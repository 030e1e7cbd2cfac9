"""A scalar splitmix64 stream with Box-Muller normals, one draw at a time.

The reference the package's stacked draws must reproduce bit for bit.  It
imports no draw code from tcpkit: the generator, the normals and the sphere
points are written out here, with each sum of squares added in component
order.  The per-trial probe references in the tests draw from it.
"""

import math

import numpy as np

from tcpkit.tensor import tensor_from_dense

MASK = (1 << 64) - 1
INC = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * MIX1) & MASK
    z = ((z ^ (z >> 27)) * MIX2) & MASK
    return z ^ (z >> 31)


def unmix(out: int) -> int:
    """The z with mix(z) == out: xorshifts undone, odd multipliers inverted."""
    def unshift(y, s):
        z = y
        for _ in range(64 // s + 1):
            z = y ^ (z >> s)
        return z

    z = unshift(out, 31)
    z = unshift((z * pow(MIX2, -1, 1 << 64)) & MASK, 27)
    return unshift((z * pow(MIX1, -1, 1 << 64)) & MASK, 30)


class Stream:
    def __init__(self, state: int, cache: float | None = None):
        self.state, self.cache = state & MASK, cache

    def next_u64(self) -> int:
        self.state = (self.state + INC) & MASK
        return mix(self.state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * (1.0 / (1 << 53)))

    def normal(self) -> float:
        if self.cache is not None:
            g, self.cache = self.cache, None
            return g
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self.cache = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def on_sphere(self, k: int) -> list[float]:
        while True:
            v = [self.normal() for _ in range(k)]
            sq = 0.0
            for c in v:
                sq = sq + c * c
            nrm = math.sqrt(sq)
            if nrm > 1e-12:
                return [c / nrm for c in v]

    def spawn(self, salt: int) -> "Stream":
        return Stream(self.next_u64() ^ (salt * INC & MASK))


def trial_streams(seed: int, trials: int) -> list:
    """The stream of every trial t: the seed's stream spawned with t + 1."""
    rng = Stream(seed)
    return [rng.spawn(t + 1) for t in range(trials)]


def draw_perturbation(stream: Stream, n: int, shape: tuple, eps: float):
    """(dq, dA) on a random ray, with ||dq|| + ||dA||_F = eps * U(0, 1)."""
    if eps == 0.0:
        return np.zeros(n), np.zeros(shape)
    direction = np.array(stream.on_sphere(n + int(np.prod(shape))))
    dq, dA = direction[:n], direction[n:].reshape(shape)
    scale = eps * stream.uniform() / float(np.linalg.norm(dq) + np.linalg.norm(dA))
    return dq * scale, dA * scale


def perturbed_tensor(A, dA):
    return tensor_from_dense(A.to_dense() + dA)
