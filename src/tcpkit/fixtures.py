"""Named fixture corpus: small hand-built tensors, cone fixtures, and
seeded random tensor generators.

Fixture names are stable identifiers used by the CLI; the entry lists are
frozen and byte-stable across runs.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from ._rng import SplitMix64
from .cones import PolyhedralCone, from_generators, orthant
from .tensor import Tensor, unit_tensor

__all__ = [
    "E1",
    "E2",
    "E3_bar",
    "E3_family",
    "E4",
    "identity",
    "fixture",
    "fixture_names",
    "cone_fixture",
    "random_tensor",
]


def E1() -> Tensor:
    """m=3, n=2; the six unit entries with mixed index patterns."""
    ones = [(1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 1)]
    return Tensor(3, 2, {idx: 1.0 for idx in ones})


def E2() -> Tensor:
    """m=3, n=2; singular on the orthant along (1, 0)."""
    ones = [(1, 1, 2), (1, 2, 1), (2, 2, 1), (2, 1, 2)]
    return Tensor(3, 2, {idx: 1.0 for idx in ones})


def E3_bar() -> Tensor:
    """The limit matrix [[1, -2], [1, -2]] as an order-2 tensor."""
    return Tensor(2, 2, {(1, 1): 1.0, (1, 2): -2.0, (2, 1): 1.0, (2, 2): -2.0})


def E3_family(l: int) -> Tensor:
    """Member l >= 1 of the converging family: entry (1,2) moved to -2 - 1/l."""
    if l < 1:
        raise ValueError("family index must be >= 1")
    return Tensor(2, 2, {(1, 1): 1.0, (1, 2): -2.0 - 1.0 / l,
                         (2, 1): 1.0, (2, 2): -2.0})


def E4() -> Tensor:
    """m=3, n=2; copositive but not strictly, all principal parts nonsingular."""
    return Tensor(3, 2, {(1, 1, 1): 1.0, (2, 2, 2): 1.0,
                         (1, 1, 2): -1.0, (1, 2, 2): -1.0})


def identity(m: int, n: int) -> Tensor:
    return unit_tensor(m, n)


_NAMED = {
    "E1": E1,
    "E2": E2,
    "E3": E3_bar,
    "E4": E4,
}

_IDENTITY_RE = re.compile(r"^identity(\d)(\d+)$")
_E3L_RE = re.compile(r"^E3l(\d+)$")
_RANDOM_RE = re.compile(r"^(general|symmetric|subsymmetric|copositive)-m(\d)n(\d+)s(\d+)$")


def fixture(name: str) -> Tensor:
    """Look up a tensor fixture by name.

    Recognized: E1..E4, E3l<k> (family member k), identity<m><n>, and
    seeded random names like ``general-m3n2s17``.
    """
    if name in _NAMED:
        return _NAMED[name]()
    m = _IDENTITY_RE.match(name)
    if m:
        return unit_tensor(int(m.group(1)), int(m.group(2)))
    m = _E3L_RE.match(name)
    if m:
        return E3_family(int(m.group(1)))
    m = _RANDOM_RE.match(name)
    if m:
        return random_tensor(m.group(1), int(m.group(2)), int(m.group(3)),
                             int(m.group(4)))
    raise KeyError(f"unknown fixture {name!r}")


def fixture_names() -> list[str]:
    """Stable names plus the recognized parametric patterns."""
    return sorted(_NAMED) + [
        "E3l<k>",
        "identity<m><n>",
        "general-m<m>n<n>s<seed>",
        "symmetric-m<m>n<n>s<seed>",
        "subsymmetric-m<m>n<n>s<seed>",
        "copositive-m<m>n<n>s<seed>",
    ]


_CONE_RE = re.compile(r"^orthant(\d+)$")


def cone_fixture(name: str) -> PolyhedralCone:
    """orthant<n>, ray10 (the nonnegative x1-axis in the plane), or ice2
    (the cone generated by (2,1) and (1,2))."""
    m = _CONE_RE.match(name)
    if m:
        return orthant(int(m.group(1)))
    if name == "ray10":
        return from_generators([np.array([1.0, 0.0])])
    if name == "ice2":
        return from_generators([np.array([2.0, 1.0]), np.array([1.0, 2.0])])
    raise KeyError(f"unknown cone fixture {name!r}")


def random_tensor(kind: str, m: int, n: int, seed: int) -> Tensor:
    """Seeded random tensor with entries uniform in [-2, 2].

    kinds: general | symmetric (full index symmetry) | subsymmetric
    (trailing-index symmetry per slice) | copositive (general entries plus a
    diagonal shift large enough to dominate on the simplex).
    """
    if kind not in ("general", "symmetric", "subsymmetric", "copositive"):
        raise ValueError(f"unknown random tensor kind {kind!r}")
    rng = SplitMix64(seed)
    entries: dict[tuple, float] = {}
    if kind in ("symmetric", "subsymmetric"):
        # one draw per orbit of the permuted positions, every head before the next
        heads = [()] if kind == "symmetric" else [(i,) for i in range(1, n + 1)]
        for head in heads:
            for tail in itertools.combinations_with_replacement(range(1, n + 1), m - len(head)):
                v = rng.uniform(-2.0, 2.0)
                for perm in set(itertools.permutations(tail)):
                    entries[head + perm] = v
    else:
        for idx in itertools.product(range(1, n + 1), repeat=m):
            entries[idx] = rng.uniform(-2.0, 2.0)
    A = Tensor(m, n, entries)
    if kind == "copositive":
        # on the simplex every monomial is <= 1 and sum x_i^m >= n^{1-m},
        # so this shift makes A x^m strictly positive there; the |entries|
        # are added in order (from Python 3.12 on, sum compensates rounding)
        total = np.cumsum(np.abs(list(entries.values())))[-1]
        shift = (float(total) + 1.0) * n ** (m - 1)
        A = A + unit_tensor(m, n).scale(shift)
    return A
