"""Square real tensors of order m and dimension n, stored sparsely.

Indices are 1-based throughout, matching the JSON interchange format
``{"order": m, "dim": n, "entries": [{"idx": [i1, ..., im], "val": v}]}``.
A zero stored value is equivalent to an absent entry.

Each ``Tensor`` freezes one contraction form when it is built: the distinct
trailing index tuples (j2, ..., jm) as a (T, m-1) array ``_tails`` and the
(T, n) matrix ``_coef[t, i] = a_{i, tails[t]}``.  One kernel, ``_monomials``,
forms the T monomials x_{j2}...x_{jm} (optionally without tail position p)
at one point or a batch of points; then A x^{m-1} = monomials(x) @ coef, and
the derivative through position p is coef.T @ D_p with
D_p[t, tails[t, p]] = monomials(x, skip=p)[t].  A x^{m-2} is the p = 0
derivative and the Jacobian is the sum over p.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = [
    "Tensor",
    "IndexSet",
    "ShapeError",
    "apply_m1",
    "apply_m",
    "apply_m2",
    "jacobian_m1",
    "unit_tensor",
    "principal_subtensor",
    "apply_off",
    "power_vec",
    "is_symmetric",
    "is_subsymmetric",
    "frobenius_distance",
    "tensor_from_dense",
    "tensor_to_json",
    "tensor_from_json",
    "batch_apply_m1",
]


class ShapeError(ValueError):
    """Dimension or order mismatch between tensors/vectors."""


def _validate_entries(order: int, dim: int, entries: Mapping[tuple, float]) -> dict:
    clean: dict[tuple, float] = {}
    for idx, val in entries.items():
        idx = tuple(int(i) for i in idx)
        if len(idx) != order:
            raise ShapeError(f"index {idx} has length {len(idx)}, expected {order}")
        if any(i < 1 or i > dim for i in idx):
            raise ShapeError(f"index {idx} out of range 1..{dim}")
        val = float(val)
        if not math.isfinite(val):
            raise ValueError(f"non-finite entry at {idx}: {val}")
        if val != 0.0:
            clean[idx] = val
    return clean


@dataclass(frozen=True)
class Tensor:
    """Immutable m-th order, n-dimensional real square tensor."""

    order: int
    dim: int
    entries: Mapping[tuple, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        clean = _validate_entries(self.order, self.dim, self.entries)
        object.__setattr__(self, "entries", MappingProxyType(clean))
        tails = sorted({idx[1:] for idx in clean})
        row = {tail: t for t, tail in enumerate(tails)}
        coef = np.zeros((len(tails), self.dim))
        heads = [idx[0] - 1 for idx in clean]
        coef[[row[idx[1:]] for idx in clean], heads] = list(clean.values())
        tails = np.array(tails, dtype=np.intp).reshape(-1, self.order - 1) - 1
        tails.setflags(write=False)
        coef.setflags(write=False)
        object.__setattr__(self, "_tails", tails)
        object.__setattr__(self, "_coef", coef)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def to_dense(self) -> np.ndarray:
        """Dense ndarray of shape (n,) * m (0-based axes)."""
        out = np.zeros((self.dim,) * self.order)
        out[(slice(None),) + tuple(self._tails.T)] = self._coef.T
        return out

    def scale(self, t: float) -> "Tensor":
        return Tensor(self.order, self.dim, {k: t * v for k, v in self.entries.items()})

    def __add__(self, other: "Tensor") -> "Tensor":
        if (self.order, self.dim) != (other.order, other.dim):
            raise ShapeError("tensor shapes differ")
        merged = dict(self.entries)
        for k, v in other.entries.items():
            merged[k] = merged.get(k, 0.0) + v
        return Tensor(self.order, self.dim, merged)

    def __repr__(self) -> str:
        return f"Tensor(order={self.order}, dim={self.dim}, nnz={self.nnz})"


@dataclass(frozen=True)
class IndexSet:
    """Sorted, duplicate-free subset of {1, ..., n}."""

    members: tuple
    n: int

    def __post_init__(self):
        mem = tuple(sorted(set(int(i) for i in self.members)))
        if any(i < 1 or i > self.n for i in mem):
            raise ValueError(f"members {mem} not within 1..{self.n}")
        object.__setattr__(self, "members", mem)

    @property
    def complement(self) -> tuple:
        inside = set(self.members)
        return tuple(i for i in range(1, self.n + 1) if i not in inside)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, i) -> bool:
        return i in self.members


def _check_vec(A: Tensor, x, stack: bool = False) -> np.ndarray:
    """x as one point (n,) or, if stack, also as the rows of an (S, n) array."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (A.dim,) or x.ndim > 1 + stack:
        raise ShapeError(f"vector of shape {x.shape} incompatible with dim {A.dim}")
    return x


def _monomials(A: Tensor, X: np.ndarray, skip: int | None = None) -> np.ndarray:
    """prod_{p != skip} x_{tails[t, p]} for every tail t: shape (T,) for one
    point x, (T, S) for the S rows of X."""
    XT = X.T
    factors = [XT[col] for p, col in enumerate(A._tails.T) if p != skip]
    if not factors:  # order 2 with its one tail position skipped
        return np.ones((len(A._tails),) + XT.shape[1:])
    return functools.reduce(np.multiply, factors)


def _derivative(A: Tensor, X: np.ndarray, positions) -> np.ndarray:
    """Sum over p in positions of the derivative of x -> A x^{m-1} through
    tail position p: (i, j) adds a_{i j2..jm} prod_{q != p} x_{jq} if j_p = j.
    Shape (n, n) for one point x, (S, n, n) for the S rows of X."""
    D = np.zeros(X.shape[:-1] + A._coef.shape)
    rows = np.arange(len(A._tails))
    for p in positions:
        D.T[A._tails[:, p], rows] += _monomials(A, X, p)
    return A._coef.T @ D


def apply_m1(A: Tensor, x) -> np.ndarray:
    """F(x) = A x^{m-1}, component i = sum a_{i i2...im} x_{i2}...x_{im}.

    x is one point or the rows of an (S, n) array; every row gets the bits
    it gets alone (one vector-matrix product per row), so a batch of
    iterates moves as each would on its own.  On large grids
    batch_apply_m1 is faster, but its rows can differ in the last bit.
    """
    M = _monomials(A, _check_vec(A, x, stack=True))
    if M.ndim == 1:
        return M @ A._coef
    return (np.ascontiguousarray(M.T)[:, None, :] @ A._coef)[:, 0]


def apply_m(A: Tensor, x) -> float:
    """A x^m = <x, A x^{m-1}>, evaluated in exactly that order."""
    x = _check_vec(A, x)
    return float(np.dot(x, apply_m1(A, x)))


def apply_m2(A: Tensor, x) -> np.ndarray:
    """The n x n matrix (A x^{m-2})_{ij} = sum a_{i j i3...im} x_{i3}...x_{im}."""
    return _derivative(A, _check_vec(A, x), [0])


def jacobian_m1(A: Tensor, x) -> np.ndarray:
    """Exact Jacobian of x -> A x^{m-1}: (n, n) at one point, (S, n, n) at
    the rows of an (S, n) array, each row as it would be alone.

    Coincides with (m-1) * apply_m2(A, x) when A is sub-symmetric; summed
    over every tail position so that Newton steps stay correct otherwise.
    """
    return _derivative(A, _check_vec(A, x, stack=True), range(A.order - 1))


def unit_tensor(m: int, n: int) -> Tensor:
    """Tensor of Kronecker deltas: entry 1 iff all indices coincide."""
    if m < 2 or n < 1:
        raise ValueError("unit tensor needs m >= 2, n >= 1")
    return Tensor(m, n, {(i,) * m: 1.0 for i in range(1, n + 1)})


def principal_subtensor(A: Tensor, alpha: IndexSet) -> Tensor:
    """Entries of A with every index in alpha, re-indexed to 1..|alpha|."""
    if len(alpha) == 0:
        raise ValueError("principal sub-tensor needs a nonempty index set")
    if alpha.n != A.dim:
        raise ShapeError("index set ambient dimension differs from tensor dim")
    pos = np.full(A.dim, -1)
    pos[[i - 1 for i in alpha.members]] = np.arange(len(alpha))
    tails = pos[A._tails]
    keep = np.all(tails >= 0, axis=1)
    coef = A._coef[keep][:, pos >= 0]
    t, head = np.nonzero(coef)
    idx = np.column_stack([head, tails[keep][t]]) + 1
    return Tensor(A.order, len(alpha), dict(zip(map(tuple, idx.tolist()), coef[t, head].tolist())))


def apply_off(A: Tensor, alpha: IndexSet, u_alpha) -> np.ndarray:
    """A_{comp,alpha} (u_alpha)^{m-1}: rows outside alpha, columns inside,
    i.e. the rows outside alpha of A x^{m-1} at x = (u_alpha, 0)."""
    if len(alpha) == 0 or len(alpha) == A.dim:
        raise ValueError("alpha must be a nonempty proper subset")
    if alpha.n != A.dim:
        raise ShapeError("index set ambient dimension differs from tensor dim")
    u = np.asarray(u_alpha, dtype=float)
    if u.shape != (len(alpha),):
        raise ShapeError(f"u_alpha of shape {u.shape}, expected ({len(alpha)},)")
    x = np.zeros(A.dim)
    x[[i - 1 for i in alpha.members]] = u
    return apply_m1(A, x)[[i - 1 for i in alpha.complement]]


def power_vec(x, p: float) -> np.ndarray:
    """Componentwise power x^[p]."""
    x = np.asarray(x, dtype=float)
    p = float(p)
    if p < 0:
        raise ValueError("p must be >= 0")
    if p != int(p) and np.any(x < 0):
        raise ValueError("fractional power of a negative component")
    return x**p


def is_symmetric(A: Tensor) -> bool:
    """Invariance of entries under every permutation of the m indices."""
    for idx, val in A.entries.items():
        for perm in set(itertools.permutations(idx)):
            if A.entries.get(perm, 0.0) != val:
                return False
    return True


def is_subsymmetric(A: Tensor) -> bool:
    """Each slice A_i symmetric in the trailing m-1 indices."""
    for idx, val in A.entries.items():
        head, tail = idx[0], idx[1:]
        for perm in set(itertools.permutations(tail)):
            if A.entries.get((head,) + perm, 0.0) != val:
                return False
    return True


def frobenius_distance(A: Tensor, B: Tensor) -> float:
    if (A.order, A.dim) != (B.order, B.dim):
        raise ShapeError("tensor shapes differ")
    keys = set(A.entries) | set(B.entries)
    return math.sqrt(
        math.fsum((A.entries.get(k, 0.0) - B.entries.get(k, 0.0)) ** 2 for k in keys)
    )


def tensor_from_dense(arr, tol: float = 0.0) -> Tensor:
    """Build a Tensor from a dense (n,)*m array, dropping |a| <= tol."""
    arr = np.asarray(arr, dtype=float)
    m = arr.ndim
    if m < 2:
        raise ShapeError("dense tensor must have at least 2 axes")
    n = arr.shape[0]
    if arr.shape != (n,) * m:
        raise ShapeError(f"array of shape {arr.shape} is not square")
    entries = {}
    for idx in zip(*np.nonzero(arr)):
        v = float(arr[idx])
        if abs(v) > tol:
            entries[tuple(int(i) + 1 for i in idx)] = v
    return Tensor(m, n, entries)


def tensor_to_json(A: Tensor) -> dict:
    ents = [
        {"idx": list(idx), "val": val}
        for idx, val in sorted(A.entries.items())
    ]
    return {"order": A.order, "dim": A.dim, "entries": ents}


def tensor_from_json(obj: dict) -> Tensor:
    order = int(obj["order"])
    dim = int(obj["dim"])
    entries: dict[tuple, float] = {}
    for ent in obj.get("entries", []):
        idx = tuple(int(i) for i in ent["idx"])
        if idx in entries:
            raise ValueError(f"duplicate index {list(idx)} in tensor JSON")
        entries[idx] = float(ent["val"])
    return Tensor(order, dim, entries)


def batch_apply_m1(A: Tensor, X) -> np.ndarray:
    """A x^{m-1} for every row x of the (S, n) array X.

    Works through the rows in blocks of about 2**16 monomial entries, so the
    temporaries stay small on large grids.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != A.dim:
        raise ShapeError(f"points of shape {X.shape} incompatible with dim {A.dim}")
    out = np.empty((len(X), A.dim))
    step = max(1, 2**16 // max(len(A._tails), 1))
    for s in range(0, len(X), step):
        out[s:s + step] = _monomials(A, X[s:s + step]).T @ A._coef
    return out
