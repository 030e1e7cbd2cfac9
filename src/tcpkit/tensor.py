"""Square real tensors of order m and dimension n, stored sparsely.

Indices are 1-based throughout, matching the JSON interchange format
``{"order": m, "dim": n, "entries": [{"idx": [i1, ..., im], "val": v}]}``.
A zero stored value is equivalent to an absent entry.

A ``Tensor`` has one representation, its contraction form: the distinct
trailing index tuples (j2, ..., jm), 0-based and sorted, as a (T, m-1)
array ``_tails``, and the (T, n) matrix ``_coef[t, i] = a_{i, tails[t]}``
with no all-zero row.  One constructor, ``Tensor._from_forms``, builds every
tensor, a stack of tensors with shared tails at a time (``_from_form`` is
its one-tensor case): ``Tensor(order, dim, entries)`` validates its dict
once, with numpy, a stack of dense arrays is checked once, and derived
tensors are cut from their parents' forms.  ``entries`` is a read-only view
of the form.

One kernel, ``_monomials``, forms the T monomials x_{j2}...x_{jm}
(optionally without tail position p) at one point or a batch of points;
then A x^{m-1} = monomials(x) @ coef, and the derivative through position p
is coef.T @ D_p with D_p[t, tails[t, p]] = monomials(x, skip=p)[t].
A x^{m-2} is the p = 0 derivative and the Jacobian is the sum over p.
Tensors that share _tails are evaluated as a stack through the same two
steps, row s of a batch with its own tensor's coefficients (_rows_m1 and
the coef argument of _derivative); ``_forms._Forms`` groups a stack of
tensors by _tails and evaluates each row with its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False, repr=False)
class Tensor:
    """Immutable m-th order, n-dimensional real square tensor."""

    order: int
    dim: int

    def __init__(self, order, dim, entries: Mapping[tuple, float] | None = None):
        if not (float(order).is_integer() and float(dim).is_integer() and order >= 2 and dim >= 1):
            raise ValueError(f"need whole numbers order >= 2, dim >= 1; got {order!r}, {dim!r}")
        order, dim = int(order), int(dim)
        entries = entries or {}
        keys = list(entries.keys())
        try:
            idx = np.array(keys or np.empty((0, order)), dtype=float)
        except ValueError as e:  # index tuples of unequal lengths
            raise ShapeError(f"indices must be {order}-tuples: {e}") from e
        if idx.shape[1:] != (order,):
            raise ShapeError(f"index {keys[0]} is not a {order}-tuple")
        for bad, why in ((np.trunc(idx) != idx, "is not integral"),
                         ((idx < 1) | (idx > dim), f"out of range 1..{dim}")):
            bad = np.any(bad, axis=1)
            if bad.any():
                raise ShapeError(f"index {keys[np.argmax(bad)]} {why}")
        idx = idx.astype(np.intp) - 1
        coef = np.zeros((len(keys), dim))
        coef[np.arange(len(keys)), idx[:, 0]] = np.array(list(entries.values()), dtype=float)
        self.__dict__.update(Tensor._from_form(order, dim, idx[:, 1:], coef, True).__dict__)

    @classmethod
    def _from_form(cls, order: int, dim: int, tails, coef, merge: bool = False) -> "Tensor":
        """The tensor with entry (i + 1, *(tails[t] + 1)) = coef[t, i].  The rows
        of tails must be sorted and distinct unless merge, which sorts them and
        sums the coef rows of equal tails, in row order."""
        tails = np.asarray(tails, dtype=np.intp).reshape(-1, order - 1)
        coef = np.asarray(coef, dtype=float)
        if merge and len(tails):
            perm = np.lexsort(tails.T[::-1])
            tails, coef = tails[perm], coef[perm]
            new = np.r_[True, np.any(tails[1:] != tails[:-1], axis=1)]
            summed = np.zeros((np.count_nonzero(new), dim))
            np.add.at(summed, np.cumsum(new) - 1, coef)
            tails, coef = tails[new], summed
        return cls._from_forms(order, dim, tails, coef[None])[0]

    @classmethod
    def _from_forms(cls, order: int, dim: int, tails, coefs) -> list:
        """The tensors _from_form(order, dim, tails, coefs[s]), one per s, with
        one finiteness check and one zero-row scan for the stack."""
        if not np.all(np.isfinite(coefs)):  # scale and + can overflow
            s, t, i = np.argwhere(~np.isfinite(coefs))[0]
            idx = (np.r_[i, tails[t]] + 1).tolist()
            raise ValueError(f"non-finite entry at {idx}: {coefs[s, t, i]}")
        out = []
        for coef, keep in zip(coefs, np.any(coefs != 0.0, axis=2)):
            self = object.__new__(cls)
            self.__dict__.update(order=order, dim=dim, _tails=tails[keep],
                                 _coef=coef[keep] + 0.0)  # a -0.0 coefficient is an absent entry
            self._tails.setflags(write=False)
            self._coef.setflags(write=False)
            out.append(self)
        return out

    @functools.cached_property
    def entries(self) -> Mapping[tuple, float]:
        """Read-only {index tuple: value} view of the nonzero entries, sorted."""
        idx, vals = _entry_arrays(self)
        return MappingProxyType(dict(zip(map(tuple, idx.tolist()), vals.tolist())))

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._coef))

    def to_dense(self) -> np.ndarray:
        """Dense ndarray of shape (n,) * m (0-based axes)."""
        out = np.zeros((self.dim,) * self.order)
        out[(slice(None),) + tuple(self._tails.T)] = self._coef.T
        return out

    def scale(self, t: float) -> "Tensor":
        with np.errstate(over="ignore", invalid="ignore"):  # _from_form refuses inf and NaN
            return Tensor._from_form(self.order, self.dim, self._tails, t * self._coef)

    def __add__(self, other: "Tensor") -> "Tensor":
        if (self.order, self.dim) != (other.order, other.dim):
            raise ShapeError("tensor shapes differ")
        with np.errstate(over="ignore"):
            return Tensor._from_form(self.order, self.dim,
                                     np.vstack([self._tails, other._tails]),
                                     np.vstack([self._coef, other._coef]), merge=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return ((self.order, self.dim) == (other.order, other.dim)
                and np.array_equal(self._tails, other._tails)
                and np.array_equal(self._coef, other._coef))

    def __repr__(self) -> str:
        return f"Tensor(order={self.order}, dim={self.dim}, nnz={self.nnz})"


def _entry_arrays(A: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries: 1-based index rows, sorted, and their values."""
    heads, t = np.nonzero(A._coef.T)
    return np.column_stack([heads, A._tails[t]]) + 1, A._coef[t, heads]


@dataclass(frozen=True)
class IndexSet:
    """Sorted, duplicate-free subset of {1, ..., n}."""

    members: tuple
    n: int

    def __post_init__(self):
        if not all(float(i).is_integer() for i in (*self.members, self.n)):
            raise ValueError(f"members {self.members} and n {self.n!r} must be whole numbers")
        mem = tuple(sorted(set(int(i) for i in self.members)))
        if any(i < 1 or i > self.n for i in mem):
            raise ValueError(f"members {mem} not within 1..{self.n}")
        object.__setattr__(self, "members", mem)
        object.__setattr__(self, "n", int(self.n))

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


def _finite(v, shape: tuple, name: str) -> np.ndarray:
    """v as a float array of the given shape with finite entries; raises a
    ShapeError or a ValueError that names it otherwise."""
    v = np.asarray(v, dtype=float)
    if v.shape != shape:
        raise ShapeError(f"{name} of shape {v.shape}, expected {shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has a non-finite entry")
    return v


def _monomials(A: Tensor, X: np.ndarray, skip: int | None = None) -> np.ndarray:
    """prod_{p != skip} x_{tails[t, p]} for every tail t: shape (T,) for one
    point x, (T, S) for the S rows of X."""
    XT = X.T
    factors = [XT[col] for p, col in enumerate(A._tails.T) if p != skip]
    if not factors:  # order 2 with its one tail position skipped
        return np.ones((len(A._tails),) + XT.shape[1:])
    return functools.reduce(np.multiply, factors)


def _derivative(A: Tensor, X: np.ndarray, positions, coef=None) -> np.ndarray:
    """Sum over p in positions of the derivative of x -> A x^{m-1} through
    tail position p: (i, j) adds a_{i j2..jm} prod_{q != p} x_{jq} if j_p = j.
    Shape (n, n) for one point x, (S, n, n) for the S rows of X.  coef, an
    (S, T, n) array, gives row s the coefficients coef[s] of a tensor with
    A's tails in place of A._coef."""
    D = np.zeros(X.shape[:-1] + A._coef.shape)
    rows = np.arange(len(A._tails))
    for p in positions:
        D.T[A._tails[:, p], rows] += _monomials(A, X, p)
    return np.swapaxes(A._coef if coef is None else coef, -1, -2) @ D


def _rows_m1(A: Tensor, X: np.ndarray, coef) -> np.ndarray:
    """A x^{m-1} at the S rows of X, one vector-matrix product per row with
    coef: A._coef, or an (S, T, n) array giving row s the coefficients
    coef[s] of a tensor with A's tails.  Every row gets the bits it gets
    alone, whichever tensor it belongs to."""
    return (np.ascontiguousarray(_monomials(A, X).T)[:, None, :] @ coef)[:, 0]


def apply_m1(A: Tensor, x) -> np.ndarray:
    """F(x) = A x^{m-1}, component i = sum a_{i i2...im} x_{i2}...x_{im}.

    x is one point or the rows of an (S, n) array; every row gets the bits
    it gets alone (one vector-matrix product per row, _rows_m1; one point is
    a stack of one), so a batch of iterates moves as each would on its own.
    """
    x = _check_vec(A, x, stack=True)
    return _rows_m1(A, x.reshape(-1, A.dim), A._coef).reshape(x.shape)


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
    return Tensor._from_form(m, n, np.repeat(np.arange(n)[:, None], m - 1, axis=1), np.eye(n))


def principal_subtensor(A: Tensor, alpha: IndexSet) -> Tensor:
    """Entries of A with every index in alpha, re-indexed to 1..|alpha|."""
    if len(alpha) == 0:
        raise ValueError("principal sub-tensor needs a nonempty index set")
    if alpha.n != A.dim:
        raise ShapeError("index set ambient dimension differs from tensor dim")
    pos = np.full(A.dim, -1)
    pos[[i - 1 for i in alpha.members]] = np.arange(len(alpha))
    tails = pos[A._tails]  # pos is increasing on alpha, so kept rows stay sorted
    keep = np.all(tails >= 0, axis=1)
    return Tensor._from_form(A.order, len(alpha), tails[keep], A._coef[keep][:, pos >= 0])


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


def _invariant(A: Tensor, first: int) -> bool:
    """Are the entries unchanged by every permutation of the index positions
    first, ..., m-1?  A transposition and a full cycle generate the
    permutation group, so checking those two is enough."""
    p = list(range(A.order))  # one position left to permute gives identities
    idx, vals = _entry_arrays(A)
    for perm in (p[:first] + p[first:first + 2][::-1] + p[first + 2:],
                 p[:first] + p[first + 1:] + p[first:first + 1]):
        image = idx[:, perm]
        order = np.lexsort(image.T[::-1])
        if not (np.array_equal(image[order], idx) and np.array_equal(vals[order], vals)):
            return False
    return True


def is_symmetric(A: Tensor) -> bool:
    """Invariance of entries under every permutation of the m indices."""
    return _invariant(A, 0)


def is_subsymmetric(A: Tensor) -> bool:
    """Each slice A_i symmetric in the trailing m-1 indices."""
    return _invariant(A, 1)


def frobenius_distance(A: Tensor, B: Tensor) -> float:
    diff = A + B.scale(-1.0)
    return math.sqrt(math.fsum((diff._coef ** 2).ravel()))


def tensor_from_dense(arr) -> Tensor:
    """Build a Tensor from a dense (n,)*m array: its nonzero entries."""
    return _dense_stack(np.asarray(arr, dtype=float)[None])[0]


def _dense_stack(arrs) -> list:
    """[tensor_from_dense(arr) for arr in arrs], arrs an (S, n, ..., n)
    stack, checked once (a non-finite entry raises in _from_forms)."""
    arrs = np.asarray(arrs, dtype=float)
    shape = arrs.shape[1:]
    m, n = len(shape), (shape or (0,))[0]
    if m < 2 or n < 1 or shape != (n,) * m:
        raise ShapeError(f"array of shape {shape} is not a nonempty square tensor")
    coefs = arrs.reshape(len(arrs), n, n ** (m - 1)).transpose(0, 2, 1)  # row t: the t-th tail
    tails = np.indices((n,) * (m - 1)).reshape(m - 1, -1).T
    return Tensor._from_forms(m, n, tails, coefs)


def tensor_to_json(A: Tensor) -> dict:
    idx, vals = _entry_arrays(A)
    ents = [{"idx": i, "val": v} for i, v in zip(idx.tolist(), vals.tolist())]
    return {"order": A.order, "dim": A.dim, "entries": ents}


def tensor_from_json(obj: dict) -> Tensor:
    ents = obj.get("entries", [])
    entries = {tuple(ent["idx"]): ent["val"] for ent in ents}
    if len(entries) < len(ents):
        raise ValueError("duplicate index in tensor JSON")
    return Tensor(obj["order"], obj["dim"], entries)


def batch_apply_m1(A: Tensor, X) -> np.ndarray:
    """A x^{m-1} for every row x of the (S, n) array X: apply_m1 on a stack,
    with its bits."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != A.dim:
        raise ShapeError(f"points of shape {X.shape} incompatible with dim {A.dim}")
    return _rows_m1(A, X, A._coef)
