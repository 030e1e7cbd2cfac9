"""Finitely generated polyhedral cones: duals, distances, tangent cones.

A cone carries both a V-representation (generators) and an H-representation
(inequality normals g with membership <g, x> >= 0).  The H-rep is derived
from the generators by enumerating tight halfspace sets (extreme_rays) and
never serialized.  Only the nonnegative orthant is supported above dimension
6; the enumeration is combinatorial and deliberately capped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._rng import SplitMix64
from .tensor import ShapeError

__all__ = [
    "PolyhedralCone",
    "NotPointedError",
    "orthant",
    "from_generators",
    "dual",
    "contains",
    "dist",
    "project",
    "delta_metric",
    "tangent_cone",
    "basis_samples",
    "cone_to_json",
    "cone_from_json",
]

_MAX_DIM = 6
_RAY_TOL = 1e-9
_SLICE = 4096  # halfspace subsets per batched SVD


class NotPointedError(ValueError):
    """Raised when a generator set spans a line through the origin."""


@dataclass(frozen=True)
class PolyhedralCone:
    dim: int
    kind: str  # "orthant" | "general"
    generators: tuple = ()
    inequalities: tuple = ()

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=float) for g in self.generators)
        ineqs = tuple(np.asarray(g, dtype=float) for g in self.inequalities)
        for v in gens + ineqs:
            if v.shape != (self.dim,):
                raise ShapeError(f"vector of shape {v.shape} in cone of dim {self.dim}")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "inequalities", ineqs)

    @property
    def is_orthant(self) -> bool:
        return self.kind == "orthant"

    def __repr__(self) -> str:
        return (
            f"PolyhedralCone(dim={self.dim}, kind={self.kind!r}, "
            f"n_gen={len(self.generators)}, n_ineq={len(self.inequalities)})"
        )


def _normalize_rows(rows) -> list[np.ndarray]:
    out = []
    for r in rows:
        nrm = np.linalg.norm(r)
        if nrm > _RAY_TOL:
            out.append(r / nrm)
    return out


def _nnls(G: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, float]:
    """(lam, ||G lam - z||) for the least ||G lam - z|| over lam >= 0.

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23).  Passive-set subproblems go through lstsq, so +-column
    pairs, duplicate and zero columns are safe.  After 50 k of them it
    returns its current feasible point.  The norm is that of the lam returned.
    """
    k = G.shape[1]
    lam, passive, skip = np.zeros(k), np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
    tol = 10 * np.finfo(float).eps * max(G.shape) * np.linalg.norm(z)
    tol *= np.linalg.norm(G, axis=0).max(initial=0.0)
    w, stepping = G.T @ z, False
    for _ in range(50 * k):
        if not stepping:
            free = ~passive & ~skip & (w > tol)
            if not free.any():
                break
            j = np.argmax(np.where(free, w, -np.inf))
            passive[j] = True
        s = np.zeros(k)
        s[passive] = np.linalg.lstsq(G[:, passive], z, rcond=None)[0]
        if not stepping and s[j] <= 0:
            # exact arithmetic makes the entering entry positive, so w_j > tol
            # was round-off: leave column j out until lam moves
            passive[j], skip[j] = False, True
        elif np.all(s[passive] > 0):
            lam, stepping, skip[:] = s, False, False
            w = G.T @ (z - G @ lam)
        else:
            # step from lam toward s until a passive entry hits 0; there
            # s <= 0 < lam, so lam - s >= lam > 0: no 0 / 0
            block = passive & (s <= 0)
            ratio = np.full(k, np.inf)
            ratio[block] = lam[block] / (lam[block] - s[block])
            i = np.argmin(ratio)
            lam = lam + ratio[i] * (s - lam)
            lam[i], stepping = 0.0, True
            passive &= lam > 0
            lam[~passive] = 0.0
    return lam, float(np.linalg.norm(G @ lam - z))


def extreme_rays(halfspaces, n: int) -> list[np.ndarray]:
    """Generating rays of {y : <a, y> >= 0 for every a in halfspaces}.

    An SVD of the normalized halfspaces gives their rank d and an orthonormal
    basis of the lineality space; both signs of each basis vector are rays.
    Each extreme ray of the rest is, in coordinates of the row space, the unit
    null vector of d - 1 halfspaces of rank d - 1 that meets every halfspace.
    All such subsets are solved by batched SVDs, _SLICE at a time, and the
    rays found are deduplicated at 1e-8.
    """
    if n > _MAX_DIM:
        raise ValueError(f"ray enumeration capped at dim {_MAX_DIM}, got {n}")
    A = np.reshape(_normalize_rows(halfspaces), (-1, n))
    s, Vt = np.linalg.svd(A)[1:]
    d = int(np.sum(s > _RAY_TOL))
    B = A @ Vt[:d].T
    subsets = itertools.combinations(range(len(B)), d - 1) if d else ()
    rays = np.empty((0, d))
    while len(S := np.array(list(itertools.islice(subsets, _SLICE)), dtype=np.intp)):
        s, V = np.linalg.svd(B[S])[1:]
        Z = V[:, -1][np.min(s, axis=1, initial=np.inf) > _RAY_TOL]
        vals = Z @ B.T
        sign = np.where(np.all(vals >= -_RAY_TOL, axis=1), 1.0,
                        np.where(np.all(vals <= _RAY_TOL, axis=1), -1.0, 0.0))
        for z in Z[sign != 0] * sign[sign != 0, None]:
            if not (np.linalg.norm(rays - z, axis=1) <= 1e-8).any():
                rays = np.vstack([rays, z])
    return list(np.vstack([rays @ Vt[:d], Vt[d:], -Vt[d:]]))


def orthant(n: int) -> PolyhedralCone:
    basis = tuple(np.eye(n)[i] for i in range(n))
    return PolyhedralCone(n, "orthant", basis, basis)


def from_generators(vs) -> PolyhedralCone:
    """Pointed cone generated by the given nonzero vectors."""
    gens = [np.asarray(v, dtype=float) for v in vs]
    if not gens:
        raise ValueError("at least one generator required")
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n,):
            raise ShapeError("generators of mixed dimension")
        if np.linalg.norm(g) <= _RAY_TOL:
            raise ValueError("zero generator")
    if not _is_pointed(gens):
        raise NotPointedError("generators span a line; cone is not pointed")
    ineqs = extreme_rays(gens, n)
    return PolyhedralCone(n, "general", tuple(gens), tuple(ineqs))


def _is_pointed(gens) -> bool:
    # Non-pointed iff 0 is a nonzero nonnegative combination of generators, i.e.
    # 0 = G lam with lam >= 0, sum lam = 1 for the normalized generators G.
    G = np.column_stack(_normalize_rows(gens))
    aug = np.vstack([G, np.ones(G.shape[1])])
    return _nnls(aug, np.eye(len(aug))[-1])[1] > 1e-9


def dual(K: PolyhedralCone) -> PolyhedralCone:
    """K* = {y : <y, x> >= 0 for all x in K}; swaps the two representations."""
    if K.is_orthant:
        return K
    return PolyhedralCone(K.dim, "general", K.inequalities, K.generators)


def contains(K: PolyhedralCone, x, tol: float) -> bool:
    x = np.asarray(x, dtype=float)
    if x.shape != (K.dim,):
        raise ShapeError(f"point of shape {x.shape} in cone of dim {K.dim}")
    if tol < 0:
        raise ValueError("tol must be >= 0")
    if not K.inequalities:
        return True  # H-rep empty: all of R^n
    return all(float(np.dot(g, x)) >= -tol for g in K.inequalities)


def project(K: PolyhedralCone, z) -> np.ndarray:
    """Euclidean projection of z onto K."""
    z = np.asarray(z, dtype=float)
    if z.shape != (K.dim,):
        raise ShapeError(f"point of shape {z.shape} in cone of dim {K.dim}")
    if K.is_orthant:
        return np.maximum(z, 0.0)
    if not K.generators:
        return np.zeros(K.dim)
    G = np.column_stack(K.generators)
    return G @ _nnls(G, z)[0]


def _row_norms(Z: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every row of Z, with np.linalg.norm's bits
    wherever the plain sum of squares is finite; a finite row whose sum of
    squares overflows is divided by its largest |entry| first."""
    with np.errstate(over="ignore"):
        d = np.sqrt(np.vecdot(Z, Z))
    big = np.isinf(d) & np.isfinite(Z).all(axis=-1)
    if big.any():
        s = np.abs(Z[big]).max(axis=-1, keepdims=True)
        d[big] = s[:, 0] * np.sqrt(np.vecdot(Z[big] / s, Z[big] / s))
    return d


def dist(K: PolyhedralCone, z) -> float:
    """dist(z, K) = || z - proj_K(z) ||."""
    z = np.asarray(z, dtype=float)
    d, nz = _row_norms(np.array([z - project(K, z), z]))
    # the nnls projection leaves a round-off residual even for members;
    # snap it to an exact zero so dist(x, K) = 0 for x in K
    if d <= 1e-12 * max(1.0, float(nz)):
        return 0.0
    return float(d)


def basis_samples(K: PolyhedralCone, N: int, seed: int) -> list[np.ndarray]:
    """Quasi-uniform deterministic sample of K intersected with the unit sphere.

    All normalized generators are always included; the rest are normalized
    random convex combinations of generators.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    gens = _normalize_rows(K.generators)
    out = list(gens)
    if not gens:
        return out
    rng = SplitMix64(seed)
    k = len(gens)
    G = np.column_stack(gens)
    while len(out) < max(N, k):
        w = np.array([rng.uniform() for _ in range(k)])
        v = G @ w
        nrm = np.linalg.norm(v)
        if nrm > 1e-12:
            out.append(v / nrm)
    return out


def delta_metric(K1: PolyhedralCone, K2: PolyhedralCone, samples: int) -> float:
    """Hausdorff distance between unit-ball sections, by sampling.

    dist(., K) is positively homogeneous along rays, so sampling the unit
    sphere sections suffices; one-sided error is O(covering radius of the
    sample).
    """
    if K1.dim != K2.dim:
        raise ShapeError("cones of different dimension")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    best = 0.0
    for a, b in ((K1, K2), (K2, K1)):
        for s in basis_samples(a, samples, seed=0):
            d = dist(b, s)
            if d > best:
                best = d
    return best


def tangent_cone(K: PolyhedralCone, xbar, tol: float = 1e-8) -> PolyhedralCone:
    """Tangent cone of K at xbar: inequalities of K active at xbar."""
    xbar = np.asarray(xbar, dtype=float)
    if not contains(K, xbar, max(tol, 1e-12)):
        raise ValueError("point is not in the cone")
    if np.linalg.norm(xbar) <= tol:
        return K  # apex: the tangent cone is K itself
    active = tuple(g for g in K.inequalities if abs(float(np.dot(g, xbar))) <= tol)
    gens = tuple(extreme_rays(active, K.dim))
    return PolyhedralCone(K.dim, "general", gens, active)


def cone_to_json(K: PolyhedralCone) -> dict:
    return {
        "dim": K.dim,
        "kind": K.kind,
        "generators": [[float(v) for v in g] for g in K.generators],
    }


def cone_from_json(obj: dict) -> PolyhedralCone:
    n = int(obj["dim"])
    kind = obj.get("kind", "general")
    if kind == "orthant":
        return orthant(n)
    return from_generators([np.asarray(g, dtype=float) for g in obj["generators"]])
