"""Finitely generated polyhedral cones: duals, distances, tangent cones.

A cone carries both a V-representation (generators) and an H-representation
(inequality normals g with membership <g, x> >= 0).  The H-rep is derived
from the generators by double description and never serialized.  Only the
nonnegative orthant is supported above dimension 6; the double description
step is combinatorial and deliberately capped.
"""

from __future__ import annotations

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

_DD_MAX_DIM = 6
_RAY_TOL = 1e-9


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


def _dedup_rays(rays) -> list[np.ndarray]:
    kept: list[np.ndarray] = []
    for r in rays:
        if all(np.linalg.norm(r - k) > 1e-8 for k in kept):
            kept.append(r)
    return kept


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


def _prune_rays(rays: list[np.ndarray]) -> list[np.ndarray]:
    """Greedy removal of rays generated by the remaining ones."""
    kept = _dedup_rays(rays)
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1 :]
        if rest and _nnls(np.column_stack(rest), kept[i])[1] <= 1e-9:
            kept.pop(i)
        else:
            i += 1
    return kept


def extreme_rays(halfspaces, n: int) -> list[np.ndarray]:
    """Generating rays of {y : <a, y> >= 0 for every a in halfspaces}.

    Double description starting from +-e_i (which generate all of R^n);
    redundant rays are pruned by nonnegative least squares at the end.
    """
    if n > _DD_MAX_DIM:
        raise ValueError(f"double description capped at dim {_DD_MAX_DIM}, got {n}")
    rays: list[np.ndarray] = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rays.append(e.copy())
        rays.append(-e)
    for a in _normalize_rows(halfspaces):
        vals = [float(np.dot(a, r)) for r in rays]
        pos = [r for r, v in zip(rays, vals) if v > _RAY_TOL]
        zero = [r for r, v in zip(rays, vals) if abs(v) <= _RAY_TOL]
        neg = [(r, v) for r, v in zip(rays, vals) if v < -_RAY_TOL]
        combos = []
        for rp, vp in [(r, v) for r, v in zip(rays, vals) if v > _RAY_TOL]:
            for rn, vn in neg:
                c = vp * rn - vn * rp
                nrm = np.linalg.norm(c)
                if nrm > _RAY_TOL:
                    combos.append(c / nrm)
        rays = _prune_rays(pos + zero + combos)
    return rays


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

def dist(K: PolyhedralCone, z) -> float:
    """dist(z, K) = || z - proj_K(z) ||."""
    z = np.asarray(z, dtype=float)
    d = float(np.linalg.norm(z - project(K, z)))
    # the nnls projection leaves a round-off residual even for members;
    # snap it to an exact zero so dist(x, K) = 0 for x in K
    if d <= 1e-12 * max(1.0, float(np.linalg.norm(z))):
        return 0.0
    return d


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
    if not active:
        n = K.dim
        gens = tuple(np.vstack([np.eye(n), -np.eye(n)]))
        return PolyhedralCone(n, "general", gens, ())
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
