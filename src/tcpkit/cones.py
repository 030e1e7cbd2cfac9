"""Finitely generated polyhedral cones: duals, distances, tangent cones.

A cone carries both a V-representation (generators) and an H-representation
(inequality normals g with membership <g, x> >= 0).  The H-rep is derived
from the generators by enumerating tight halfspace sets (extreme_rays) and
never serialized.  Only the nonnegative orthant is supported above dimension
6; the enumeration is combinatorial and deliberately capped.

Distances are row-wise (_dists): on the orthant a clamp, elsewhere one
Lawson-Hanson NNLS (_nnls) run over all rows at once, every row with the
bits it gets alone.  dist is the one-row case, and delta_metric draws and
measures its samples _BLOCK at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._rng import SplitMix64, _uniform_stack
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
_BLOCK = 2048  # delta_metric samples per block


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


def _mv(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of X, one matrix-vector product per row (the
    bits of M @ x alone, whatever else is in X); M may be a stack."""
    return np.matmul(M, X[..., None])[..., 0]


def _nnls(G: np.ndarray, Z: np.ndarray):
    """(lam, ||G lam - z||) for the least ||G lam - z|| over lam >= 0, at a
    1-D z or at every row z of Z ((T, k) and (T,) arrays).

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23), run in lockstep over the rows: each row keeps its own
    passive set, skip mask and step, and drops out when it is done.  The
    passive-set subproblems are minimum-norm least squares through an SVD
    at lstsq's cutoff (_passive_solve), so +-column pairs, duplicate and
    zero columns are safe.  After 50 k of them a row keeps its current
    feasible point.  The norm is that of the lam returned.  Every product
    is taken row by row (_mv), so each row gets the bits it gets alone.
    """
    if Z.ndim == 1:
        lam, rnorm = _nnls(G, Z[None])
        return lam[0], float(rnorm[0])
    T, k = len(Z), G.shape[1]
    out = np.zeros((T, k))
    # the state of the rows still running, which are Z[rows]
    rows, X, lam = np.arange(T), Z, np.zeros((T, k))
    passive, skip = np.zeros((T, k), dtype=bool), np.zeros((T, k), dtype=bool)
    tol = 10 * np.finfo(float).eps * max(G.shape) * _row_norms(Z)
    tol *= np.linalg.norm(G, axis=0).max(initial=0.0)
    w, j, stepping = _mv(G.T, Z), np.zeros(T, dtype=np.intp), np.zeros(T, dtype=bool)
    for _ in range(50 * k):
        free = ~passive & ~skip & (w > tol[:, None]) & ~stepping[:, None]
        if (end := ~stepping & ~free.any(axis=1)).any():
            out[rows[end]] = lam[end]
            keep = ~end
            rows, X, lam, passive, skip = rows[keep], X[keep], lam[keep], passive[keep], skip[keep]
            tol, w, j, stepping, free = tol[keep], w[keep], j[keep], stepping[keep], free[keep]
            if not len(rows):
                break
        at = np.arange(len(rows))
        j = np.where(stepping, j, np.argmax(np.where(free, w, -np.inf), axis=1))
        passive[at, j] |= ~stepping
        s = _passive_solve(G, passive, X)
        # exact arithmetic makes an entering entry positive, so w_j > tol was
        # round-off: leave column j out until lam moves
        drop = ~stepping & (s[at, j] <= 0)
        passive[at, j] &= ~drop
        skip[at, j] |= drop
        done = ~drop & np.all(s > 0, axis=1, where=passive)
        if done.any():
            lam[done], skip[done] = s[done], False
            w[done] = _mv(G.T, X[done] - _mv(G, lam[done]))
        if (stepping := ~drop & ~done).any():
            # step from lam toward s until a passive entry hits 0; there
            # s <= 0 < lam, so lam - s >= lam > 0: no 0 / 0
            S, L, P = s[stepping], lam[stepping], passive[stepping]
            block, ratio = P & (S <= 0), np.full(L.shape, np.inf)
            ratio[block] = L[block] / (L[block] - S[block])
            i = (np.arange(len(L)), np.argmin(ratio, axis=1))
            L = L + ratio[i][:, None] * (S - L)
            L[i] = 0.0
            P &= L > 0
            L[~P] = 0.0
            lam[stepping], passive[stepping] = L, P
    out[rows] = lam
    return out, _row_norms(_mv(G, out) - Z)


def _passive_solve(G: np.ndarray, P: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """s at every row p, z of (P, Z): the minimum-norm least-squares solution
    of G[:, p] s_p = z, 0 off p.  One SVD per distinct p, singular values at
    or below eps max(n, |p|) times the largest dropped (lstsq's cutoff);
    then U^T z, scaled, and V times that, row by row."""
    B = np.packbits(P, axis=1)  # each passive set as one byte string
    first, inv = np.unique(B.view(np.dtype((np.void, B.shape[1])))[:, 0], return_index=True,
                           return_inverse=True)[1:]
    pats = P[first]
    U, sv, Vt = np.linalg.svd(G * pats[:, None, :], full_matrices=False)
    cut = np.finfo(float).eps * np.maximum(G.shape[0], pats.sum(axis=1)) * sv[:, 0]
    sv = sv[inv]
    c = _mv(U.transpose(0, 2, 1)[inv], Z)
    c = np.divide(c, sv, out=np.zeros_like(c), where=sv > cut[inv, None])
    return np.where(P, _mv(Vt.transpose(0, 2, 1)[inv], c), 0.0)


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


def _dists(K: PolyhedralCone, Z: np.ndarray) -> np.ndarray:
    """dist(z, K) at every row z of Z, each row with the bits it gets alone.

    On the orthant it is the norm of z - max(z, 0); on any other cone the
    nnls residual, which leaves a round-off distance even for members, so
    every distance at or below 1e-12 max(1, ||z||) snaps to an exact 0.
    """
    if K.is_orthant:
        d = _row_norms(Z - np.maximum(Z, 0.0))
    elif K.generators:
        d = _nnls(np.column_stack(K.generators), Z)[1]
    else:
        d = _row_norms(Z)
    nz = _row_norms(Z)
    return np.where(d <= 1e-12 * np.where(nz > 1.0, nz, 1.0), 0.0, d)  # max(1.0, nz) keeps 1 at NaN


def dist(K: PolyhedralCone, z) -> float:
    """dist(z, K) = || z - proj_K(z) || (_dists of one row)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (K.dim,):
        raise ShapeError(f"point of shape {z.shape} in cone of dim {K.dim}")
    return float(_dists(K, z[None])[0])


def _sample_blocks(K: PolyhedralCone, N: int, seed: int, block: int):
    """basis_samples(K, N, seed) as arrays: the normalized generators, then
    the other samples at most block rows at a time.

    The weights of a block are one stacked draw (_uniform_stack); a row whose
    norm is <= 1e-12 is dropped, and the stream goes on where the scalar loop
    would, so the rows kept are those of drawing one row at a time.
    """
    gens = _normalize_rows(K.generators)
    if not gens:
        return
    G, k = np.column_stack(gens), len(gens)
    yield np.array(gens)
    rng, need = SplitMix64(seed), max(N, k) - k
    while need:
        V = _mv(G, _uniform_stack([rng], min(need, block) * k).reshape(-1, k))
        nrm = _row_norms(V)
        V = V[nrm > 1e-12] / nrm[nrm > 1e-12, None]
        need -= len(V)
        if len(V):
            yield V


def basis_samples(K: PolyhedralCone, N: int, seed: int) -> list[np.ndarray]:
    """Quasi-uniform deterministic sample of K intersected with the unit sphere.

    All normalized generators are always included; the rest are normalized
    random convex combinations of generators.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return [v for V in _sample_blocks(K, N, seed, _BLOCK) for v in V]


def delta_metric(K1: PolyhedralCone, K2: PolyhedralCone, samples: int) -> float:
    """Hausdorff distance between unit-ball sections, by sampling.

    dist(., K) is positively homogeneous along rays, so sampling the unit
    sphere sections suffices; one-sided error is O(covering radius of the
    sample).  The samples are taken _BLOCK at a time.
    """
    if K1.dim != K2.dim:
        raise ShapeError("cones of different dimension")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    best = 0.0
    for a, b in ((K1, K2), (K2, K1)):
        for V in _sample_blocks(a, samples, 0, _BLOCK):
            d = float(_dists(b, V).max())
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
