"""Independent answer checks, run after the timed region.

None of this calls tcpkit: tensors arrive as dense numpy arrays and every
contraction is the benchmark's own ``einsum``.  A check returns ``None`` when
the answer holds and a one-line reason when it does not.
"""

from __future__ import annotations

import json

import numpy as np

MEMBER_TOL = 1e-7          # residual triple tolerance, as in criterion 4
CHALLENGE_TOL = 1e-9       # min-map residual at which a challenger point is a solution
CHALLENGE_STARTS = 24
CHALLENGE_ITERS = 40
EXCURSION_BOUND = 0.01     # criterion 7
ERROR_RATIO_BOUND = 5.0    # criterion 7
ERROR_RATIO_SPREAD = 2.0   # criterion 7: the two error-bound ratios within 2x
UNIQUENESS_BOUND = 0.9     # criterion 7


def dense_apply(D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A x^{m-1} for every row of X (shape (S, n)), from the dense array D."""
    T = np.broadcast_to(D, (len(X),) + D.shape)
    for _ in range(D.ndim - 1):
        T = np.einsum("sik...,sk->si...", T, X)
    return T


def dense_jacobian(D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Jacobian of x -> A x^{m-1} at every row of X, shape (S, n, n)."""
    J = np.zeros((len(X), D.shape[0], D.shape[0]))
    for pos in range(1, D.ndim):
        T = np.broadcast_to(np.moveaxis(D, pos, -1), (len(X),) + D.shape)
        for _ in range(D.ndim - 2):
            T = np.einsum("sik...,sk->si...", T, X)
        J += T
    return J


def tcp_residual(D: np.ndarray, q: np.ndarray, x: np.ndarray) -> float:
    """max(dist(x, R^n_+), dist(w, R^n_+), |<x, w>|) for w = A x^{m-1} + q."""
    w = dense_apply(D, x[None, :])[0] + q
    return max(float(np.maximum(-x, 0.0).max()), float(np.maximum(-w, 0.0).max()),
               abs(float(x @ w)))


def check_member(D: np.ndarray, q: np.ndarray, result) -> str | None:
    """member=True: x = (u_alpha, 0) must solve TCP(R^n_+, q, A)."""
    if result.alpha is None or result.u is None:
        return "member without a support or a point"
    x = np.zeros(len(q))
    idx = [i - 1 for i in result.alpha.members]
    x[idx] = np.asarray(result.u, dtype=float)[idx]
    if not np.all(np.isfinite(x)):
        return "non-finite solution"
    r = tcp_residual(D, q, x)
    if r > MEMBER_TOL:
        return f"x = (u_alpha, 0) has residual {r:.3g} > {MEMBER_TOL:g}"
    return None


def challenge_non_member(D: np.ndarray, q: np.ndarray, seed: int) -> str | None:
    """member=False: try to find a solution by semismooth Newton on the
    min-map Phi(x) = min(x, A x^{m-1} + q) from seeded starts.  Finding one
    refutes the verdict."""
    n = len(q)
    rng = np.random.default_rng(seed)
    scale = (1.0 + np.abs(q).max()) ** (1.0 / (D.ndim - 1))
    X = np.vstack([np.zeros((1, n)), np.eye(n) * scale,
                   rng.uniform(0.0, 3.0 * scale, (CHALLENGE_STARTS, n))])
    eye = np.eye(n)
    live = np.ones(len(X), dtype=bool)
    for _ in range(CHALLENGE_ITERS):
        W = dense_apply(D, X) + q
        phi = np.minimum(X, W)
        merit = np.linalg.norm(phi, axis=1)
        live &= np.isfinite(merit) & (merit > CHALLENGE_TOL * 1e-3)
        if not live.any():
            break
        idx = np.flatnonzero(live)
        J = np.where((X[idx] <= W[idx])[:, :, None], eye, dense_jacobian(D, X[idx]))
        try:
            d = np.linalg.solve(J, -phi[idx][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            d = np.array([np.linalg.lstsq(Js, -ps, rcond=None)[0]
                          for Js, ps in zip(J, phi[idx])])
        # backtracking for all live starts at once; a start that cannot
        # descend is dropped
        t = np.ones(len(idx))
        pending = np.all(np.isfinite(d), axis=1)
        moved = np.zeros(len(idx), dtype=bool)
        for _ in range(40):
            if not pending.any():
                break
            cand = X[idx] + t[:, None] * d
            mc = np.linalg.norm(np.minimum(cand, dense_apply(D, cand) + q), axis=1)
            ok = pending & (mc < merit[idx] * (1.0 - 1e-4 * t))
            X[idx[ok]] = cand[ok]
            moved |= ok
            pending &= ~ok
            t[pending] *= 0.5
        live[idx[~moved]] = False
    for x in X:
        x = np.maximum(x, 0.0)
        if np.all(np.isfinite(x)) and tcp_residual(D, q, x) <= MEMBER_TOL:
            return f"min-map Newton found a solution x = {np.round(x, 9).tolist()}"
    return None


def check_membership(D, q, result, seed: int) -> str | None:
    if result.member is True:
        return check_member(D, q, result)
    if result.member is False:
        return challenge_non_member(D, q, seed)
    return None


def check_stability(label: str, result) -> str | None:
    """Criterion 7's bounds, and the persistence bounds of the probe tests."""
    if label == "local_uniqueness_certificate":
        if result.status != "holds" or result.certificate < UNIQUENESS_BOUND:
            return f"uniqueness {result.status} at {result.certificate}"
    elif label == "perturb_existence":
        if result.solvable_fraction != 1.0:
            return f"solvable fraction {result.solvable_fraction}"
    elif label.startswith("error_bound_probe"):
        if result.error_ratio_max > ERROR_RATIO_BOUND:
            return f"error ratio {result.error_ratio_max} > {ERROR_RATIO_BOUND}"
    elif label == "usc_probe":
        if result["max_excursion"] > EXCURSION_BOUND:
            return f"excursion {result['max_excursion']} > {EXCURSION_BOUND}"
    elif label == "unsolvable_neighborhood_probe":
        if result["fraction_unsolvable"] != 1.0:
            return f"fraction unsolvable {result['fraction_unsolvable']}"
    elif label == "nonsingularity_openness_probe":
        if result["fraction_nonsingular"] != 1.0:
            return f"fraction nonsingular {result['fraction_nonsingular']}"
    return None


def check_error_bound_pair(r3, r4) -> str | None:
    """Criterion 7: the two error-bound ratios agree within a factor of 2."""
    hi = max(r3.error_ratio_max, r4.error_ratio_max)
    lo = min(r3.error_ratio_max, r4.error_ratio_max)
    if not hi <= ERROR_RATIO_SPREAD * lo:
        return f"error-bound ratios not within {ERROR_RATIO_SPREAD:g}x: {lo} vs {hi}"
    return None


def check_cli(result, first_stdout: bytes | None) -> str | None:
    """Exit code 0, one JSON report, and the same bytes as the first run."""
    if result.returncode != 0:
        tail = result.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return f"exit code {result.returncode}: {' '.join(tail)[:160]}"
    try:
        json.loads(result.stdout)
    except ValueError as e:
        return f"stdout is not JSON: {e}"
    if not result.stdout.endswith(b"\n"):
        return "stdout does not end with a newline"
    if first_stdout is not None and result.stdout != first_stdout:
        return "stdout differs from the first run of the same command"
    return None
