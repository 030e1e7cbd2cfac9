"""Every `holds` of the classifiers, re-checked in exact arithmetic.

A `holds` claims that the Bernstein coefficients of the verdict's
objective clear its threshold on every leaf of a subdivision of the basis
simplex, each coefficient moved against the rule by a bound on its
rounding.  Here the same rule is run on coefficients computed in
Fractions, with no slack: a leaf is cut at the midpoint of its longest
edge (the first in order among equals) until it clears.  A leaf the
library cleared with its slack clears here too, so an exact subdivision
must clear every leaf within the library's 30 cuts.  The coefficients are
computed here from the dense tensor; nothing comes from the library's
enclosure.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from tcpkit import _simplex
from tcpkit import fixtures as fx
from tcpkit.classify import is_copositive, is_K_nonsingular, is_K_regular, \
    is_strictly_copositive
from tcpkit.cones import orthant
from tcpkit.tensor import tensor_from_dense, unit_tensor

MARGIN = Fraction(_simplex.MARGIN)  # the verdicts' decision margin


def coefficients(T, V):
    """The Bernstein coefficients of every component T[i] (a form given by
    its d trailing axes) on the simplex with vertices the columns of V: the
    averages, over each class of index tuples equal up to order, of the
    entries of T[i] with every trailing axis contracted with V."""
    B, d, k = T, T.ndim - 1, V.shape[1]
    for _ in range(d):
        B = np.tensordot(B, V, axes=([1], [0]))
    out = []
    for comp in B:
        classes = {}
        for idx in itertools.product(range(k), repeat=d):
            classes.setdefault(tuple(sorted(idx)), []).append(comp[idx])
        out.append([sum(c) / len(c) for c in classes.values()])
    return out


def one_sided(c, bound):
    return min(c) >= bound or max(c) <= -bound


RULES = {  # verdict: (its objective's form, does a leaf with these coefficients clear)
    "copositive": ("xm", lambda cs: min(cs[0]) >= -MARGIN / 2),
    "strictly-copositive": ("xm", lambda cs: min(cs[0]) > MARGIN),
    "K-regular": ("xm", lambda cs: one_sided(cs[0], 2 * MARGIN)),
    "K-nonsingular": ("m1", lambda cs: any(one_sided(c, 2 * MARGIN) for c in cs)),
}


def halves(W):
    """W (vertices as columns) cut at the midpoint of its longest edge."""
    k = W.shape[1]
    edges = [(sum((W[:, a] - W[:, b]) ** 2), a, b) for a in range(k) for b in range(k)]
    top = max(e[0] for e in edges)
    _, a, b = next(e for e in edges if e[0] == top)
    mid = (W[:, a] + W[:, b]) / 2
    left, right = W.copy(), W.copy()
    left[:, a], right[:, b] = mid, mid
    return left, right


def exact_leaves(D, verdict, depth=30):
    """The leaves of the exact subdivision of the standard simplex for the
    verdict's rule on the dense tensor D, all of them cleared; fails when a
    leaf stays open past depth cuts."""
    form, clears = RULES[verdict]
    T = np.vectorize(Fraction, otypes=[object])(D)
    T = T[None] if form == "xm" else T
    n = D.shape[0]
    todo, done = [(np.vectorize(Fraction, otypes=[object])(np.eye(n)), 0)], 0
    while todo:
        W, level = todo.pop()
        if clears(coefficients(T, W)):
            done += 1
            continue
        assert level < depth, f"{verdict}: an exact leaf is open after {depth} cuts"
        todo.extend((half, level + 1) for half in halves(W))
    return done


def corpus(n):
    """Seeded m = 3 tensors of dimension n: random general, symmetric and
    copositive ones, the unit tensor and small perturbations of it, and
    sum x_i^3 - (sum x_i)^3 / n^2 (0 at the barycentre, >= 0 on the
    simplex) shifted by c (sum x_i)^3, so that its minimum on the simplex
    is c, just below and above the thresholds."""
    rng = np.random.default_rng(n)
    unit, flat = unit_tensor(3, n).to_dense(), np.ones((n,) * 3)
    out = [fx.random_tensor(kind, 3, n, s) for kind in ("general", "symmetric", "copositive")
           for s in range(3)]
    out.append(unit_tensor(3, n))
    out += [tensor_from_dense(unit + eps * rng.normal(size=(n,) * 3)) for eps in (0.3, 0.1, 0.01)]
    out += [tensor_from_dense(unit + (c - n ** -2.0) * flat) for c in (-1e-3, 0.0, 1e-3)]
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_holds_clears_in_exact_arithmetic(n):
    K, held = orthant(n), set()
    for A in corpus(n):
        for verdict in (is_copositive(A), is_strictly_copositive(A), is_K_regular(A, K),
                        is_K_nonsingular(A, K)):
            if verdict.status == "holds":
                assert exact_leaves(A.to_dense(), verdict.property) >= 1
                held.add(verdict.property)
    assert held == set(RULES)  # the corpus reaches every rule
