"""Stacks of tensors evaluated row by row.

A batch of points whose row r belongs to the tensor own[r] of a stack is
evaluated through the two steps of ``tensor``'s kernel, each row with its
own tensor's coefficients: every row gets the bits ``apply_m1`` and
``jacobian_m1`` give it with its tensor alone.  The stacked support walk,
the stacked min-map Newton and the stacked basis minimisation read their
tensors this way.  A stack of dense arrays, such as a probe's perturbed
tensors, becomes its forms directly (``_Forms.dense``), with no tensor per
instance.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _dense_form, _derivative, _rows_m1

_STACK_ENTRIES = 2**12  # gathered coefficients (rows x T x n) per block of _Forms.eval


class _Forms:
    """Tensors of one order and dimension, for batches whose row r is
    evaluated with the tensor own[r].  The tensors that share _tails form
    one group, whose rows read their coefficients from the group's (S, T, n)
    stack through _rows_m1 and _derivative: every row gets the bits
    apply_m1 and jacobian_m1 give it with its own tensor."""

    def __init__(self, tensors):
        groups = {}
        for i, A in enumerate(tensors):
            groups.setdefault(A._tails.tobytes(), []).append(i)
        self._set([(tensors[m[0]], np.stack([tensors[i]._coef for i in m]), m)
                   for m in groups.values()])

    @classmethod
    def dense(cls, D) -> "_Forms":
        """_Forms(_dense_stack(D)) for an (S, n, ..., n) stack D, with no
        tensor per instance: the groups in the same order, the same
        coefficient bits.  An instance keeps the tails of its nonzero rows
        (-0.0 stored as 0.0), so the instances of one nonzero-row pattern
        are one group, its tensor built from its first instance's form; a
        non-finite entry raises as in _dense_stack."""
        m, n, tails, coefs = _dense_form(D)
        coefs = coefs + 0.0
        nonzero, split = np.any(coefs != 0.0, axis=2), {}
        for s, row in enumerate(nonzero):
            split.setdefault(row.tobytes(), []).append(s)
        firsts = Tensor._from_forms(m, n, tails, coefs[[at[0] for at in split.values()]])
        forms = object.__new__(cls)
        forms._set([(A, coefs[at][:, nonzero[at[0]]], at) for A, at in zip(firsts, split.values())])
        return forms

    def take(self, rows) -> "_Forms":
        """_Forms([tensors[i] for i in rows]), tensors this one's: the groups
        in order of their first instance in rows, each instance with its
        coefficients, each group's A kept (_set)."""
        g, parts = self.group[rows], []
        for h in dict.fromkeys(g.tolist()):
            at = np.flatnonzero(g == h)
            parts.append((self.groups[h][0], self.groups[h][1][self.slot[rows[at]]], at))
        forms = object.__new__(_Forms)
        forms._set(parts)
        return forms

    def _set(self, parts, off=None):
        """The groups (A, coef, members), members the instances whose
        coefficients are the rows of coef, in instance order, and A a tensor
        with their tails (whose own coefficients nothing reads); off, for
        the forms of a cut, the rows outside it (cut), else None."""
        self.groups, self.off = [(A, coef) for A, coef, _ in parts], off
        self.group, self.slot = np.empty((2, sum(len(m) for *_, m in parts)), dtype=np.intp)
        for g, (*_, m) in enumerate(parts):
            self.group[m], self.slot[m] = g, np.arange(len(m))

    def cut(self, a) -> "_Forms":
        """The forms of the principal sub-tensors on the sorted 0-based
        indices a: every instance gets the tails and coefficients
        principal_subtensor gives it.  Each group's stacked coefficients are
        cut once (the tails and columns inside a); an instance then drops
        the rows it holds all zero, so the group splits by its instances'
        nonzero-row patterns, each part keeping its instances in order.  Its
        off is (the tails inside a, the coefficients of the rows outside a)."""
        pos = np.full(self.groups[0][0].dim, -1)
        pos[a] = np.arange(len(a))
        parts, off, comp = [], [], np.flatnonzero(pos < 0)
        for g, (A, coef) in enumerate(self.groups):
            tails = pos[A._tails]  # pos is increasing on a, so kept rows stay sorted
            inside = np.all(tails >= 0, axis=1)
            tails, whole = tails[inside], coef[:, inside]
            sub = whole[:, :, a]
            nonzero = np.any(sub != 0.0, axis=2)
            split = {}
            for s, row in enumerate(nonzero):
                split.setdefault(row.tobytes(), []).append(s)
            members = np.flatnonzero(self.group == g)
            for at in split.values():
                keep = nonzero[at[0]]
                B = object.__new__(Tensor)  # _from_form's tensor: A is finite, keep nonzero
                B.__dict__.update(order=A.order, dim=len(a), _tails=tails[keep],
                                  _coef=sub[at[0]][keep] + 0.0)
                parts.append((B, sub[at][:, keep], members[at]))
                off.append((tails, whole[at][:, :, comp]))
        forms = object.__new__(_Forms)
        forms._set(parts, off)
        return forms

    def m1(self, X: np.ndarray, own: np.ndarray) -> np.ndarray:
        """A x^{m-1} at every row x of X, A its own tensor."""
        return self.eval(X, own)[0]

    def eval(self, X: np.ndarray, own: np.ndarray, m1: bool = True, jac: bool = False):
        """(A x^{m-1} if m1, its Jacobian if jac) at every row x of X, A its
        own tensor; None for what is not asked."""
        if len(self.groups) == 1:
            return self._group(*self.groups[0], X, self.slot[own], m1, jac)
        n = X.shape[-1]
        F, J = np.empty(X.shape) if m1 else None, np.empty(X.shape + (n,)) if jac else None
        for g, (A, coef) in enumerate(self.groups):
            r = np.flatnonzero(self.group[own] == g)
            Fr, Jr = self._group(A, coef, X[r], self.slot[own[r]], m1, jac)
            if m1:
                F[r] = Fr
            if jac:
                J[r] = Jr
        return F, J

    @staticmethod
    def _group(A: Tensor, coef: np.ndarray, X: np.ndarray, slot: np.ndarray, m1: bool, jac: bool):
        """eval for the rows of one group, row r with the tensor slot[r] of
        the group's stack: a stack of one is broadcast, the same bits without
        a gather; a larger one is gathered in blocks of about _STACK_ENTRIES
        coefficients."""
        at = range(A.order - 1)
        if len(coef) == 1:
            return (_rows_m1(A, X, coef[0]) if m1 else None,
                    _derivative(A, X, at, coef[0]) if jac else None)
        n = X.shape[-1]
        F, J = np.empty(X.shape) if m1 else None, np.empty(X.shape + (n,)) if jac else None
        step = max(1, _STACK_ENTRIES // max(coef[0].size, 1))
        for s in range(0, len(X), step):
            C = coef.take(slot[s:s + step], axis=0)
            if m1:
                F[s:s + step] = _rows_m1(A, X[s:s + step], C)
            if jac:
                J[s:s + step] = _derivative(A, X[s:s + step], at, C)
        return F, J
