"""Exact TCP membership oracle for m = 3, n = 2 orthant instances.

Shares no code with tcpkit.  Every entry is read as a Fraction, which is
exact on doubles, and each support is decided in rational arithmetic, the
roots of a quadratic kept symbolic in Q(sqrt(D)).

q is a member when some x >= 0 has w = A x^2 + q >= 0 and x.w = 0, where
(A x^2)_i = sum_jk a_ijk x_j x_k.  By the support of x:
  - empty: x = 0, so q >= 0;
  - {i}: x = t e_i with a_iii t^2 = -q_i > 0 and w_j = a_jii t^2 + q_j >= 0;
  - {0, 1}: x = x_0 (1, s) with x_0, s > 0.  With P_i(s) the i-th component
    of A (1, s)^2 and q_r < 0, x_0^2 = -q_r / P_r(s), so s > 0 is a root of
    q_o P_r(s) - q_r P_o(s) (o the other index) with P_r(s) > 0.
A zero leading coefficient (a_iii = 0, or a quadratic of degree < 2) leaves
the verdict undecided unless another support shows a member.
"""

from fractions import Fraction


def _sign(a, b, D):
    """Sign of a + b sqrt(D) for rationals a, b and D >= 0 (b = 0 if D = 0)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    lhs, rhs = a * a, b * b * D
    return sa if lhs > rhs else (sb if rhs > lhs else 0)


def exact_membership(dense, q):
    """True (member), False (non-member) or None (undecided) for the TCP of
    the 2 x 2 x 2 array dense and q over the nonnegative orthant."""
    a = [[[Fraction(float(dense[i][j][k])) for k in range(2)] for j in range(2)]
         for i in range(2)]
    q = [Fraction(float(v)) for v in q]
    if min(q) >= 0:
        return True
    undecided = False
    for i, j in ((0, 1), (1, 0)):
        if a[i][i][i] == 0:
            undecided = True
            continue
        t2 = -q[i] / a[i][i][i]
        if t2 > 0 and a[j][i][i] * t2 + q[j] >= 0:
            return True
    r = 0 if q[0] < 0 else 1
    o = 1 - r
    P = [(a[i][0][0], a[i][0][1] + a[i][1][0], a[i][1][1]) for i in range(2)]
    c0, c1, c2 = (q[o] * P[r][d] - q[r] * P[o][d] for d in range(3))
    if c2 == 0:
        return None
    D = c1 * c1 - 4 * c2 * c0
    u, v = -c1 / (2 * c2), 1 / (2 * c2)
    p0, p1, p2 = P[r]
    for w in ((v, -v) if D > 0 else (0,) if D == 0 else ()):
        # s = u + w sqrt(D); P_r(s) = p0 + p1 s + p2 s^2
        Pa = p0 + p1 * u + p2 * (u * u + w * w * D)
        Pb = p1 * w + 2 * p2 * u * w
        if _sign(u, w, D) > 0 and _sign(Pa, Pb, D) > 0:
            return True
    return None if undecided else False
