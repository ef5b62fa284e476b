"""Certified search of integer quadratics over boxes, in exact Python
integers.

The objective is f(l) = l^T P l + q . l with P symmetric positive
definite over the integer box [lo, hi].  One depth-first enumerator
(Fincke-Pohst branch and bound) serves every caller; Artin's test and
the lattice data of a graph use none of this module and read the tree
instead (``chimin._artin_min``, ``graph.intersection_data``).  It fixes the
coordinates in lexicographic order, l_0 first and the last coordinate
fastest.  With l_0..l_{k-1} fixed, let g_k be the minimum of f over real
values of the remaining coordinates; then

    g_{k+1} = g_k + D_k (l_k - mu_k)^2,   D_k = Delta_k / Delta_{k+1},

where Delta_k = det P[k:, k:] (Delta_n = 1) and mu_k, the real minimizer
in l_k, is affine in the fixed prefix.  The D_k are the pivots of an
LDL^T of P that eliminates the trailing coordinates first, taken from
one forward fraction-free pass over P (``_factor``).  The walk
keeps G_k = 4 Delta_k g_k and M_k = 2 Delta_k mu_k, both integers, and
runs l_k upward over the integer interval where g_{k+1} <= bound
(``isqrt``), cut to the box.  No point below a pruned node can reach the
bound, so only the root-to-leaf paths that still can are visited.

``box_values`` yields the (point, value) pairs with value <= bound in
lexicographic order, last coordinate fastest, or every box point when
the bound is None.
``min_quadratic_box`` runs the same walk from the value of a feasible
point (at each depth the integer nearest mu_k, clamped to the box) and
lowers the bound below every value it reaches, so the last point it
reaches is the lexicographically smallest argmin.

The box stays the certificate: callers count and budget its points, not
the nodes the walk visits.
"""

from functools import lru_cache
from math import isqrt
from operator import mul


def backend_name():
    return "python"


def _check_box(lo, hi):
    n = len(lo)
    if n == 0 or len(hi) != n:
        raise ValueError("bad box")
    for a, b in zip(lo, hi):
        if a > b:
            raise ValueError("empty box")
    return n


def box_size(lo, hi):
    size = 1
    for a, b in zip(lo, hi):
        size *= b - a + 1
    return size


@lru_cache(maxsize=256)
def _factor(P):
    """The walk's data of P (a tuple of row tuples): Delta_0..Delta_n, and
    per depth k the prefix coefficients -2 u_k of M_k and the row a_k,
    where a_k is the first row of adj P[k:, k:] and u_k[j] = a_k . P[k:, j]
    for j < k, so that M_k = -a_k . q[k:] - 2 u_k . l[:k].

    One forward fraction-free pass (Bareiss) over [P | I] with the
    coordinates reversed gives them all: when coordinate k becomes the
    pivot, its row holds the determinants of P[k:, k:] with the first
    column replaced by a column of P (Delta_k, u_k) or of I (a_k).
    """
    n = len(P)
    rows = [
        [P[n - 1 - i][n - 1 - j] for j in range(n)] + [int(i == j) for j in range(n)]
        for i in range(n)
    ]
    delta, coeffs, heads = [1] * (n + 1), [None] * n, [None] * n
    prev = 1
    for s, pivot_row in enumerate(rows):
        p = pivot_row[s]
        if p <= 0:
            raise ValueError("quadratic form is not positive definite")
        k = n - 1 - s
        delta[k] = p
        coeffs[k] = tuple(-2 * pivot_row[n - 1 - j] for j in range(k))
        heads[k] = tuple(pivot_row[n + s - i] for i in range(s + 1))
        tail = pivot_row[s + 1:]
        for row in rows[s + 1:]:
            f = row[s]
            row[s + 1:] = [(p * a - f * b) // prev for a, b in zip(row[s + 1:], tail)]
        prev = p
    return tuple(delta), tuple(coeffs), tuple(heads)


class _Walk:
    """The integer data of one search: the pivots Delta_k, M_k as const_k
    plus coeffs_k . l[:k], and G_0."""

    __slots__ = ("lo", "hi", "delta", "coeffs", "const", "g0")

    def __init__(self, P, q, lo, hi):
        _check_box(lo, hi)
        delta, self.coeffs, heads = _factor(tuple(map(tuple, P)))
        self.lo, self.hi, self.delta = lo, hi, delta
        qa = [sum(map(mul, a, q[k:])) for k, a in enumerate(heads)]
        self.const = [-x for x in qa]
        # G_0 by running the recursion backward from f(0) = 0
        g = 0
        for k in range(len(qa) - 1, -1, -1):
            g = (delta[k] * g - qa[k] * qa[k]) // delta[k + 1]
        self.g0 = g

    def feasible_value(self):
        """f at the point whose l_k is the integer nearest mu_k, clamped
        to the box, at each depth."""
        delta, g, point = self.delta, self.g0, []
        for k, (lo_k, hi_k) in enumerate(zip(self.lo, self.hi)):
            d = delta[k]
            m = self.const[k] + sum(map(mul, self.coeffs[k], point))
            t = min(max((m + d) // (2 * d), lo_k), hi_k)
            e = 2 * d * t - m
            g = (delta[k + 1] * g + e * e) // d
            point.append(t)
        return g // 4

    def points(self, bound, shrink=False):
        """(point, value) pairs with value <= bound in lexicographic order,
        last coordinate fastest (every box point when bound is None).
        With ``shrink`` the bound drops to one below each value yielded,
        so the values strictly decrease and the last pair is the
        lexicographically smallest argmin."""
        lo, hi, delta, coeffs, const = self.lo, self.hi, self.delta, self.coeffs, self.const
        n = len(lo)
        x = [0] * n
        g = [self.g0] + [0] * n
        e = [0] * n  # 2 Delta_k l_k - M_k at the current l_k
        top = [0] * n
        base = [0] * n  # Delta_{k+1} G_k
        # g_k <= bound iff G_k <= lim[k]
        lim = None if bound is None else [4 * dk * bound for dk in delta]
        k, enter = 0, True
        while True:
            d = delta[k]
            if enter:
                m = const[k] + sum(map(mul, coeffs[k], x))
                t0, t1 = lo[k], hi[k]
                if lim is not None:
                    r = delta[k + 1] * (lim[k] - g[k])
                    if r < 0:
                        t0, t1 = 1, 0
                    else:
                        s = isqrt(r)
                        t0 = max(t0, (m - s + 2 * d - 1) // (2 * d))
                        t1 = min(t1, (m + s) // (2 * d))
                if t0 > t1:
                    k, enter = k - 1, False
                    if k < 0:
                        return
                    continue
                x[k], top[k] = t0, t1
                e[k] = 2 * d * t0 - m
                base[k] = delta[k + 1] * g[k]
            elif x[k] < top[k]:
                x[k] += 1
                e[k] += 2 * d
            else:
                k -= 1
                if k < 0:
                    return
                continue
            ek = e[k]
            gk = (base[k] + ek * ek) // d
            if lim is not None and gk > lim[k + 1]:
                # only reachable after the bound dropped; past mu_k every
                # later l_k is worse
                if ek > 0:
                    top[k] = x[k]
                enter = False
                continue
            if k + 1 < n:
                g[k + 1] = gk
                k, enter = k + 1, True
                continue
            yield tuple(x), gk // 4
            if shrink:
                bound = gk // 4 - 1
                lim = [4 * dk * bound for dk in delta]
            enter = False


def min_quadratic_box(P, q, lo, hi):
    """Minimize l^T P l + q.l over the box; returns (value, argmin tuple)
    with the lexicographically smallest argmin."""
    walk = _Walk(P, q, lo, hi)
    # the feasible point is never pruned, so the walk yields at least once
    for best in walk.points(walk.feasible_value(), shrink=True):
        pass
    point, value = best
    return value, point


def box_values(P, q, lo, hi, bound=None):
    """(point, value) pairs of l^T P l + q.l over the box, streamed in
    lexicographic order, last coordinate fastest; the box is checked at
    the call.  With ``bound``, only the pairs whose value is at most
    ``bound`` are yielded."""
    return _Walk(P, q, lo, hi).points(bound)
