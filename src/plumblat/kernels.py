"""Box minimization of integer quadratics, in exact Python integers.

The objective is f(l) = l^T P l + q . l with P symmetric positive
definite over the integer box [lo, hi]; the reported argmin is the
lexicographically smallest minimizer.  ``iter_box`` is the one walk over
a box: ``min_quadratic_box`` and ``box_values`` both run it over the
outer coordinates and treat the last one in closed form, so every caller
sees the points in the same lexicographic order.
"""

from math import isqrt


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


def _best_last(a, b, lo, hi):
    """Smallest integer t in [lo, hi] minimizing a*t^2 + b*t (a > 0)."""
    # floor of the continuous minimizer -b/(2a)
    t = (-b) // (2 * a)
    if t < lo:
        t = lo
    elif t >= hi:
        t = hi
    else:
        # compare t and t+1; strict: keep t on ties (smaller)
        if a * (2 * t + 1) + b < 0:
            t = t + 1
    return t, a * t * t + b * t


def box_size(lo, hi):
    size = 1
    for a, b in zip(lo, hi):
        size *= b - a + 1
    return size


def min_quadratic_box(P, q, lo, hi):
    """Minimize l^T P l + q.l over the box; returns (value, argmin tuple)."""
    n = _check_box(lo, hi)
    last = n - 1
    A = P[last][last]
    best_val = None
    best_point = None
    for outer in iter_box(lo[:last], hi[:last]):
        # partial value over coordinates 0..n-2 and linear term for the last
        c = 0
        b = q[last]
        for i in range(last):
            li = outer[i]
            row = P[i]
            c += q[i] * li
            c += row[i] * li * li
            for j in range(i + 1, last):
                c += 2 * row[j] * li * outer[j]
            b += 2 * P[last][i] * li
        t, inner = _best_last(A, b, lo[last], hi[last])
        val = c + inner
        if best_val is None or val < best_val:
            best_val = val
            best_point = outer + (t,)
    return best_val, best_point


def _sublevel(a, b, c):
    """Integer interval [t0, t1] where a*t^2 + b*t + c <= 0 (a > 0);
    t0 > t1 when there is none.

    The real roots are (-b -+ sqrt(disc)) / 2a.  For an integer k > 0,
    floor(x / k) = floor(floor(x) / k), and floor(sqrt(disc)) is
    isqrt(disc), so both integer ends come out exact.
    """
    disc = b * b - 4 * a * c
    if disc < 0:
        return 1, 0
    s = isqrt(disc)
    return -((b + s) // (2 * a)), (s - b) // (2 * a)


def box_values(P, q, lo, hi, bound=None):
    """(point, value) pairs of l^T P l + q.l over the box, streamed in
    ``iter_box`` order; the box is checked at the call.

    The outer coordinates are walked with ``iter_box``; per outer point
    the partial value c and the linear term b of the last coordinate are
    computed once, and the last coordinate t runs upward with value
    c + A*t^2 + b*t.  With ``bound``, only the pairs whose value is at
    most ``bound`` are yielded: t runs over the exact integer interval
    where A*t^2 + b*t + c <= bound, cut to the box.
    """
    n = _check_box(lo, hi)
    last = n - 1
    A = P[last][last]
    lo_t, hi_t = lo[last], hi[last]

    def pairs():
        for outer in iter_box(lo[:last], hi[:last]):
            c = 0
            b = q[last]
            for i in range(last):
                li = outer[i]
                row = P[i]
                c += q[i] * li
                c += row[i] * li * li
                for j in range(i + 1, last):
                    c += 2 * row[j] * li * outer[j]
                b += 2 * P[last][i] * li
            t0, t1 = lo_t, hi_t
            if bound is not None:
                s0, s1 = _sublevel(A, b, c - bound)
                t0, t1 = max(t0, s0), min(t1, s1)
            for t in range(t0, t1 + 1):
                yield outer + (t,), c + (A * t + b) * t

    return pairs()


def iter_box(lo, hi):
    """Integer points of the box in lexicographic order, last coordinate
    fastest; a box of dimension 0 yields ``()`` once."""
    n = len(lo)
    point = list(lo)
    while True:
        yield tuple(point)
        k = n - 1
        while k >= 0:
            if point[k] < hi[k]:
                point[k] += 1
                break
            point[k] = lo[k]
            k -= 1
        if k < 0:
            return
