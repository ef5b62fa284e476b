"""Box minimization of integer quadratics, in exact Python integers.

The objective is f(l) = l^T P l + q . l with P symmetric positive
definite over the integer box [lo, hi]; the reported argmin is the
lexicographically smallest minimizer.  ``iter_box`` is the one walk over
a box: ``min_quadratic_box`` runs it over the outer coordinates and
``box_values`` over all of them, so every caller sees the points in the
same lexicographic order.
"""


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


def box_values(P, q, lo, hi):
    """(point, value) pairs of l^T P l + q.l over the box, streamed in
    ``iter_box`` order; the box is checked at the call."""
    n = _check_box(lo, hi)

    def pairs():
        for point in iter_box(lo, hi):
            v = 0
            for i in range(n):
                li = point[i]
                row = P[i]
                v += q[i] * li + row[i] * li * li
                for j in range(i + 1, n):
                    v += 2 * row[j] * li * point[j]
            yield point, v

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
