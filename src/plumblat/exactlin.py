"""Exact linear algebra over the integers and the rationals.

The lattice data of a graph comes from two fraction-free passes over its
integer intersection matrix (Bareiss 1968), done in Python integers:

* :func:`det_adjugate` is one Gauss-Jordan pass on ``[M | 1]`` that
  returns ``det M`` and the integer adjugate ``adj M = det M * M^-1``,
  and checks ``M adj = det 1`` in integers before returning;
* :func:`bareiss_pivots` is the forward pass alone; its pivots are the
  leading principal minors, which decide negative definiteness.

``graph.IntersectionData`` stores ``det`` and the integer adjugate, and
no Fraction inverse.  Every cycle in the dual lattice has a denominator
dividing ``|det|``.

``mat_mul`` composes the pullback matrices of blow-up chains.  The
certified searches take nothing else from this module: ``chimin`` and
``kernels`` set them up in integers, square roots by ``math.isqrt``.
The Fraction and per-minor routines below (``invert``, ``solve``,
``mat_vec``, ``identity``, ``leading_minors`` and ``det_bareiss``) have
no caller in the library; they are the independent references the tests
compare against, and the benchmark's tracer (``plumbench/spans.py``)
binds some of them by name.  No floating point is used anywhere in the
package.
"""

from fractions import Fraction
from operator import mul


def det_adjugate(m):
    """``(det, adjugate)`` of a square integer matrix, both exact integers.

    Fraction-free Gauss-Jordan elimination on ``[m | 1]``: after step k
    every entry is a (k+1)-minor of the augmented matrix, so each
    division is exact, and at the end the left block is ``d 1`` and the
    right block is ``d m^-1`` with ``d`` the determinant of the
    row-exchanged matrix.  Raises ValueError on a singular matrix.
    """
    n = len(m)
    a = [
        [int(v) for v in row] + [int(i == j) for j in range(n)]
        for i, row in enumerate(m)
    ]
    width = 2 * n
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if a[j][k] != 0), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        rk = a[k]
        p = rk[k]
        for i in range(n):
            if i == k:
                continue
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, width):
                ri[j] = (p * ri[j] - f * rk[j]) // prev
            ri[k] = 0
        prev = p
    det = sign * prev
    adj = [[sign * v for v in row[n:]] for row in a]
    cols = list(zip(*adj))
    for i, row in enumerate(m):
        for j, col in enumerate(cols):
            if sum(map(mul, row, col)) != (det if i == j else 0):
                raise AssertionError("adjugate verification failed")
    return det, adj


def bareiss_pivots(m):
    """Leading principal minors of a square integer matrix, k = 1..n.

    They are the pivots of the forward Bareiss pass without row
    exchanges.  The pass stops at the first zero minor, which is then
    the last entry of the returned list.
    """
    n = len(m)
    a = [[int(v) for v in row] for row in m]
    pivots = []
    prev = 1
    for k in range(n):
        rk = a[k]
        p = rk[k]
        pivots.append(p)
        if p == 0:
            break
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (p * ri[j] - f * rk[j]) // prev
        prev = p
    return pivots


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_vec(m, x):
    return [sum(row[j] * x[j] for j in range(len(x))) for row in m]


def mat_mul(a, b):
    n, k, p = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(p)]
        for i in range(n)
    ]


def invert(m):
    """Inverse of a square rational matrix by Gauss-Jordan elimination.

    Raises ValueError on a singular matrix.
    """
    n = len(m)
    x = [[Fraction(v) for v in row] for row in m]
    y = identity(n)
    for i in range(n):
        pivot = next((j for j in range(i, n) if x[j][i] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        if pivot != i:
            x[i], x[pivot] = x[pivot], x[i]
            y[i], y[pivot] = y[pivot], y[i]
        p = x[i][i]
        x[i] = [v / p for v in x[i]]
        y[i] = [v / p for v in y[i]]
        for j in range(n):
            if j != i and x[j][i] != 0:
                f = x[j][i]
                x[j] = [a - f * b for a, b in zip(x[j], x[i])]
                y[j] = [a - f * b for a, b in zip(y[j], y[i])]
    return y


def solve(m, b):
    """Solve m x = b exactly."""
    return mat_vec(invert(m), [Fraction(v) for v in b])


def det_bareiss(m):
    """Determinant of an integer matrix by Bareiss fraction-free elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [[int(v) for v in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if a[j][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_minors(m):
    """Determinants of the leading principal k x k submatrices, k = 1..n."""
    n = len(m)
    return [
        det_bareiss([row[: k + 1] for row in m[: k + 1]]) for k in range(n)
    ]
