"""Exact linear algebra over the integers and the rationals.

No module of the library calls these routines.  A graph is validated by
one leaf-to-root pass of subtree determinants (``graph._forest_dets``),
its lattice data comes from branch determinants over the same tree (det
and the adjugate's diagonal from ``graph._branch_dets``, and Z_K and the
dual base from the solve ``graph._adj_solve``), and a blow-up chain
writes its pullback rows down directly.  The Fraction and integer
routines below (``invert``, ``solve``, ``mat_vec``, ``identity``,
``mat_mul``, ``leading_minors`` and ``det_bareiss``) are the independent
references the tests compare against.  The package imports this module
only because the benchmark's tracer (``plumbench/spans.py``) looks its
targets up among the loaded modules.  No floating point is used anywhere
in the package.
"""

from fractions import Fraction


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
