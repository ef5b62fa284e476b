"""Stdlib-only lattice helpers the benchmark uses to build and check inputs.

Nothing here imports plumblat: the corpus, fundamental cycles, dual base
elements and the rationality check are computed independently of the
library code paths the benchmark measures.
"""

from fractions import Fraction

# Unlabeled tree shapes with at most 5 vertices, as edge lists on 0..n-1.
SHAPES = (
    (1, ()),
    (2, ((0, 1),)),
    (3, ((0, 1), (1, 2))),
    (4, ((0, 1), (1, 2), (2, 3))),
    (4, ((0, 1), (0, 2), (0, 3))),
    (5, ((0, 1), (1, 2), (2, 3), (3, 4))),
    (5, ((0, 1), (0, 2), (0, 3), (0, 4))),
    (5, ((0, 1), (1, 2), (2, 3), (2, 4))),
)

CORPUS_SIZE = 3533
CORPUS_RATIONAL = 3361


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def is_negative_definite(euler, edges):
    """Leaf-first elimination of -I on a tree: every pivot must be positive."""
    n = len(euler)
    adj = _adjacency(n, edges)
    order, parent, seen = [], [-1] * n, [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)
    pivot = [Fraction(-e) for e in euler]
    for v in reversed(order):
        if pivot[v] <= 0:
            return False
        if parent[v] >= 0:
            pivot[parent[v]] -= 1 / pivot[v]
    return True


def _canonical(euler, edges):
    """Isomorphism-invariant code of a decorated tree, rooted at a centroid."""
    n = len(euler)
    adj = _adjacency(n, edges)
    alive = set(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in alive if deg[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for w in adj[v]:
                if w in alive:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt

    def code(v, parent):
        return (euler[v], tuple(sorted(code(w, v) for w in adj[v] if w != parent)))

    return min(code(c, None) for c in alive)


def tree_corpus(euler_lo=-5, euler_hi=-1):
    """Every negative-definite decorated tree with at most 5 vertices and
    Euler numbers in [euler_lo, euler_hi], one per isomorphism class, as
    ``(euler_tuple, edge_tuple)`` in a fixed generation order."""
    from itertools import product

    seen = set()
    out = []
    for n, edges in SHAPES:
        for euler in product(range(euler_lo, euler_hi + 1), repeat=n):
            if not is_negative_definite(euler, edges):
                continue
            key = _canonical(euler, edges)
            if key not in seen:
                seen.add(key)
                out.append((euler, edges))
    return out


def matrix(euler, edges):
    n = len(euler)
    m = [[0] * n for _ in range(n)]
    for i, e in enumerate(euler):
        m[i][i] = e
    for i, j in edges:
        m[i][j] = m[j][i] = 1
    return m


def fundamental_cycle(euler, edges):
    """Laufer's algorithm in integers: the minimal nonzero antinef cycle."""
    m = matrix(euler, edges)
    n = len(euler)
    z = [1] * n
    while True:
        v = next((i for i in range(n) if sum(m[i][j] * z[j] for j in range(n)) > 0), None)
        if v is None:
            return z
        z[v] += 1


def chi(euler, edges, l):
    """chi(l) = (-(l, l) + sum l_v (e_v + 2)) / 2, using (Z_K, E_v) = e_v + 2."""
    m = matrix(euler, edges)
    n = len(euler)
    self_pairing = sum(l[i] * m[i][j] * l[j] for i in range(n) for j in range(n))
    return Fraction(-self_pairing + sum(c * (e + 2) for c, e in zip(l, euler)), 2)


def is_rational_laufer(euler, edges):
    """Laufer's criterion: the singularity is rational iff chi(Z_min) = 1."""
    return chi(euler, edges, fundamental_cycle(euler, edges)) == 1


def estar(euler, edges, v):
    """Coefficients of E*_v, the v-column of -I^{-1}, by Gauss-Jordan."""
    m = matrix(euler, edges)
    n = len(euler)
    a = [[Fraction(x) for x in row] + [Fraction(-int(i == v))] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n] for row in a]


def box_points(hi):
    size = 1
    for h in hi:
        size *= h + 1
    return size
