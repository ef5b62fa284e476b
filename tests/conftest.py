"""Shared fixtures, random graph generators, and brute-force oracles.

The brute-force helpers here are deliberately independent of the library
paths they check: plain Fraction/numpy enumeration, no certified boxes,
no Laufer iteration.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from plumblat import (
    Cycle,
    PlumbingGraph,
    ValidationError,
    chi,
)

# -- acceptance gate reporting ---------------------------------------------

# one line per acceptance criterion, filled in by tests/test_acceptance.py
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


# -- standard graphs -------------------------------------------------------


def graph_a1():
    return PlumbingGraph([("v", -2)], [])


def graph_a2():
    return PlumbingGraph([("a", -2), ("b", -2)], [("a", "b")])


def graph_an(n, euler=-2):
    verts = [(f"v{i}", euler) for i in range(1, n + 1)]
    edges = [(f"v{i}", f"v{i+1}") for i in range(1, n)]
    return PlumbingGraph(verts, edges)


def graph_d4():
    verts = [("c", -2), ("a", -2), ("b", -2), ("d", -2)]
    edges = [("c", "a"), ("c", "b"), ("c", "d")]
    return PlumbingGraph(verts, edges)


def graph_e8():
    # Bourbaki ordering: chain v1-v3-v4-v5-v6-v7-v8 with v2 on v4
    verts = [(f"v{i}", -2) for i in range(1, 9)]
    edges = [
        ("v1", "v3"),
        ("v3", "v4"),
        ("v4", "v5"),
        ("v5", "v6"),
        ("v6", "v7"),
        ("v7", "v8"),
        ("v2", "v4"),
    ]
    return PlumbingGraph(verts, edges)


def graph_t237():
    verts = [("c", -1), ("p", -2), ("q", -3), ("r", -7)]
    edges = [("c", "p"), ("c", "q"), ("c", "r")]
    return PlumbingGraph(verts, edges)


@pytest.fixture
def a1():
    return graph_a1()


@pytest.fixture
def a2():
    return graph_a2()


@pytest.fixture
def e8():
    return graph_e8()


@pytest.fixture
def t237():
    return graph_t237()


# -- random generation -----------------------------------------------------


def random_tree(rng, max_n=8, euler_range=(-12, -1)):
    """A random valid plumbing graph: random tree shape and Euler numbers,
    resampled until the intersection form is negative definite."""
    while True:
        n = rng.randint(1, max_n)
        verts = [
            (f"v{i}", rng.randint(euler_range[0], euler_range[1]))
            for i in range(1, n + 1)
        ]
        edges = [
            (f"v{i}", f"v{rng.randint(1, i - 1)}") for i in range(2, n + 1)
        ]
        try:
            return PlumbingGraph(verts, edges)
        except ValidationError:
            continue


def random_effective_cycle(rng, g, max_coeff=3):
    return Cycle(g, [rng.randint(0, max_coeff) for _ in range(g.n)])


def random_rat_cycle(rng, g, span=4, den=3):
    return Cycle(
        g,
        [
            Fraction(rng.randint(-span, span), rng.randint(1, den))
            for _ in range(g.n)
        ],
    )


# -- exhaustive small-tree corpus -----------------------------------------


def _canonical(g):
    """Isomorphism-invariant signature of a decorated tree (AHU encoding
    rooted at the centroid)."""
    n = g.n
    if n == 1:
        return (g.euler[0],)
    adj = {i: set() for i in range(n)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)

    # centroid(s) by leaf stripping
    deg = {i: len(adj[i]) for i in range(n)}
    alive = set(range(n))
    layer = [i for i in alive if deg[i] <= 1]
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

    def encode(v, parent):
        kids = sorted(
            encode(w, v) for w in adj[v] if w != parent
        )
        return (g.euler[v], tuple(kids))

    return min(encode(c, None) for c in alive)


def small_tree_corpus(max_n=5, euler_range=(-5, -1)):
    """Every negative-definite decorated tree with at most max_n vertices
    and Euler numbers in the range, up to decorated-tree isomorphism."""
    lo, hi = euler_range
    seen = set()
    corpus = []
    for n in range(1, max_n + 1):
        if n == 1:
            shapes = [[]]
        elif n == 2:
            shapes = [[(0, 1)]]
        else:
            # labeled trees via Pruefer sequences, one representative per
            # unlabeled shape (decorated dedup happens below); Euler number
            # -n makes the form diagonally dominant, so every shape is valid
            shapes = []
            shape_seen = set()
            for seq in itertools.product(range(n), repeat=n - 2):
                edges = _pruefer_edges(seq, n)
                g = PlumbingGraph(
                    [(f"v{i}", -n) for i in range(n)],
                    [(f"v{i}", f"v{j}") for i, j in edges],
                )
                sig = _canonical(g)
                if sig not in shape_seen:
                    shape_seen.add(sig)
                    shapes.append(edges)
        for edges in shapes:
            for eulers in itertools.product(range(lo, hi + 1), repeat=n):
                try:
                    g = PlumbingGraph(
                        [(f"v{i}", e) for i, e in enumerate(eulers)],
                        [(f"v{i}", f"v{j}") for i, j in edges],
                    )
                except ValidationError:
                    continue
                sig = _canonical(g)
                if sig not in seen:
                    seen.add(sig)
                    corpus.append(g)
    return corpus


def _pruefer_edges(seq, n):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    leaves = sorted(i for i in range(n) if degree[i] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            import bisect

            bisect.insort(leaves, v)
    u, w = leaves
    edges.append((u, w))
    return edges


_CORPUS = None


def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = small_tree_corpus()
    return _CORPUS


# -- brute-force oracles ---------------------------------------------------


def brute_min_chi_box(g, lo, hi):
    """Plain Fraction enumeration of min chi over the box; returns
    (value, lexicographically smallest argmin)."""
    best = None
    arg = None
    for point in itertools.product(
        *[range(a, b + 1) for a, b in zip(lo, hi)]
    ):
        v = chi(Cycle(g, point))
        if best is None or v < best:
            best, arg = v, point
    return best, arg


def brute_fundamental_cycle(g):
    """Minimal nonzero antinef cycle by growing-box numpy enumeration."""
    m = np.array(g.matrix(), dtype=np.int64)
    n = g.n
    bound = 1
    while True:
        ranges = [np.arange(0, bound + 1)] * n
        pts = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(
            -1, n
        )
        pts = pts[pts.any(axis=1)]
        pairings = pts @ m.T
        antinef = pts[(pairings <= 0).all(axis=1)]
        if len(antinef):
            zmin = antinef.min(axis=0)
            # the componentwise min of antinef cycles is the fundamental
            # cycle; confirm it is itself antinef
            assert ((m @ zmin) <= 0).all()
            return Cycle(g, [int(c) for c in zmin])
        bound += 1
        assert bound <= 64, "runaway brute-force bound"
