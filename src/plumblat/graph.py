"""Plumbing graphs: decorated trees with a negative-definite intersection form.

A plumbing graph is a tree whose vertices carry an Euler number (the
self-intersection of the corresponding exceptional curve); all genus
decorations are implicitly zero.  Validation happens at construction
time: every downstream formula assumes negative definiteness.
:func:`intersection_data` holds the lattice data in integers: the
determinant, the adjugate det * I^-1 and Z_K, read off the fraction-free
factor of -I (``kernels._factor``) on first use and kept on the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, neg
import re

from .errors import (
    EmptySubset,
    GraphSyntaxError,
    InternalError,
    UnknownVertex,
    ValidationError,
)
from . import exactlin, kernels

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


class PlumbingGraph:
    """Immutable decorated tree with validated intersection form.

    Vertex order is the declaration order and drives every deterministic
    iteration in the package.
    """

    __slots__ = ("names", "euler", "edges", "_index", "_adj", "_hash", "_lattice")

    def __init__(self, vertices, edges):
        names = tuple(str(n) for n, _ in vertices)
        euler = tuple(int(e) for _, e in vertices)
        for n in names:
            if not _NAME_RE.match(n):
                raise ValidationError(f"invalid vertex name {n!r}")
        if len(set(names)) != len(names):
            raise ValidationError("duplicate vertex name")
        index = {n: i for i, n in enumerate(names)}
        edge_set = set()
        for a, b in edges:
            if a not in index or b not in index:
                raise UnknownVertex(f"edge endpoint {a!r} or {b!r} not declared")
            i, j = index[a], index[b]
            if i == j:
                raise ValidationError(f"self-loop at {a!r}")
            key = (min(i, j), max(i, j))
            if key in edge_set:
                raise ValidationError(f"multi-edge between {a!r} and {b!r}")
            edge_set.add(key)
        self.names = names
        self.euler = euler
        self.edges = frozenset(edge_set)
        self._index = index
        adj = [[] for _ in names]
        for i, j in sorted(edge_set):
            adj[i].append(j)
            adj[j].append(i)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._hash = hash((names, euler, self.edges))
        self._lattice = None  # IntersectionData
        self._validate()

    # -- basic structure ------------------------------------------------

    @property
    def n(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {name!r}") from None

    def neighbors(self, name):
        return tuple(self.names[j] for j in self._adj[self.index(name)])

    def matrix(self):
        """The intersection matrix as a list of integer rows."""
        m = [[0] * self.n for _ in range(self.n)]
        for i, e in enumerate(self.euler):
            m[i][i] = e
        for i, j in self.edges:
            m[i][j] = 1
            m[j][i] = 1
        return m

    def intersect(self, x):
        """The pairings (x, E_v) for every vertex v, i.e. the product I x,
        for a vector x of ints or Fractions; a tree has n - 1 edges, so
        this costs O(n)."""
        return [
            e * xi + sum(map(x.__getitem__, nbrs))
            for e, xi, nbrs in zip(self.euler, x, self._adj)
        ]

    def _validate(self):
        n = self.n
        if n == 0:
            raise ValidationError("graph has no vertices")
        if len(self.edges) != n - 1:
            raise ValidationError(
                f"not a tree: {n} vertices need {n - 1} edges, "
                f"got {len(self.edges)}"
            )
        seen = [False] * n
        stack = [0]
        seen[0] = True
        while stack:
            i = stack.pop()
            for j in self._adj[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        if not all(seen):
            raise ValidationError("not a tree: graph is disconnected")
        minors = exactlin.bareiss_pivots(self.matrix())
        for k, d in enumerate(minors, start=1):
            if (-1) ** k * d <= 0:
                raise ValidationError(
                    f"not negative definite: leading principal minor "
                    f"{k} is {d}"
                )

    # -- value semantics ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, PlumbingGraph)
            and self.names == other.names
            and self.euler == other.euler
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PlumbingGraph({len(self.names)} vertices, det={intersection_data(self).det})"


@dataclass(frozen=True)
class IntersectionData:
    """Exact integer data of the intersection form of one graph:
    I^-1 = adjugate / det and Z_K = zk_nums / group_order."""

    matrix: tuple  # tuple of tuples of int
    adjugate: tuple  # tuple of tuples of int, det * I^-1
    det: int
    group_order: int  # |L'/L| = |det|
    zk_nums: tuple


def intersection_data(g: PlumbingGraph) -> IntersectionData:
    """The lattice data of ``g`` from the factor of P = -I, which is
    positive definite: |det| = Delta_0 = det P, det I = (-1)^n det P,
    adj I = (-1)^(n-1) adj P, and Z_K = I^-1 (e + 2) = -adj P (e + 2) / det P
    by adjunction.  I adj = det 1 is checked column by column, in O(n)
    each, since a tree has n - 1 edges."""
    data = g._lattice
    if data is None:
        m = tuple(map(tuple, g.matrix()))
        delta, _, _, adj_p = kernels._factor(tuple(tuple(map(neg, row)) for row in m))
        if g.n % 2:
            det, adj = -delta[0], adj_p
        else:
            det, adj = delta[0], tuple(tuple(map(neg, row)) for row in adj_p)
        # I adj^T = det 1 forces adj^T = det I^-1 = adj, so rows will do
        for v, row in enumerate(adj):
            col = g.intersect(row)
            if col.pop(v) != det or any(col):
                raise InternalError("adjugate check I adj = det 1 failed")
        k = [e + 2 for e in g.euler]
        data = g._lattice = IntersectionData(
            m, adj, det, delta[0], tuple(-sum(map(mul, row, k)) for row in adj_p),
        )
    return data


# -- graph file format ---------------------------------------------------


def parse_graph(text: str) -> PlumbingGraph:
    """Parse the line-oriented graph file format.

    ``vertex <name> <euler>`` declares a vertex, ``edge <a> <b>`` an edge
    between previously declared vertices; ``#`` starts a comment.  A
    ``genus`` token anywhere is rejected: nonzero genus is not supported
    and must not be silently dropped.
    """
    vertices = []
    names = set()
    edges = []
    edge_keys = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if "genus" in toks:
            raise GraphSyntaxError(
                f"line {lineno}: genus decorations are not supported"
            )
        if toks[0] == "vertex":
            if len(toks) != 3:
                raise GraphSyntaxError(
                    f"line {lineno}: expected 'vertex <name> <euler>'"
                )
            name = toks[1]
            if not _NAME_RE.match(name):
                raise GraphSyntaxError(f"line {lineno}: bad vertex name {name!r}")
            if name in names:
                raise GraphSyntaxError(f"line {lineno}: duplicate vertex {name!r}")
            try:
                e = int(toks[2])
            except ValueError:
                raise GraphSyntaxError(
                    f"line {lineno}: bad euler number {toks[2]!r}"
                ) from None
            names.add(name)
            vertices.append((name, e))
        elif toks[0] == "edge":
            if len(toks) != 3:
                raise GraphSyntaxError(f"line {lineno}: expected 'edge <a> <b>'")
            a, b = toks[1], toks[2]
            for x in (a, b):
                if x not in names:
                    raise GraphSyntaxError(
                        f"line {lineno}: edge endpoint {x!r} not declared"
                    )
            key = (min(a, b), max(a, b))
            if a == b or key in edge_keys:
                raise GraphSyntaxError(
                    f"line {lineno}: bad edge {a!r}-{b!r}"
                )
            edge_keys.add(key)
            edges.append((a, b))
        else:
            raise GraphSyntaxError(f"line {lineno}: unknown directive {toks[0]!r}")
    return PlumbingGraph(vertices, edges)


def serialize_graph(g: PlumbingGraph) -> str:
    lines = [f"vertex {n} {e}" for n, e in zip(g.names, g.euler)]
    for i, j in sorted(g.edges):
        lines.append(f"edge {g.names[i]} {g.names[j]}")
    return "\n".join(lines) + "\n"


# -- induced subgraphs ----------------------------------------------------


def components(g: PlumbingGraph, idxs) -> list[tuple[int, ...]]:
    """Connected components of the subgraph induced on the vertex indices
    ``idxs``, as sorted index tuples ordered by their smallest index; no
    graph is built."""
    chosen = set(idxs)
    seen = set()
    out = []
    for start in sorted(chosen):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in g._adj[i]:
                if j in chosen and j not in seen:
                    seen.add(j)
                    stack.append(j)
        out.append(tuple(sorted(comp)))
    return out


def subgraph(g: PlumbingGraph, subset) -> list[PlumbingGraph]:
    """Induced subgraph on ``subset``, split into connected components.

    Vertex names are preserved, which is the whole vertex correspondence.
    Components are ordered by their smallest vertex index.  Each is built
    by the validated constructor, which cannot fail: a principal submatrix
    of a negative-definite form is negative definite, and each component
    of an induced subgraph of a tree is a tree.
    """
    idxs = {g.index(v) for v in subset}
    if not idxs:
        raise EmptySubset("vertex subset is empty")
    out = []
    for comp in components(g, idxs):
        comp_set = set(comp)
        verts = [(g.names[i], g.euler[i]) for i in comp]
        edges = [
            (g.names[i], g.names[j])
            for i, j in g.edges
            if i in comp_set and j in comp_set
        ]
        out.append(PlumbingGraph(verts, edges))
    return out
