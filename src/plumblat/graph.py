"""Plumbing graphs: decorated trees with a negative-definite intersection form.

A plumbing graph is a tree whose vertices carry an Euler number (the
self-intersection of the corresponding exceptional curve); all genus
decorations are implicitly zero.  Validation happens at construction
time, by one leaf-to-root pass of subtree determinants: every downstream
formula assumes negative definiteness.
:func:`intersection_data` holds the lattice data in integers, from
branch determinants over the same tree (no elimination of a matrix), on
first use and kept on the graph: the determinant, Z_K and the diagonal
of the adjugate det * I^-1 from one O(n) pass, whose branch
determinants also give every product with the adjugate (Z_K and the dual
base E*_v) by one checked O(n) solve; the dense matrix, O(n^2), is built
only when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from operator import mul, neg
import re

from .errors import (
    EmptySubset,
    GraphSyntaxError,
    InternalError,
    UnknownVertex,
    ValidationError,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


def _rooted(adj, k):
    """Depth-first preorder, parents (-1 at a root) and roots of the
    forest that the first k vertices induce, each root the smallest index
    of its tree.  Each subtree is a contiguous run of the preorder."""
    seen = [False] * k
    parent = [-1] * k
    order = []
    roots = []
    for r in range(k):
        if seen[r]:
            continue
        roots.append(r)
        seen[r] = True
        stack = [r]
        while stack:
            i = stack.pop()
            order.append(i)
            for j in adj[i]:
                if j < k and not seen[j]:
                    seen[j] = True
                    parent[j] = i
                    stack.append(j)
    return order, parent, roots


def _forest_dets(euler, order, parent):
    """The determinant D_v of -I on every rooted subtree of a forest given
    by :func:`_rooted`, and R_v, the product of the children's D (the
    determinant of the subtree with v removed).  Children first and without
    division, D_v = -e_v R_v - S_v, where S_v = sum over children c of R_c
    times the other children's D."""
    k = len(parent)
    dets = [0] * k
    r_prod = [1] * k
    s_sum = [0] * k
    for v in reversed(order):
        d = dets[v] = -euler[v] * r_prod[v] - s_sum[v]
        p = parent[v]
        if p >= 0:
            s_sum[p] = s_sum[p] * d + r_prod[v] * r_prod[p]
            r_prod[p] *= d
    return dets, r_prod


class PlumbingGraph:
    """Immutable decorated tree with validated intersection form.

    Vertex order is the declaration order and drives every deterministic
    iteration in the package.
    """

    __slots__ = (
        "names", "euler", "edges", "_index", "_adj", "_hash", "_tree",
        "_lattice",
    )

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
        self._tree = None  # (preorder, parents) from vertex 0
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

    def _rooted_tree(self):
        """(preorder, parents) of the tree rooted at vertex 0, made on first
        use and kept, like the lattice data, so that a graph that is only
        built stays small."""
        if self._tree is None:
            self._tree = _rooted(self._adj, self.n)[:2]
        return self._tree

    def intersect(self, x):
        """The pairings (x, E_v) for every vertex v, i.e. the product I x,
        for a vector x of ints or Fractions: the diagonal e_v x_v, then one
        pass over the n - 1 edges of the tree, so this costs O(n)."""
        y = list(map(mul, self.euler, x))
        for i, j in self.edges:
            y[i] += x[j]
            y[j] += x[i]
        return y

    def _validate(self):
        """A tree whose form I is negative definite, by Sylvester's
        criterion in a children-first order: every prefix of it is a union
        of whole rooted subtrees, so the test is that every rooted-subtree
        determinant D_v of -I is positive.  Only on failure are the leading
        principal minors in declaration order computed, O(n^2), to name the
        first with the wrong sign."""
        n = self.n
        if n == 0:
            raise ValidationError("graph has no vertices")
        if len(self.edges) != n - 1:
            raise ValidationError(
                f"not a tree: {n} vertices need {n - 1} edges, "
                f"got {len(self.edges)}"
            )
        order, parent, roots = _rooted(self._adj, n)
        if len(roots) > 1:
            raise ValidationError("not a tree: graph is disconnected")
        if min(_forest_dets(self.euler, order, parent)[0]) > 0:
            return
        for k in range(1, n + 1):
            order, parent, roots = _rooted(self._adj, k)
            dets, _ = _forest_dets(self.euler, order, parent)
            det = prod(map(dets.__getitem__, roots))  # of -I, = (-1)^k minor
            if det <= 0:
                raise ValidationError(
                    f"not negative definite: leading principal minor "
                    f"{k} is {(-1) ** k * det}"
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


def _branch_dets(g: PlumbingGraph):
    """D_v and R_v (:func:`_forest_dets`) on the tree rooted at vertex 0,
    and A_v = adj P_vv of P = -I, in O(n) integer steps.

    adj P_uv is the determinant of P with the path [u, v] removed
    (Eisenbud-Neumann), the product of the determinants of the branches
    off the path; every entry is positive.  A_v is the product of the
    branch determinants at v: the children's D and U_v, the determinant
    off the subtree of v (1 at the root).  Across the edge from v to a
    child c, det P = U_c D_c - (A_v / D_c) R_c, which gives U_c and
    A_c = U_c R_c.  Every division is exact.
    """
    order, parent = g._rooted_tree()
    dets, r_prod = _forest_dets(g.euler, order, parent)
    det = dets[0]
    diag = [0] * g.n  # A_v
    diag[0] = r_prod[0]
    for c in order[1:]:
        v, d, r = parent[c], dets[c], r_prod[c]
        diag[c] = (det + diag[v] // d * r) // d * r
    return dets, r_prod, diag


def _tree_solve(g: PlumbingGraph, dets, r_prod, k):
    """x = adj P k, the solution of P x = det P k, by one subtree solve in
    O(n) integer steps.  Leaf to root, X_c = R_c k_c plus (R_c / D_c') X_c'
    over the children c' of c, and x_root = X_root; root to leaf,
    x_c = (det P X_c + x_v R_c) / D_c for the parent v of c.  Every
    division is exact."""
    order, parent = g._rooted_tree()
    x = list(map(mul, r_prod, k))  # X_v, once its children are added
    for c in reversed(order[1:]):
        v = parent[c]
        x[v] += r_prod[v] // dets[c] * x[c]
    det = dets[0]
    for c in order[1:]:
        x[c] = (det * x[c] + x[parent[c]] * r_prod[c]) // dets[c]
    return x


def _adj_solve(g: PlumbingGraph, dets, r_prod, k):
    """x = adj P k for P = -I, by one subtree solve (:func:`_tree_solve`),
    checked in O(n) over the edge list: I x = -det P k, since
    I adj P = -det P 1.  The library's one product with the adjugate:
    Z_K, E*_v and sum a_v E*_v all come from it."""
    x = _tree_solve(g, dets, r_prod, k)
    det_p = dets[0]
    if g.intersect(x) != [-det_p * kv for kv in k]:
        raise InternalError("solve check I adj(-I) k = -det(-I) k failed")
    return x


@dataclass(frozen=True)
class IntersectionData:
    """Exact integer data of the intersection form of one graph:
    Z_K = zk_nums / group_order and diagonal = the diagonal of the
    adjugate det * I^-1, from one O(n) tree pass.  The branch
    determinants D and R of that pass (:func:`_branch_dets`) are kept
    for the solves x = adj(-I) k (:func:`_adj_solve`); the dense
    ``matrix`` is built on first read and then kept."""

    det: int
    group_order: int  # |L'/L| = |det|
    zk_nums: tuple
    diagonal: tuple  # adj(I)_vv
    graph: PlumbingGraph = field(repr=False, compare=False)
    _dets: list = field(repr=False, compare=False)
    _r_prod: list = field(repr=False, compare=False)

    @cached_property
    def matrix(self):
        """The intersection matrix as a tuple of integer rows."""
        return tuple(map(tuple, self.graph.matrix()))


def intersection_data(g: PlumbingGraph) -> IntersectionData:
    """The lattice data of ``g`` from one O(n) pass over the tree of
    P = -I, which is positive definite: |det| = det P = D_root,
    det I = (-1)^n det P and adj I = (-1)^(n-1) adj P, whose diagonal is
    A_v (:func:`_branch_dets`); Z_K = I^-1 (e + 2) = -adj P (e + 2) / det P
    by adjunction (:func:`_adj_solve`, which checks it).  The diagonal is
    checked in O(n) too: the (v, v) entries of P adj P = det P 1 from A
    and the edge entries adj P_vc = A_v R_c / D_c."""
    data = g._lattice
    if data is None:
        dets, r_prod, diag = _branch_dets(g)
        det_p = dets[0]
        k = [e + 2 for e in g.euler]
        zk_nums = tuple(map(neg, _adj_solve(g, dets, r_prod, k)))
        order, parent = g._rooted_tree()
        col = [-e * a for e, a in zip(g.euler, diag)]  # (P adj P)_vv
        for c in order[1:]:
            v = parent[c]
            edge = diag[v] // dets[c] * r_prod[c]
            col[v] -= edge
            col[c] -= edge
        if any(x != det_p for x in col):
            raise InternalError("adjugate diagonal check I adj = det 1 failed")
        if g.n % 2:
            det, diag = -det_p, tuple(diag)
        else:
            det, diag = det_p, tuple(map(neg, diag))
        data = g._lattice = IntersectionData(
            det, det_p, zk_nums, diag, g, dets, r_prod
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
