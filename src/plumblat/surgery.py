"""Blow-up surgery on plumbing graphs and the induced cycle pullbacks.

A generic-point blow-up hangs a fresh -1 vertex on one curve and drops
that curve's Euler number by one; an intersection-point blow-up
subdivides an edge.  Both extend to a pairing-preserving pullback on
cycles, and chains of blow-ups compose.  The derived cycles used by the
reduction arguments (pullback minus distance-weighted new vertices, and
that minus the last -1 curve) are provided as separate operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import (
    GraphMismatch,
    NegativeCoefficient,
    NotAnEdge,
    PreconditionFailed,
    InternalError,
)
from .graph import PlumbingGraph
from .cycles import Cycle, restrict_cycle
from . import exactlin


@dataclass(frozen=True)
class BlowupResult:
    """New graph plus the bookkeeping of one or more composed blow-ups."""

    original: PlumbingGraph
    new_graph: PlumbingGraph
    old_to_new: dict  # vertex correspondence; names are preserved
    new_vertices: tuple  # (name, distance to the original vertex set)
    matrix: tuple  # pullback matrix, rows indexed by new vertices

    def pullback(self, cycle: Cycle) -> Cycle:
        """Pairing-preserving pullback of a cycle from the original graph."""
        if cycle.graph != self.original:
            raise GraphMismatch("cycle does not live on the original graph")
        x = cycle.nums
        nums = [sum(map(mul, row, x)) for row in self.matrix]
        return Cycle.from_nums(self.new_graph, cycle.den, nums)

    @property
    def last_vertex(self):
        """The final -1 curve of the chain."""
        return self.new_vertices[-1][0]


def _fresh_name(taken, base, k):
    name = f"{base}_b{k}"
    while name in taken:
        name += "_"
    return name


def _distances(g: PlumbingGraph, original_names):
    """Graph distance of every vertex to the original vertex set."""
    from collections import deque

    dist = {n: (0 if n in original_names else None) for n in g.names}
    queue = deque(n for n in g.names if dist[n] == 0)
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _finalize(original, steps):
    """Assemble a BlowupResult from single-step data.

    ``steps`` is a list of (graph_after, new_name, matrix_rows) where the
    matrix maps the previous graph's cycles to the new one.
    """
    new_graph, _, _ = steps[-1]
    mat = steps[0][2]
    for _, _, m in steps[1:]:
        mat = exactlin.mat_mul(m, mat)
    original_names = set(original.names)
    dist = _distances(new_graph, original_names)
    new_vertices = tuple(
        (name, dist[name]) for _, name, _ in steps
    )
    return BlowupResult(
        original=original,
        new_graph=new_graph,
        old_to_new={n: n for n in original.names},
        new_vertices=new_vertices,
        matrix=tuple(tuple(row) for row in mat),
    )


def _step_generic(g: PlumbingGraph, u, name):
    """One generic-point blow-up of the curve u; returns step data."""
    ui = g.index(u)
    verts = [
        (n, e - 1 if i == ui else e)
        for i, (n, e) in enumerate(zip(g.names, g.euler))
    ]
    verts.append((name, -1))
    edges = [(g.names[i], g.names[j]) for i, j in g.edges]
    edges.append((u, name))
    new_graph = PlumbingGraph(verts, edges)
    n = g.n
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows.append([int(j == ui) for j in range(n)])
    return new_graph, name, rows


def _step_edge(g: PlumbingGraph, u, w, name):
    """One intersection-point blow-up of the edge u-w; returns step data."""
    ui, wi = g.index(u), g.index(w)
    key = (min(ui, wi), max(ui, wi))
    if key not in g.edges:
        raise NotAnEdge(f"{u!r}-{w!r} is not an edge")
    verts = [
        (n, e - 1 if i in (ui, wi) else e)
        for i, (n, e) in enumerate(zip(g.names, g.euler))
    ]
    verts.append((name, -1))
    edges = [
        (g.names[i], g.names[j]) for i, j in g.edges if (i, j) != key
    ]
    edges.extend([(u, name), (name, w)])
    new_graph = PlumbingGraph(verts, edges)
    n = g.n
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows.append([int(j in (ui, wi)) for j in range(n)])
    return new_graph, name, rows


def blowup_generic(g: PlumbingGraph, u) -> BlowupResult:
    """Blow up the curve u at a generic point."""
    return blowup_chain(g, u, 1)


def blowup_edge(g: PlumbingGraph, u, w) -> BlowupResult:
    """Blow up the intersection point of the curves u and w."""
    return blowup_edge_chain(g, u, w, 1)


def blowup_chain(g: PlumbingGraph, u, k: int) -> BlowupResult:
    """Blow up u at a generic point, then the newest curve, k times total.

    Produces a chain hanging off u with distances 1..k; the last vertex
    is the only remaining -1 curve of the chain.
    """
    if k < 1:
        raise PreconditionFailed("chain length must be >= 1")
    g.index(u)
    steps = []
    cur = g
    at = u
    for i in range(1, k + 1):
        name = _fresh_name(set(cur.names), u, i)
        step = _step_generic(cur, at, name)
        steps.append(step)
        cur = step[0]
        at = name
    return _finalize(g, steps)


def blowup_edge_chain(g: PlumbingGraph, u, w, count: int) -> BlowupResult:
    """Blow up the intersection point of u and w, then repeatedly the new
    intersection point on u's side, ``count`` times total."""
    if count < 1:
        raise PreconditionFailed("chain length must be >= 1")
    steps = []
    cur = g
    other = w
    for i in range(1, count + 1):
        name = _fresh_name(set(cur.names), u, i)
        step = _step_edge(cur, u, other, name)
        steps.append(step)
        cur = step[0]
        other = name
    return _finalize(g, steps)


# -- derived cycles --------------------------------------------------------


def z_new(b: BlowupResult, z: Cycle) -> Cycle:
    """Pullback of z minus the distance-weighted new vertices."""
    result = b.pullback(z)
    adjust = Cycle.from_dict(
        b.new_graph, {name: d for name, d in b.new_vertices}
    )
    out = result - adjust
    if not out.is_effective:
        raise NegativeCoefficient(
            "derived cycle has a negative coefficient; the chain is longer "
            "than the blown-up coefficient allows"
        )
    return out


def z_r(b: BlowupResult, znew: Cycle) -> Cycle:
    """The derived cycle minus the last -1 curve of the chain.

    When the last coefficient is exactly 1 this agrees with plain
    coefficient restriction away from that vertex; both are computed and
    compared.
    """
    if znew.graph != b.new_graph:
        raise GraphMismatch("cycle does not live on the blown-up graph")
    up = b.last_vertex
    coeff = znew[up]
    if coeff < 1:
        raise PreconditionFailed(
            f"coefficient of {up!r} must be >= 1, got {coeff}"
        )
    out = znew - Cycle.basis(b.new_graph, up)
    if coeff == 1:
        others = [n for n in b.new_graph.names if n != up]
        if out != restrict_cycle(znew, others):
            raise InternalError("subtraction and restriction forms disagree")
    return out
