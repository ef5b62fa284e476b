"""Blow-up surgery on plumbing graphs and the induced cycle pullbacks.

A generic-point blow-up hangs a fresh -1 vertex on one curve and drops
that curve's Euler number by one; an intersection-point blow-up
subdivides an edge.  Both extend to a pairing-preserving pullback on
cycles.  A chain of k blow-ups is one construction: its graph and its
pullback rows are written down along the chain, with no intermediate
graph and no matrix product.  The derived cycles used by the
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


def _blowup(g: PlumbingGraph, u, w, k):
    """k blow-ups in one construction: at a generic point of u and then of
    each newest curve (w is None), or at the point u-w and then at each
    new intersection point on u's side.  Each new curve's pullback row is
    the sum of the rows of the curves through its point, which lose 1 from
    their Euler numbers.  The new curves form a path from u (to w), so a
    generic chain has rows e_u and distances 1..k, and an edge chain rows
    i e_u + e_w and distances min(i, k + 1 - i)."""
    if k < 1:
        raise PreconditionFailed("chain length must be >= 1")
    ui = g.index(u)
    at = [ui]
    key = None
    if w is not None:
        wi = g.index(w)
        key = (min(ui, wi), max(ui, wi))
        if key not in g.edges:
            raise NotAnEdge(f"{u!r}-{w!r} is not an edge")
        at.append(wi)
    n = g.n
    names = list(g.names)
    euler = list(g.euler)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    taken = set(names)
    for i in range(1, k + 1):
        name = _fresh_name(taken, u, i)
        taken.add(name)
        for c in at:
            euler[c] -= 1
        rows.append(list(map(sum, zip(*(rows[c] for c in at)))))
        names.append(name)
        euler.append(-1)
        at[-1] = len(names) - 1  # the next point is on the newest curve
    new = names[n:]
    if w is None:
        path = [u, *new]
        dist = range(1, k + 1)
    else:
        path = [u, *reversed(new), w]
        dist = [min(i, k + 1 - i) for i in range(1, k + 1)]
    edges = [(g.names[i], g.names[j]) for i, j in g.edges if (i, j) != key]
    edges += zip(path, path[1:])
    return BlowupResult(
        original=g,
        new_graph=PlumbingGraph(list(zip(names, euler)), edges),
        old_to_new={v: v for v in g.names},
        new_vertices=tuple(zip(new, dist)),
        matrix=tuple(map(tuple, rows)),
    )


def blowup_generic(g: PlumbingGraph, u) -> BlowupResult:
    """Blow up the curve u at a generic point."""
    return _blowup(g, u, None, 1)


def blowup_edge(g: PlumbingGraph, u, w) -> BlowupResult:
    """Blow up the intersection point of the curves u and w."""
    return _blowup(g, u, w, 1)


def blowup_chain(g: PlumbingGraph, u, k: int) -> BlowupResult:
    """Blow up u at a generic point, then the newest curve, k times total.

    Produces a chain hanging off u with distances 1..k; the last vertex
    is the only remaining -1 curve of the chain.
    """
    return _blowup(g, u, None, k)


def blowup_edge_chain(g: PlumbingGraph, u, w, count: int) -> BlowupResult:
    """Blow up the intersection point of u and w, then repeatedly the new
    intersection point on u's side, ``count`` times total."""
    return _blowup(g, u, w, count)


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
