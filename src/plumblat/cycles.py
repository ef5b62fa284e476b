"""Cycles in the lattice L and its dual L', and the operations on them.

A :class:`Cycle` is a vertex-indexed vector of exact rationals on a fixed
graph.  Integral cycles (lattice L) and rational Chern classes (L') share
the one class; integrality is a queryable property, matching how the
formulas treat them.  The pairing and the dual base are computed on the
integer numerators of a cycle over one common denominator, with the
integer adjugate of the intersection matrix; Fractions are built only
for the results.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
import re

from .errors import (
    EmptySubset,
    GraphMismatch,
    GraphSyntaxError,
    UnknownVertex,
)
from .graph import PlumbingGraph, intersection_data, subgraph
from . import exactlin


# Fractions are immutable, so cycles share one object per small integer
# coefficient; lattice points are built by the million in box walks.
_SMALL = {i: Fraction(i) for i in range(-256, 257)}


class Cycle:
    """Immutable exact-rational vector indexed by the vertices of a graph."""

    __slots__ = ("graph", "coeffs")

    def __init__(self, graph: PlumbingGraph, coeffs):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(
            self,
            "coeffs",
            tuple([
                c if type(c) is Fraction
                else _SMALL[c] if c in _SMALL
                else Fraction(c)
                for c in coeffs
            ]),
        )
        if len(self.coeffs) != graph.n:
            raise ValueError("coefficient count does not match graph")

    def __setattr__(self, *a):
        raise AttributeError("Cycle is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, g):
        return cls(g, [0] * g.n)

    @classmethod
    def basis(cls, g, v):
        c = [0] * g.n
        c[g.index(v)] = 1
        return cls(g, c)

    @classmethod
    def ones(cls, g):
        """The reduced exceptional cycle E = sum of all base elements."""
        return cls(g, [1] * g.n)

    @classmethod
    def from_dict(cls, g, d):
        c = [Fraction(0)] * g.n
        for v, x in d.items():
            c[g.index(v)] = Fraction(x)
        return cls(g, c)

    # -- views ----------------------------------------------------------

    def __getitem__(self, v):
        return self.coeffs[self.graph.index(v)]

    def as_dict(self):
        return {
            n: c for n, c in zip(self.graph.names, self.coeffs) if c != 0
        }

    def support(self):
        return tuple(
            n for n, c in zip(self.graph.names, self.coeffs) if c != 0
        )

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    @property
    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs)

    @property
    def is_effective(self):
        return all(c >= 0 for c in self.coeffs)

    def int_coeffs(self):
        if not self.is_integral:
            raise ValueError("cycle is not integral")
        return tuple(int(c) for c in self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def _same_graph(self, other):
        if self.graph != other.graph:
            raise GraphMismatch("cycles live on different graphs")

    def __add__(self, other):
        self._same_graph(other)
        return Cycle(self.graph, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._same_graph(other)
        return Cycle(self.graph, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Cycle(self.graph, [-a for a in self.coeffs])

    def __mul__(self, k):
        return Cycle(self.graph, [Fraction(k) * a for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Cycle)
            and self.graph == other.graph
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.graph, self.coeffs))

    def __le__(self, other):
        self._same_graph(other)
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    def __ge__(self, other):
        self._same_graph(other)
        return all(a >= b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"Cycle({format_cycle(self)!r})"


def common_denominator(values):
    """``(den, nums)`` for Fractions: their least common denominator and
    the integer numerators over it, so that values[i] = nums[i] / den."""
    den = lcm(*(c.denominator for c in values))
    if den == 1:
        return 1, [c.numerator for c in values]
    return den, [c.numerator * (den // c.denominator) for c in values]


# -- pairing and dual base -------------------------------------------------


def pairing(a: Cycle, b: Cycle) -> Fraction:
    """The intersection pairing a^T I b, exact."""
    a._same_graph(b)
    da, x = common_denominator(a.coeffs)
    db, y = common_denominator(b.coeffs)
    return Fraction(sum(map(mul, x, a.graph.intersect(y))), da * db)


def estar(g: PlumbingGraph, v) -> Cycle:
    """Dual base element: the unique cycle pairing to -1 with E_v, 0 else.

    It is the v-column of -I^{-1} = -adj / det; all its coordinates are
    strictly positive on a negative-definite connected graph.
    """
    i = g.index(v)
    data = intersection_data(g)
    det = data.det
    return Cycle(g, [Fraction(-row[i], det) for row in data.adjugate])


def estar_decompose(lp: Cycle):
    """Coefficients a_v with lp = sum a_v E*_v, i.e. a_v = -(lp, E_v).

    Returns ``(coeffs_dict, support_tuple)`` where the support is the
    E*-support of lp in declaration order.
    """
    g = lp.graph
    den, x = common_denominator(lp.coeffs)
    coeffs = {
        name: Fraction(-p, den) for name, p in zip(g.names, g.intersect(x))
    }
    supp = tuple(n for n in g.names if coeffs[n] != 0)
    return coeffs, supp


def from_estar_coeffs(g: PlumbingGraph, coeffs) -> Cycle:
    """Inverse of :func:`estar_decompose`: build sum a_v E*_v, which is
    -adj a / det."""
    a = [Fraction(0)] * g.n
    for v, c in coeffs.items():
        a[g.index(v)] = Fraction(c)
    den, nums = common_denominator(a)
    data = intersection_data(g)
    scale = -data.det * den
    return Cycle(
        g, [Fraction(sum(map(mul, row, nums)), scale) for row in data.adjugate]
    )


def in_lipman_cone(lp: Cycle) -> bool:
    """True iff (lp, E_v) <= 0 for every vertex (lp is antinef)."""
    coeffs, _ = estar_decompose(lp)
    return all(a >= 0 for a in coeffs.values())


def in_minus_lipman_cone(lp: Cycle) -> bool:
    """True iff (lp, E_v) >= 0 for every vertex."""
    coeffs, _ = estar_decompose(lp)
    return all(a <= 0 for a in coeffs.values())


def is_dual_lattice_member(lp: Cycle) -> bool:
    """Membership in L': all pairings with base elements are integers."""
    coeffs, _ = estar_decompose(lp)
    return all(a.denominator == 1 for a in coeffs.values())


# -- restrictions ----------------------------------------------------------


def restrict_cycle(z: Cycle, subset) -> Cycle:
    """Coefficient truncation: keep coordinates in ``subset``, zero elsewhere."""
    g = z.graph
    keep = {g.index(v) for v in subset}
    return Cycle(
        g, [c if i in keep else Fraction(0) for i, c in enumerate(z.coeffs)]
    )


def restrict_R(lp: Cycle, subset):
    """Cohomological restriction operator onto the induced subgraph.

    Decomposes lp in the dual base, keeps the coefficients over ``subset``
    and reassembles on each connected component of the induced subgraph.
    Returns a list of ``(component_graph, cycle)`` pairs, components in
    declaration order.
    """
    if not set(subset):
        raise EmptySubset("vertex subset is empty")
    coeffs, _ = estar_decompose(lp)
    out = []
    for comp in subgraph(lp.graph, subset):
        local = {v: coeffs[v] for v in comp.names if coeffs[v] != 0}
        out.append((comp, from_estar_coeffs(comp, local)))
    return out


def meet(a: Cycle, b: Cycle) -> Cycle:
    """Componentwise minimum (greatest lower bound for the coefficient order)."""
    a._same_graph(b)
    return Cycle(a.graph, [min(x, y) for x, y in zip(a.coeffs, b.coeffs)])


# -- cycle literals --------------------------------------------------------

_PAIR_RE = re.compile(r"^([A-Za-z0-9_]+)=(-?\d+(?:/\d+)?)$")


def parse_cycle(g: PlumbingGraph, text: str) -> Cycle:
    """Parse a cycle literal: space-separated ``name=coef`` pairs.

    ``coef`` is ``p`` or ``p/q``; omitted vertices have coefficient 0;
    the literal ``0`` (or an empty string) is the zero cycle.
    """
    text = text.strip()
    if text in ("", "0"):
        return Cycle.zero(g)
    coeffs = [Fraction(0)] * g.n
    seen = set()
    for tok in text.split():
        m = _PAIR_RE.match(tok)
        if not m:
            raise GraphSyntaxError(f"bad cycle term {tok!r}")
        name, val = m.group(1), Fraction(m.group(2))
        if name not in g._index:
            raise UnknownVertex(f"unknown vertex {name!r} in cycle literal")
        if name in seen:
            raise GraphSyntaxError(f"duplicate vertex {name!r} in cycle literal")
        seen.add(name)
        coeffs[g.index(name)] = val
    return Cycle(g, coeffs)


def format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_cycle(z: Cycle) -> str:
    parts = [
        f"{n}={format_fraction(c)}"
        for n, c in zip(z.graph.names, z.coeffs)
        if c != 0
    ]
    return " ".join(parts) if parts else "0"


def cycle_to_json(z: Cycle) -> dict:
    """JSON view: name -> "p/q" string, nonzero entries in declaration order."""
    return {
        n: format_fraction(c)
        for n, c in zip(z.graph.names, z.coeffs)
        if c != 0
    }
