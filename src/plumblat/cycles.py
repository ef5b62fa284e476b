"""Cycles in the lattice L and its dual L', and the operations on them.

A :class:`Cycle` is a vertex-indexed vector of exact rationals on a fixed
graph.  Integral cycles (lattice L) and rational Chern classes (L') share
the one class; integrality is a queryable property, matching how the
formulas treat them.  Every denominator in L' divides |det I|, so a cycle
is stored as integer numerators ``nums`` over one positive denominator
``den``, in lowest terms: equal cycles have equal ``(den, nums)``, and
``den == 1`` exactly when the cycle is integral.  The pairing, the dual
base and the arithmetic work on these integers, and so do the
E*-coordinates -(l', E_v); the dual base E*_v and sum a_v E*_v come from
one checked O(n) solve with the adjugate over the tree.
Coordinates are Fractions only in ``coeffs``, ``z[v]`` and ``estar_decompose``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, ge, le, mul, sub
import re

from .errors import (
    GraphMismatch,
    GraphSyntaxError,
    UnknownVertex,
)
from .graph import PlumbingGraph, _adj_solve, intersection_data, subgraph

_INT = frozenset([int])
_EXACT = frozenset([int, Fraction])


class Cycle:
    """Immutable exact-rational vector indexed by the vertices of a graph:
    the integers ``nums`` over ``den > 0``, with gcd(den, *nums) == 1."""

    __slots__ = ("graph", "den", "nums")

    def __init__(self, graph: PlumbingGraph, coeffs):
        """Coefficients are ints, Fractions or anything ``Fraction()``
        accepts; a tuple of ints is stored as it is."""
        nums = tuple(coeffs)
        den = 1
        if not _INT.issuperset(map(type, nums)):
            values = [c if type(c) in _EXACT else Fraction(c) for c in nums]
            # Fractions are in lowest terms, so over their lcm the
            # numerators share no factor with it.
            den = lcm(*[c.denominator for c in values])
            nums = tuple([c.numerator * (den // c.denominator) for c in values])
        if len(nums) != graph.n:
            raise ValueError("coefficient count does not match graph")
        _set_graph(self, graph)
        _set_den(self, den)
        _set_nums(self, nums)

    @classmethod
    def from_nums(cls, graph: PlumbingGraph, den: int, nums) -> Cycle:
        """The cycle with coefficients nums[i] / den (den nonzero, nums
        integers), reduced to lowest terms with a positive denominator."""
        nums = tuple(nums)
        if len(nums) != graph.n:
            raise ValueError("coefficient count does not match graph")
        common = gcd(den, *nums)
        if den < 0:
            common = -common
        if common != 1:
            den //= common
            nums = tuple([x // common for x in nums])
        self = cls.__new__(cls)
        _set_graph(self, graph)
        _set_den(self, den)
        _set_nums(self, nums)
        return self

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
        c = [0] * g.n
        for v, x in d.items():
            c[g.index(v)] = x
        return cls(g, c)

    # -- views ----------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as a tuple of Fractions, built on each read."""
        den = self.den
        return tuple([Fraction(x, den) for x in self.nums])

    def __getitem__(self, v):
        return Fraction(self.nums[self.graph.index(v)], self.den)

    def support(self):
        return tuple(n for n, x in zip(self.graph.names, self.nums) if x)

    @property
    def is_zero(self):
        return not any(self.nums)

    @property
    def is_integral(self):
        return self.den == 1

    @property
    def is_effective(self):
        return all(x >= 0 for x in self.nums)

    def int_coeffs(self):
        if self.den != 1:
            raise ValueError("cycle is not integral")
        return self.nums

    # -- arithmetic ------------------------------------------------------

    def _same_graph(self, other):
        if self.graph != other.graph:
            raise GraphMismatch("cycles live on different graphs")

    def _lift(self, other):
        """``(den, x, y)``: both cycles as numerators over one denominator."""
        self._same_graph(other)
        da, db = self.den, other.den
        if da == db:
            return da, self.nums, other.nums
        den = lcm(da, db)
        ka, kb = den // da, den // db
        return den, [x * ka for x in self.nums], [y * kb for y in other.nums]

    def __add__(self, other):
        den, x, y = self._lift(other)
        return Cycle.from_nums(self.graph, den, map(add, x, y))

    def __sub__(self, other):
        den, x, y = self._lift(other)
        return Cycle.from_nums(self.graph, den, map(sub, x, y))

    def __neg__(self):
        return Cycle.from_nums(self.graph, -self.den, self.nums)

    def __mul__(self, k):
        k = Fraction(k)
        p = k.numerator
        return Cycle.from_nums(
            self.graph, self.den * k.denominator, [p * x for x in self.nums]
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Cycle)
            and self.graph == other.graph
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.graph, self.den, self.nums))

    def __le__(self, other):
        _, x, y = self._lift(other)
        return all(map(le, x, y))

    def __ge__(self, other):
        _, x, y = self._lift(other)
        return all(map(ge, x, y))

    def __repr__(self):
        return f"Cycle({format_cycle(self)!r})"


# Slot setters that bypass the immutability guard, for the constructors.
_set_graph = Cycle.graph.__set__
_set_den = Cycle.den.__set__
_set_nums = Cycle.nums.__set__


# -- pairing and dual base -------------------------------------------------


def pairing(a: Cycle, b: Cycle) -> Fraction:
    """The intersection pairing a^T I b, exact."""
    a._same_graph(b)
    return Fraction(
        sum(map(mul, a.nums, a.graph.intersect(b.nums))), a.den * b.den
    )


def estar(g: PlumbingGraph, v) -> Cycle:
    """Dual base element: the unique cycle pairing to -1 with E_v, 0 else.

    It is the v-column of -I^{-1} = adj(-I) / det(-I), from one O(n)
    solve with k = E_v (:func:`_from_estar_nums`); all its coordinates are
    strictly positive on a negative-definite connected graph.
    """
    k = [0] * g.n
    k[g.index(v)] = 1
    return _from_estar_nums(g, 1, k)


def _estar_nums(lp: Cycle) -> list:
    """The E*-coordinates a_v = -(lp, E_v) of lp, as integer numerators
    over ``lp.den``."""
    return [-y for y in lp.graph.intersect(lp.nums)]


def _from_estar_nums(g: PlumbingGraph, den: int, a) -> Cycle:
    """The cycle sum a_v E*_v with E*-coordinates a[i] / den (integers
    a, den > 0): since (E*_v, E_w) = -delta_vw it is -I^-1 a / den =
    adj P a / (det P den) with P = -I, and adj P a is one checked O(n)
    solve over the tree (:func:`graph._adj_solve`)."""
    data = intersection_data(g)
    x = _adj_solve(g, data._dets, data._r_prod, a)
    return Cycle.from_nums(g, data.group_order * den, x)


def estar_decompose(lp: Cycle):
    """Coefficients a_v with lp = sum a_v E*_v, i.e. a_v = -(lp, E_v).

    Returns ``(coeffs_dict, support_tuple)`` where the support is the
    E*-support of lp in declaration order.
    """
    g = lp.graph
    den = lp.den
    coeffs = {name: Fraction(x, den) for name, x in zip(g.names, _estar_nums(lp))}
    supp = tuple(n for n in g.names if coeffs[n] != 0)
    return coeffs, supp


def from_estar_coeffs(g: PlumbingGraph, coeffs) -> Cycle:
    """Inverse of :func:`estar_decompose`: build sum a_v E*_v from a dict
    of coefficients."""
    a = Cycle.from_dict(g, coeffs)  # the vector a over one denominator
    return _from_estar_nums(g, a.den, a.nums)


def in_lipman_cone(lp: Cycle) -> bool:
    """True iff (lp, E_v) <= 0 for every vertex (lp is antinef)."""
    return all(x >= 0 for x in _estar_nums(lp))


def in_minus_lipman_cone(lp: Cycle) -> bool:
    """True iff (lp, E_v) >= 0 for every vertex."""
    return all(x <= 0 for x in _estar_nums(lp))


def is_dual_lattice_member(lp: Cycle) -> bool:
    """Membership in L': all pairings with base elements are integers."""
    den = lp.den
    return all(x % den == 0 for x in _estar_nums(lp))


# -- restrictions ----------------------------------------------------------


def restrict_cycle(z: Cycle, subset) -> Cycle:
    """Coefficient truncation: keep coordinates in ``subset``, zero elsewhere."""
    g = z.graph
    keep = {g.index(v) for v in subset}
    return Cycle.from_nums(
        g, z.den, [x if i in keep else 0 for i, x in enumerate(z.nums)]
    )


def restrict_R(lp: Cycle, subset):
    """Cohomological restriction operator onto the induced subgraph.

    Decomposes lp in the dual base, keeps the coefficients over ``subset``
    and reassembles on each connected component of the induced subgraph.
    Returns a list of ``(component_graph, cycle)`` pairs, components in
    declaration order; an empty ``subset`` raises EmptySubset (from
    :func:`subgraph`, which reads ``subset`` once).
    """
    g = lp.graph
    a = _estar_nums(lp)
    out = []
    for comp in subgraph(g, subset):
        a_c = [a[g.index(v)] for v in comp.names]
        out.append((comp, _from_estar_nums(comp, lp.den, a_c)))
    return out


def meet(a: Cycle, b: Cycle) -> Cycle:
    """Componentwise minimum (greatest lower bound for the coefficient order)."""
    den, x, y = a._lift(b)
    return Cycle.from_nums(a.graph, den, map(min, x, y))


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
    coeffs = [0] * g.n
    seen = set()
    for tok in text.split():
        m = _PAIR_RE.match(tok)
        if not m:
            raise GraphSyntaxError(f"bad cycle term {tok!r}")
        name = m.group(1)
        try:
            val = Fraction(m.group(2))
        except ZeroDivisionError:
            raise GraphSyntaxError(f"zero denominator in cycle term {tok!r}") from None
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
    parts = [f"{n}={c}" for n, c in cycle_to_json(z).items()]
    return " ".join(parts) if parts else "0"


def cycle_to_json(z: Cycle) -> dict:
    """JSON view: name -> "p/q" string, nonzero entries in declaration order."""
    den = z.den
    return {
        n: format_fraction(Fraction(x, den))
        for n, x in zip(z.graph.names, z.nums)
        if x
    }
