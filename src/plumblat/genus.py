"""Interval floors: the topologically computable lower endpoints of the
attainable h1 ranges, the generic geometric genus, and the dimension
formulas for effective Cauchy data spaces.

Floors over a disconnected support split over its components, which are
searched on the parent graph as index tuples (no component graphs).

Ceilings of these intervals depend on the analytic structure and are
never computed; reports carry an explicit "unknown (analytic)" marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import InternalError, PreconditionFailed
from .graph import PlumbingGraph, components
from .cycles import (
    Cycle,
    _estar_nums,
    in_minus_lipman_cone,
    is_dual_lattice_member,
    pairing,
    restrict_cycle,
)
from .chimin import _minimize, min_chi_lower_bounded

CEILING = "unknown (analytic)"


@dataclass(frozen=True)
class IntervalFloorReport:
    """Lower endpoint of an attainable h1 interval plus its evidence."""

    floor: Fraction
    minimizer: Cycle | None
    integral: bool  # floor guaranteed integer (Chern class in L')
    applicable: bool | None  # natural-line-bundle coefficient condition
    per_component: tuple = ()
    diagnostics: dict = field(default_factory=dict)
    nodes: int = 0
    ceiling: str = CEILING


def interval_floor_line_bundle(
    z: Cycle, lp: Cycle, budget: int | None = None
) -> IntervalFloorReport:
    """q = chi(-l') - min over 0 <= l <= Z of chi(-l' + l).

    This is the smallest h1 a line bundle of Chern class l' on Z can
    have, attained by generic bundles.  When the support of Z is
    disconnected the report also carries the per-component floors (with
    the Chern class pushed through the cohomological restriction); their
    sum equals the global floor exactly.
    """
    lp._same_graph(z)
    if not (z.is_integral and z.is_effective):
        raise PreconditionFailed("z must be an effective integral cycle")
    g, hi = z.graph, z.int_coeffs()
    den, a = lp.den, _estar_nums(lp)
    # chi(-l') - min chi(-l' + l) is -val / 2d in the kernel's scaling
    val, d, point, size = _minimize(g, den, a, range(g.n), (0,) * g.n, hi, budget)
    floor = Fraction(-val, 2 * d)
    comps = ()
    split = components(g, [i for i, x in enumerate(hi) if x])
    if len(split) > 1:
        entries = []
        for c in split:
            hi_c = [hi[i] for i in c]
            val, d, _, _ = _minimize(g, den, a, c, (0,) * len(c), hi_c, budget)
            entries.append((tuple([g.names[i] for i in c]), Fraction(-val, 2 * d)))
        comps = tuple(entries)
        if sum(f for _, f in comps) != floor:
            raise InternalError("component floors do not sum to the global floor")
    return IntervalFloorReport(
        floor=floor,
        minimizer=Cycle(g, point),
        integral=is_dual_lattice_member(lp),
        applicable=None,
        per_component=comps,
        nodes=size,
    )


def natural_floor_applicable(z: Cycle, lp: Cycle):
    """Check the coefficient-sign hypothesis under which the floor is
    exactly attained by natural line bundles: writing l' = sum b_v E_v,
    every b_v with v in the support of Z must be negative."""
    z._same_graph(lp)
    bad = tuple(
        v for v in z.support() if lp[v] >= 0
    )
    return not bad, {"offending_vertices": bad}


def generic_pg(g: PlumbingGraph, budget: int | None = None) -> IntervalFloorReport:
    """Geometric genus of the generic singularity on this graph:
    1 - min over l >= E of chi(l)."""
    cert = min_chi_lower_bounded(Cycle.ones(g), budget)
    return IntervalFloorReport(
        floor=1 - cert.min_value,
        minimizer=cert.minimizer,
        integral=True,
        applicable=None,
        diagnostics={"certificate": cert.certificate},
        nodes=cert.nodes,
    )


def generic_h1_oz_floor(z: Cycle, budget: int | None = None) -> IntervalFloorReport:
    """Floor of h1 of the structure sheaf of Z:
    per connected component of |Z|, 1 - min over E_{|Z|} <= l <= Z of chi(l),
    summed over components.  Z = 0 gives 0 (empty scheme)."""
    g = z.graph
    if not (z.is_integral and z.is_effective):
        raise PreconditionFailed("z must be an effective integral cycle")
    zc = z.nums
    supp = [i for i, x in enumerate(zc) if x]
    if not supp:
        return IntervalFloorReport(
            floor=Fraction(0), minimizer=None, integral=True, applicable=None
        )
    # per component C: chi(E_C) = 1 on a tree, so 1 - min chi(E_C + l) over
    # 0 <= l <= Z_C - E_C is -val / 2d; I E_|Z| is I E_C on C
    ix = g.intersect([int(x > 0) for x in zc])
    total = Fraction(0)
    entries = []
    minimizer = [0] * g.n
    nodes = 0
    for c in components(g, supp):
        hi_c = [zc[i] - 1 for i in c]
        val, d, point, size = _minimize(g, 1, ix, c, (0,) * len(c), hi_c, budget)
        f = Fraction(-val, 2 * d)
        entries.append((tuple([g.names[i] for i in c]), f))
        total += f
        # the attained cycle is E_C + l on the component, 0 elsewhere
        for i, x in zip(c, point):
            minimizer[i] = x + 1
        nodes += size
    return IntervalFloorReport(
        floor=total,
        minimizer=Cycle(g, minimizer),
        integral=True,
        applicable=None,
        per_component=tuple(entries),
        nodes=nodes,
    )


def generic_natural_h1(
    z: Cycle, lp: Cycle, budget: int | None = None
) -> IntervalFloorReport:
    """h1 of the natural line bundle of Chern class l' on Z for a generic
    singularity: numerically the same floor as
    :func:`interval_floor_line_bundle`, with the natural-bundle
    applicability diagnostics attached."""
    base = interval_floor_line_bundle(z, lp, budget)
    ok, diag = natural_floor_applicable(z, lp)
    return replace(base, applicable=ok, diagnostics=diag)


# -- effective Cauchy data dimensions -------------------------------------


def eca_nonempty(lp: Cycle) -> bool:
    """Nonemptiness of the space of effective divisors of Chern class l':
    l' must lie in the negative Lipman cone (l' = 0 counts, via the
    empty divisor)."""
    return in_minus_lipman_cone(lp)


def eca_dim(z: Cycle, lp: Cycle) -> int:
    """Dimension (l', Z) of the divisor space; l' = 0 gives 0 by the
    empty-divisor convention."""
    z._same_graph(lp)
    if lp.is_zero:
        return 0
    if not in_minus_lipman_cone(lp):
        raise PreconditionFailed("Chern class is not in the negative Lipman cone")
    if not z >= Cycle.ones(z.graph):
        raise PreconditionFailed("cycle must dominate the reduced cycle E")
    val = pairing(lp, z)
    if val.denominator != 1:
        raise PreconditionFailed("dimension (l', Z) is not an integer")
    return int(val)


def fiber_dim(z: Cycle, lp: Cycle, h1_bundle: int, h1_oz: int) -> int:
    """Fiber dimension (l', Z) + h1(Z, L) - h1(O_Z) with the two h1
    values supplied by the caller (they are analytic data)."""
    if h1_bundle < 0 or h1_oz < 0:
        raise PreconditionFailed("h1 inputs must be nonnegative")
    if not in_minus_lipman_cone(lp):
        raise PreconditionFailed("Chern class is not in the negative Lipman cone")
    val = pairing(lp, z)
    if val.denominator != 1:
        raise PreconditionFailed("pairing (l', Z) is not an integer")
    return int(val) + h1_bundle - h1_oz


def generic_ez(z: Cycle, subset, budget: int | None = None) -> int:
    """Generic value of the affine-image dimension e_Z for E*-support I:
    h1(O_Z) minus h1 of Z restricted away from I, both at their generic
    floors."""
    g = z.graph
    chosen = {g.index(v) for v in subset}
    if not chosen:
        raise PreconditionFailed("subset must be nonempty")
    if len(chosen) == g.n:
        raise PreconditionFailed("subset complement must be nonempty")
    rest_names = [n for i, n in enumerate(g.names) if i not in chosen]
    term1 = generic_h1_oz_floor(z, budget).floor
    term2 = generic_h1_oz_floor(restrict_cycle(z, rest_names), budget).floor
    return int(term1 - term2)


def ez_with_oracle(h1_oz: int, h1_restricted: int) -> int:
    """Oracle-driven variant: both h1 terms supplied directly."""
    if h1_oz < 0 or h1_restricted < 0:
        raise PreconditionFailed("h1 inputs must be nonnegative")
    return h1_oz - h1_restricted
