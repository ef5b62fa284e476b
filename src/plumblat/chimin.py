"""The Riemann-Roch function chi, Laufer-style cycle algorithms, and
certified global integer minimization of chi over boxes and lower-bounded
regions.

chi is a convex quadratic with positive-definite quadratic part on the
real lattice, which is what makes the certified bounding box for the
unbounded minimization possible: the level set through any feasible value
is an ellipsoid with exactly computable coordinate extents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from .errors import BoxTooLarge, InternalError, PreconditionFailed
from .graph import PlumbingGraph, intersection_data
from .cycles import Cycle
from . import exactlin, kernels

DEFAULT_BUDGET = 10**8


# -- anticanonical cycle and chi ------------------------------------------


@lru_cache(maxsize=None)
def anticanonical_cycle(g: PlumbingGraph) -> Cycle:
    """The rational cycle solving the adjunction equations
    (-Z_K + E_v, E_v) + 2 = 0, i.e. (Z_K, E_v) = E_v^2 + 2 for all v,
    so Z_K = I^-1 (e + 2) = adj (e + 2) / det."""
    data = intersection_data(g)
    k = [e + 2 for e in g.euler]
    return Cycle.from_nums(
        g, data.det, [sum(map(mul, row, k)) for row in data.adjugate]
    )


def chi(lp: Cycle) -> Fraction:
    """chi(l') = -(l', l' - Z_K)/2 = ((l', Z_K) - (l', l'))/2, exact.

    By adjunction (l', Z_K) = sum_v l'_v (E_v^2 + 2), so Z_K itself is
    not needed; the sums run over the integer numerators of l'.
    """
    g, den, x = lp.graph, lp.den, lp.nums
    lin = sum(xv * (e + 2) for xv, e in zip(x, g.euler))
    quad = sum(map(mul, x, g.intersect(x)))
    return Fraction(den * lin - quad, 2 * den * den)


# -- Laufer algorithms -----------------------------------------------------


def fundamental_cycle(g: PlumbingGraph) -> Cycle:
    """The minimal nonzero effective antinef cycle, by Laufer's algorithm.

    Start from the reduced cycle E and repeatedly add E_v for the
    smallest-index v with (z, E_v) > 0; negative definiteness guarantees
    termination at the unique fundamental cycle.
    """
    m = intersection_data(g).matrix
    n = g.n
    z = [1] * n
    # s = I z, updated incrementally
    s = [sum(m[i][j] for j in range(n)) for i in range(n)]
    guard = intersection_data(g).group_order * sum(
        abs(e) for e in g.euler
    ) * n * n
    steps = 0
    while True:
        v = next((i for i in range(n) if s[i] > 0), None)
        if v is None:
            return Cycle(g, z)
        z[v] += 1
        for i in range(n):
            s[i] += m[i][v]
        steps += 1
        if steps > guard:
            raise InternalError("Laufer iteration exceeded its step guard")


def laufer_reduce(z: Cycle, lp: Cycle) -> Cycle:
    """Reduce the Chern class lp along a Laufer sequence inside [0, z].

    Starting from l = 0, add E_v while some v in the support of z - l has
    (lp - l, E_v) < 0; on exit, lp - l pairs nonnegatively with every
    base element in the support of z - l (or z - l = 0).
    """
    if not (z.is_integral and z.is_effective):
        raise PreconditionFailed("z must be an effective integral cycle")
    g = z.graph
    lp._same_graph(z)
    m = intersection_data(g).matrix
    n = g.n
    zc = list(z.int_coeffs())
    l = [0] * n
    # p = den * I (lp - l), updated incrementally
    den = lp.den
    p = g.intersect(lp.nums)
    while True:
        v = next(
            (i for i in range(n) if zc[i] - l[i] > 0 and p[i] < 0), None
        )
        if v is None:
            return Cycle(g, l)
        l[v] += 1
        for i in range(n):
            p[i] -= den * m[i][v]


# -- certified minimization ------------------------------------------------


@dataclass(frozen=True)
class MinChiCertificate:
    """A claimed global minimum of chi over a region, plus the finite
    search data proving it."""

    region: dict
    min_value: Fraction
    minimizer: Cycle
    certificate: dict | None
    nodes: int


def _shifted_quadratic(g: PlumbingGraph, x0: Cycle):
    """Integer data (P, q, D) with 2*D*(chi(x0 + l) - chi(x0)) = l^T P l + q.l.

    The linear part is w = I (Z_K - 2 x0) = (e + 2) - 2 I x0 by
    adjunction; with x0 = x / den it is W / den for integer W, and D is
    the least common denominator of w in lowest terms.
    """
    m = intersection_data(g).matrix
    den, x = x0.den, x0.nums
    w = [den * (e + 2) - 2 * y for e, y in zip(g.euler, g.intersect(x))]
    common = gcd(den, *w)
    d = den // common
    P = [[-v * d for v in row] for row in m]
    q = [wi // common for wi in w]
    return P, q, d


def _minimize_shifted(g, x0, lo, hi, budget):
    """Scaled minimum of l -> chi(x0 + l) over the box [lo, hi]:
    (val, d, argmin, size) with val = 2d (chi(x0 + l) - chi(x0)) at the
    lexicographically smallest argmin l."""
    size = kernels.box_size(lo, hi)
    budget = DEFAULT_BUDGET if budget is None else budget
    if size > budget:
        raise BoxTooLarge(size, budget)
    P, q, d = _shifted_quadratic(g, x0)
    val, point = kernels.min_quadratic_box(P, q, lo, hi)
    return val, d, point, size


def _min_box_scaled(z: Cycle, lp: Cycle, budget):
    """:func:`min_chi_box` before the chi(-lp) shift: (val, d, argmin,
    size) with min chi(-lp + l) = chi(-lp) + val / 2d."""
    g = z.graph
    lp._same_graph(z)
    if not (z.is_integral and z.is_effective):
        raise PreconditionFailed("z must be an effective integral cycle")
    return _minimize_shifted(g, -lp, (0,) * g.n, z.int_coeffs(), budget)


def min_chi_box(z: Cycle, lp: Cycle, budget: int | None = None) -> MinChiCertificate:
    """Global minimum of l -> chi(-lp + l) over integer 0 <= l <= z."""
    val, d, point, size = _min_box_scaled(z, lp, budget)
    g = z.graph
    return MinChiCertificate(
        region={"type": "box", "lo": (0,) * g.n, "hi": z.int_coeffs()},
        min_value=chi(-lp) + Fraction(val, 2 * d),
        minimizer=Cycle(g, point),
        certificate=None,
        nodes=size,
    )


@lru_cache(maxsize=None)
def _lower_bound_data(g: PlumbingGraph):
    """Per-graph data of the lower-bounded searches: the continuous
    minimizer Z_K/2, chi(Z_K/2) = (Z_K, Z_K)/8, and the diagonal of
    -I^-1 = -adj / det, which scales the level-set radii."""
    data = intersection_data(g)
    zk = anticanonical_cycle(g)
    # (Z_K, Z_K) = sum_v (Z_K)_v (e_v + 2) by adjunction
    chi_center = Fraction(
        sum(z * (e + 2) for z, e in zip(zk.nums, g.euler)), 8 * zk.den
    )
    spread = tuple(
        Fraction(-data.adjugate[v][v], data.det) for v in range(g.n)
    )
    return Cycle.from_nums(g, 2 * zk.den, zk.nums), chi_center, spread


def min_chi_lower_bounded(c: Cycle, budget: int | None = None) -> MinChiCertificate:
    """Global minimum of chi over all integer l >= c, with a soundness
    certificate.

    The quadratic part of chi is positive definite, so the continuous
    minimizer is Z_K/2 and the level set through any feasible value is a
    bounded ellipsoid.  Starting from the feasible point
    l0 = max(c, ceil(Z_K/2)) the per-coordinate extent of the level set
    {chi <= chi(l0)} is bounded exactly with integer square roots, giving
    a finite box that provably contains every possible improvement.
    """
    g = c.graph
    if not (c.is_integral and c.is_effective):
        raise PreconditionFailed("lower bound must be an effective integral cycle")
    center, chi_center, spread = _lower_bound_data(g)
    den = center.den
    c_int = c.int_coeffs()
    l0 = [max(ci, -(-x // den)) for ci, x in zip(c_int, center.nums)]
    start = Cycle(g, l0)
    best = chi(start)
    level = best - chi_center  # >= 0 by convexity
    # |x_v - (Z_K/2)_v| <= sqrt(2 * level * ((-I)^-1)_vv) on the level set
    twice = 2 * level
    radius = [exactlin.ceil_sqrt_frac(twice * s) for s in spread]
    hi = [max(x // den + r, s) for x, r, s in zip(center.nums, radius, l0)]
    val, d, point, size = _minimize_shifted(g, Cycle.zero(g), c_int, tuple(hi), budget)
    cert = {
        "continuous_minimizer": center,
        "level_bound": level,
        "radius": tuple(radius),
        "feasible_start": start,
        "start_value": best,
        "box_lo": c_int,
        "box_hi": tuple(hi),
    }
    return MinChiCertificate(
        region={"type": "lower_bound", "lo": c_int},
        min_value=Fraction(val, 2 * d),  # chi(0) = 0
        minimizer=Cycle(g, point),
        certificate=cert,
        nodes=size,
    )


def is_rational(g: PlumbingGraph, budget: int | None = None) -> bool:
    """Artin's rationality criterion: chi(l) >= 1 for every effective
    nonzero cycle.

    Runs the minimization criterion (every nonzero effective l satisfies
    l >= E_v for some v) and the independent chi(Z_min) = 1 check, and
    demands agreement; a mismatch is an implementation bug.
    """
    artin_min = min(
        min_chi_lower_bounded(Cycle.basis(g, v), budget).min_value
        for v in g.names
    )
    by_min = artin_min >= 1
    by_zmin = chi(fundamental_cycle(g)) == 1
    if by_min != by_zmin:
        raise InternalError(
            "rationality cross-check disagreement: "
            f"min chi = {artin_min}, chi(Z_min) = {chi(fundamental_cycle(g))}"
        )
    return by_min
