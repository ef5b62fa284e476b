"""The Riemann-Roch function chi, Laufer-style cycle algorithms, and
certified global integer minimization of chi over boxes and lower-bounded
regions.

chi is a convex quadratic with positive-definite quadratic part on the
real lattice, which is what makes the certified bounding box for the
unbounded minimization possible: the level set through any feasible value
is an ellipsoid with exactly computable coordinate extents.  The
lower-bounded minimization searches the box of the level through a
feasible start; Artin's rationality test walks the box of the level
through the origin once, for its points with chi <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

from .errors import BoxTooLarge, InternalError, PreconditionFailed
from .graph import PlumbingGraph, intersection_data
from .cycles import Cycle, _estar_nums
from . import kernels

DEFAULT_BUDGET = 10**8


# -- anticanonical cycle and chi ------------------------------------------


def anticanonical_cycle(g: PlumbingGraph) -> Cycle:
    """The rational cycle solving the adjunction equations
    (-Z_K + E_v, E_v) + 2 = 0, i.e. (Z_K, E_v) = E_v^2 + 2 for all v,
    so Z_K = I^-1 (e + 2); kept with the graph's lattice data."""
    data = intersection_data(g)
    return Cycle.from_nums(g, data.group_order, data.zk_nums)


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


def _shifted_quadratic(g: PlumbingGraph, den: int, ix, idxs):
    """Integer data (P, q, D) with 2*D*(chi(x0 + l) - chi(x0)) = l^T P l + q.l
    for l on the coordinates ``idxs``, where x0 = x / den and ix = I x.

    The linear part is w = I (Z_K - 2 x0) = (e + 2) - 2 I x0 by
    adjunction; on ``idxs`` it is W / den for integer W, D is the least
    common denominator of w[idxs] in lowest terms, and P is -D times the
    principal submatrix on ``idxs``.
    """
    m = intersection_data(g).matrix
    w = [den * (g.euler[i] + 2) - 2 * ix[i] for i in idxs]
    common = gcd(den, *w)
    d = den // common
    P = [[-d * row[j] for j in idxs] for row in map(m.__getitem__, idxs)]
    q = [wi // common for wi in w]
    return P, q, d


def _search_setup(g, den, ix, idxs, lo, hi, budget):
    """The budget gate of every certified search of l -> chi(x0 + l) over
    the box [lo, hi] on ``idxs``: raises BoxTooLarge when the box has more
    points than the budget (DEFAULT_BUDGET when None), else returns
    (P, q, d, size) with (P, q, d) from :func:`_shifted_quadratic`."""
    size = kernels.box_size(lo, hi)
    budget = DEFAULT_BUDGET if budget is None else budget
    if size > budget:
        raise BoxTooLarge(size, budget)
    P, q, d = _shifted_quadratic(g, den, ix, idxs)
    return P, q, d, size


def _minimize(g, den, ix, idxs, lo, hi, budget):
    """Scaled minimum of l -> chi(x0 + l) over the box [lo, hi] on ``idxs``:
    (val, d, argmin, size) with val = 2d (chi(x0 + l) - chi(x0)) at the
    lexicographically smallest argmin l."""
    P, q, d, size = _search_setup(g, den, ix, idxs, lo, hi, budget)
    val, point = kernels.min_quadratic_box(P, q, lo, hi)
    return val, d, point, size


def min_chi_box(z: Cycle, lp: Cycle, budget: int | None = None) -> MinChiCertificate:
    """Global minimum of l -> chi(-lp + l) over integer 0 <= l <= z."""
    lp._same_graph(z)
    if not (z.is_integral and z.is_effective):
        raise PreconditionFailed("z must be an effective integral cycle")
    g = z.graph
    lo, hi = (0,) * g.n, z.int_coeffs()
    # x0 = -lp: I x0 holds the E*-coordinates of lp
    val, d, point, size = _minimize(g, lp.den, _estar_nums(lp), range(g.n), lo, hi, budget)
    return MinChiCertificate(
        region={"type": "box", "lo": lo, "hi": hi},
        min_value=chi(-lp) + Fraction(val, 2 * d),
        minimizer=Cycle(g, point),
        certificate=None,
        nodes=size,
    )


def _ceil_sqrt(n: int) -> int:
    """Smallest m >= 0 with m * m >= n, for an integer n >= 0."""
    return 0 if n <= 0 else isqrt(n - 1) + 1


def _level_box(g: PlumbingGraph, l0):
    """The certified box of the level set {chi <= chi(l0)}, for integer l0.

    The quadratic part of chi is positive definite, so the set is an
    ellipsoid centred at the continuous minimizer Z_K/2.  With
    Z_K = k / den, by adjunction chi(Z_K/2) = sum_v k_v (e_v + 2) / (8 den),
    so the level L = 8 den (chi(l0) - chi(Z_K/2)) is an integer, and on
    the level set |l_v - (Z_K/2)_v|^2 <= L (-adj_vv) / (4 den det), whose
    ceiling square root is the ceiling square root of its ceiling.

    Returns (2 chi(l0), L, radius, hi) with hi_v = max(l0_v,
    floor(k_v / 2 den) + radius_v), the upper corner of the box.
    """
    data = intersection_data(g)
    den, k = data.group_order, data.zk_nums
    # 2 chi(l0) = lin - quad, as in chi
    lin = sum(x * (e + 2) for x, e in zip(l0, g.euler))
    quad = sum(map(mul, l0, g.intersect(l0)))
    level = 4 * den * (lin - quad) - sum(x * (e + 2) for x, e in zip(k, g.euler))
    scale = 4 * den * data.det
    radius = tuple(
        _ceil_sqrt(-(level * data.adjugate[v][v] // scale)) for v in range(g.n)
    )
    hi = tuple(max(x // (2 * den) + r, s) for x, r, s in zip(k, radius, l0))
    return lin - quad, level, radius, hi


def min_chi_lower_bounded(c: Cycle, budget: int | None = None) -> MinChiCertificate:
    """Global minimum of chi over all integer l >= c, with a soundness
    certificate.

    Starting from the feasible point l0 = max(c, ceil(Z_K/2)), the box of
    the level set {chi <= chi(l0)} (:func:`_level_box`) provably contains
    every possible improvement; the search runs over its part above c.
    """
    g = c.graph
    if not (c.is_integral and c.is_effective):
        raise PreconditionFailed("lower bound must be an effective integral cycle")
    data = intersection_data(g)
    den, k = data.group_order, data.zk_nums
    c_int = c.int_coeffs()
    l0 = [max(ci, -(-x // (2 * den))) for ci, x in zip(c_int, k)]
    start, level, radius, hi = _level_box(g, l0)
    val, d, point, size = _minimize(g, 1, (0,) * g.n, range(g.n), c_int, hi, budget)
    cert = {
        "continuous_minimizer": Cycle.from_nums(g, 2 * den, k),
        "level_bound": Fraction(level, 8 * den),
        "radius": radius,
        "feasible_start": Cycle(g, l0),
        "start_value": Fraction(start, 2),
        "box_lo": c_int,
        "box_hi": hi,
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

    chi is an integer on integral cycles and chi(0) = 0, so this holds iff
    the origin is the only l >= 0 with chi(l) <= 0.  That sublevel set lies
    in the box [0, hi] of the level set through the origin
    (:func:`_level_box`), which one certified walk of 2 chi (P = -I,
    q = e + 2) at bound 0 searches: the origin comes first, and any second
    point refutes rationality.  The box passes the one budget gate.

    The independent chi(Z_min) = 1 check (Laufer) must agree; a mismatch
    is an implementation bug.
    """
    lo = (0,) * g.n
    hi = _level_box(g, lo)[3]
    P, q, _, _ = _search_setup(g, 1, lo, range(g.n), lo, hi, budget)
    walk = kernels.box_values(P, q, lo, hi, 0)
    next(walk)  # the origin
    second = next(walk, None)
    chi_zmin = chi(fundamental_cycle(g))
    if (second is None) != (chi_zmin == 1):
        raise InternalError(
            "rationality cross-check disagreement: second (point, 2 chi) "
            f"with chi <= 0 = {second}, chi(Z_min) = {chi_zmin}"
        )
    return second is None
