"""The Riemann-Roch function chi, Laufer-style cycle algorithms, and
certified global integer minimization of chi over boxes and lower-bounded
regions.

chi is a convex quadratic with positive-definite quadratic part on the
real lattice, which is what makes the certified bounding box for the
unbounded minimization possible: the level set through any feasible value
is an ellipsoid with exactly computable coordinate extents.  The
lower-bounded minimization searches the box of the level through a
feasible start; Artin's rationality test takes the least chi over the
nonzero points of the box of the level through the origin, by one
leaf-to-root min-sum pass over the tree.
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
    den = lp.den
    return Fraction(_twice_chi(lp.graph, lp.nums, den), 2 * den * den)


def _twice_chi(g: PlumbingGraph, x, den=1) -> int:
    """2 den^2 chi(x / den) = den sum_v x_v (e_v + 2) - sum_v x_v (I x)_v,
    an integer, for integer numerators x."""
    lin = sum([xv * (e + 2) for xv, e in zip(x, g.euler)])
    return den * lin - sum(map(mul, x, g.intersect(x)))


# -- Laufer algorithms -----------------------------------------------------


def fundamental_cycle(g: PlumbingGraph) -> Cycle:
    """The minimal nonzero effective antinef cycle, by Laufer's algorithm.

    Start from the reduced cycle E and repeatedly add E_v for some v with
    (z, E_v) > 0; negative definiteness guarantees termination at the
    unique fundamental cycle, and every such sequence has the same length,
    sum(Z_min) - n.  The pairings s = I z are kept: adding E_v adds e_v to
    s_v and 1 to s_u for each neighbour u of v.  The vertices with s > 0
    are kept on a worklist: u joins it when s_u becomes 1, and v stays on
    it while s_v > 0, so a step costs the degree of v, not n.
    """
    n = g.n
    z = [1] * n
    s = g.intersect(z)
    euler, adj = g.euler, g._adj
    guard = intersection_data(g).group_order * sum(map(abs, euler)) * n * n
    work = [v for v in range(n) if s[v] > 0]
    steps = 0
    while work:
        v = work.pop()
        z[v] += 1
        s[v] += euler[v]
        if s[v] > 0:
            work.append(v)
        for u in adj[v]:
            s[u] += 1
            if s[u] == 1:
                work.append(u)
        steps += 1
        if steps > guard:
            raise InternalError("Laufer iteration exceeded its step guard")
    return Cycle(g, z)


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
    n = g.n
    zc = list(z.int_coeffs())
    l = [0] * n
    # p = den * I (lp - l): adding E_v to l takes den e_v from p_v and den
    # from p_u for each neighbour u of v
    den = lp.den
    p = g.intersect(lp.nums)
    while True:
        v = next(
            (i for i in range(n) if zc[i] - l[i] > 0 and p[i] < 0), None
        )
        if v is None:
            return Cycle(g, l)
        l[v] += 1
        p[v] -= den * g.euler[v]
        for u in g._adj[v]:
            p[u] -= den


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


def _budget_gate(lo, hi, budget):
    """The budget gate of every certified search: raises BoxTooLarge when
    the box [lo, hi] has more points than the budget (DEFAULT_BUDGET when
    None), else returns its size."""
    size = kernels.box_size(lo, hi)
    budget = DEFAULT_BUDGET if budget is None else budget
    if size > budget:
        raise BoxTooLarge(size, budget)
    return size


def _search_setup(g, den, ix, idxs, lo, hi, budget):
    """The set-up of a certified search of l -> chi(x0 + l) over the box
    [lo, hi] on ``idxs``: the box passes :func:`_budget_gate`, and the
    result is (P, q, d, size) with (P, q, d) from
    :func:`_shifted_quadratic`."""
    size = _budget_gate(lo, hi, budget)
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
    ceiling square root is the ceiling square root of its ceiling.  Only
    the diagonal adj_vv of the adjugate is read (``data.diagonal``), so
    the box costs O(n) lattice data.

    Returns (2 chi(l0), L, radius, hi) with hi_v = max(l0_v,
    floor(k_v / 2 den) + radius_v), the upper corner of the box.
    """
    data = intersection_data(g)
    den, k = data.group_order, data.zk_nums
    start = _twice_chi(g, l0)
    level = 4 * den * start - sum([x * (e + 2) for x, e in zip(k, g.euler)])
    scale = 4 * den * data.det
    radius = tuple([_ceil_sqrt(-(level * a // scale)) for a in data.diagonal])
    den2 = 2 * den
    hi = tuple([max(x // den2 + r, s) for x, r, s in zip(k, radius, l0)])
    return start, level, radius, hi


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


def _artin_min(g: PlumbingGraph, hi):
    """The least 2 chi(l) over the nonzero integer l in the box [0, hi], or
    None when the box holds only the origin.

    2 chi(l) = sum_v ((e_v + 2) l_v - e_v l_v^2) - 2 sum_{uv in edges} l_u l_v
    is a sum of vertex and edge terms on the tree, so one leaf-to-root
    min-sum pass (nonserial dynamic programming, Bertele-Brioschi) finds it.
    The table F_v of vertex v holds, for 0 <= t <= hi_v, the least 2 chi of
    the subtree of v with l_v = t, at t = 0 over the nonzero points of the
    subtree only.  Let N_c = min F_c.  A child c adds to F_v(s), s >= 1, the
    message min_t (G_c(t) - 2 s t), where G_c(0) = min(0, F_c(0)) also
    counts the all-zero subtree and G_c = F_c elsewhere.  At s = 0 some
    child must be nonzero, so F_v(0) is the sum over the children of
    min(0, N_c) plus the least max(N_c, 0).

    A message is the lower envelope of one line per t, and its minimizing
    t grows with s along the lower convex hull of the points (t, G_c(t)),
    so it costs O(hi_c + hi_v) steps.  The tables hold sum (hi_v + 1)
    values.
    """
    tables = [
        [(e + 2) * t - e * t * t for t in range(h + 1)] for e, h in zip(g.euler, hi)
    ]
    order, parent = g._rooted_tree()
    free = [0] * g.n  # sum over the children of min(0, N_c)
    gap = [None] * g.n  # least max(N_c, 0) over the children
    for c in reversed(order):
        f = tables[c]
        tables[c] = None
        f0 = gap[c]
        if f0 is not None:
            f0 += free[c]
        if len(f) > 1:
            least = min(f[1:])
            if f0 is not None and f0 < least:
                least = f0
        else:
            least = f0
        v = parent[c]
        if v < 0:
            return least
        if least is None:
            continue  # the subtree holds only its zero point
        if least < 0:
            free[v] += least
            gap[v] = 0
        elif gap[v] is None or least < gap[v]:
            gap[v] = least
        f[0] = g0 = 0 if f0 is None or f0 > 0 else f0
        fv = tables[v]
        if len(f) == 1:  # the message is G_c(0) at every s
            if g0:
                for s in range(1, len(fv)):
                    fv[s] += g0
            continue
        hull = []
        for t, y in enumerate(f):
            while len(hull) > 1:
                (t0, y0), (t1, y1) = hull[-2], hull[-1]
                if (y1 - y0) * (t - t1) < (y - y1) * (t1 - t0):
                    break
                hull.pop()
            hull.append((t, y))
        j, last = 0, len(hull) - 1
        for s in range(1, len(fv)):
            while j < last:
                (t0, y0), (t1, y1) = hull[j], hull[j + 1]
                if y1 - y0 > 2 * s * (t1 - t0):
                    break
                j += 1
            t, y = hull[j]
            fv[s] += y - 2 * s * t


def is_rational(g: PlumbingGraph, budget: int | None = None) -> bool:
    """Artin's rationality criterion: chi(l) >= 1 for every effective
    nonzero cycle.

    chi is an integer on integral cycles and chi(0) = 0, so this holds iff
    the origin is the only l >= 0 with chi(l) <= 0.  That sublevel set lies
    in the box [0, hi] of the level set through the origin
    (:func:`_level_box`), which passes the one budget gate; the least 2 chi
    over the nonzero points of the box (:func:`_artin_min`) decides.

    The independent chi(Z_min) = 1 check (Laufer) must agree; a mismatch
    is an implementation bug.  It is made in integers, 2 chi(Z_min) = 2
    (:func:`_twice_chi`), and chi(Z_min) is a Fraction only in the error.
    """
    lo = (0,) * g.n
    hi = _level_box(g, lo)[3]
    _budget_gate(lo, hi, budget)
    least = _artin_min(g, hi)
    rational = least is None or least > 0
    zmin = fundamental_cycle(g)
    den = zmin.den
    chi2 = _twice_chi(g, zmin.nums, den)  # 2 den^2 chi(Z_min)
    if rational != (chi2 == 2 * den * den):
        raise InternalError(
            "rationality cross-check disagreement: least 2 chi over the "
            f"nonzero l >= 0 = {least}, chi(Z_min) = {Fraction(chi2, 2 * den * den)}"
        )
    return rational
