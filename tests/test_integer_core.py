"""Differential tests of the integer lattice core.

The lattice data of the tree pass, the integer pairing, chi,
the shifted quadratic, the lower-bounded search box and the integer
E*-coordinates are compared with the plain Fraction formulas they replace:
Gauss-Jordan inversion, Bareiss determinants, the matrix pairing, Z_K by
solving the adjunction equations, level and radii of the box in Fractions,
and the dual base as the columns of -I^-1.
"""

import random
import time
from fractions import Fraction
from math import ceil, floor, isqrt, lcm, prod
from operator import mul

from plumblat import (
    Cycle,
    PlumbingGraph,
    chi,
    exactlin,
    intersection_data,
    pairing,
    parse_graph,
    serialize_graph,
)
from plumblat.chimin import (
    _shifted_quadratic,
    anticanonical_cycle,
    min_chi_lower_bounded,
)
from plumblat.cycles import (
    estar,
    estar_decompose,
    from_estar_coeffs,
    in_lipman_cone,
    in_minus_lipman_cone,
    is_dual_lattice_member,
    restrict_R,
)
from plumblat.surgery import blowup_chain

from conftest import corpus, graph_e8, random_rat_cycle, random_tree


def _trees(seed, count, max_n=7):
    rng = random.Random(seed)
    trees = [random_tree(rng, max_n=max_n) for _ in range(count)]
    # the sample must exercise nontrivial discriminant groups
    assert sum(abs(intersection_data(g).det) > 1 for g in trees) > count // 2
    return trees


# -- reference Fraction formulas -------------------------------------------


def old_pairing(a, b):
    m = a.graph.matrix()
    n = a.graph.n
    return sum(
        (a.coeffs[i] * m[i][j] * b.coeffs[j] for i in range(n) for j in range(n)),
        Fraction(0),
    )


def old_zk(g):
    return Cycle(g, exactlin.solve(g.matrix(), [e + 2 for e in g.euler]))


def old_chi(lp):
    return -old_pairing(lp, lp - old_zk(lp.graph)) / 2


def old_shifted_quadratic(g, x0):
    m = g.matrix()
    n = g.n
    zk = old_zk(g)
    w = [
        sum(
            Fraction(m[i][j]) * (zk.coeffs[j] - 2 * x0.coeffs[j])
            for j in range(n)
        )
        for i in range(n)
    ]
    d = lcm(*(f.denominator for f in w))
    P = [[-m[i][j] * d for j in range(n)] for i in range(n)]
    q = [int(f * d) for f in w]
    return P, q, d


def dual_cycle(rng, g, span=3):
    """A random element of L': an integer combination of the E*_v, built
    from the Fraction inverse."""
    inv = exactlin.invert(g.matrix())
    a = [rng.randint(-span, span) for _ in range(g.n)]
    return Cycle(
        g, [-sum(inv[i][v] * a[v] for v in range(g.n)) for i in range(g.n)]
    )


def sample_cycles(rng, g):
    return [
        dual_cycle(rng, g),
        dual_cycle(rng, g),
        Cycle(g, [rng.randint(-3, 3) for _ in range(g.n)]),
        random_rat_cycle(rng, g),
        Cycle.zero(g),
    ]


# -- lattice data ------------------------------------------------------------


def _star(rng, leaves):
    """A star with ``leaves`` leaves, declared in a random order so that
    the tree pass roots it at a leaf or at the centre."""
    verts = [("c", -leaves - rng.randint(1, 3))]
    verts += [(f"l{i}", rng.randint(-6, -2)) for i in range(leaves)]
    rng.shuffle(verts)
    return PlumbingGraph(verts, [("c", f"l{i}") for i in range(leaves)])


def _path(rng, n):
    """A path of ``n`` vertices with Euler numbers at most -2, declared in
    a random order so that the root of the tree pass can sit inside it."""
    names = [f"p{i}" for i in range(n)]
    verts = [(v, rng.randint(-4, -2)) for v in names]
    rng.shuffle(verts)
    return PlumbingGraph(verts, list(zip(names, names[1:])))


def test_intersection_data_matches_fraction_inverse_on_trees():
    """det, |L'/L|, Z_K = zk_nums / |det| and the adjugate's diagonal, from
    the O(n) tree pass, and the dual base E*_v, the columns of -I^-1, by
    one O(n) solve each, against the Fraction references, on fresh copies
    of every corpus tree, random trees of up to 40 vertices, and stars
    with 6 to 12 leaves and paths of up to 40 vertices declared in random
    order, so that the root of the pass sits anywhere in them (each solve
    is carried across every edge, into and out of each subtree); the
    signs (-1)^n need both parities of n.  The dense matrix is built only
    when it is read."""
    rng = random.Random(1)
    # the corpus graphs are shared between tests, so copies are analysed
    trees = [parse_graph(serialize_graph(g)) for g in corpus()]
    trees += [random_tree(rng, max_n=40) for _ in range(10)]
    trees += [_star(rng, k) for k in range(6, 13)]
    trees += [_path(rng, n) for n in (2, 3, 9, 17, 28, 40)]
    assert {g.n % 2 for g in trees} == {0, 1}
    assert max(g.n for g in trees) == 40
    for g in trees:
        m = g.matrix()
        det = exactlin.det_bareiss(m)
        data = intersection_data(g)
        assert data.det == det and data.group_order == abs(det)
        inv = exactlin.invert(m)
        assert [Fraction(a, det) for a in data.diagonal] == [
            inv[v][v] for v in range(g.n)
        ]
        zk = exactlin.mat_vec(inv, [e + 2 for e in g.euler])
        assert [Fraction(x, abs(det)) for x in data.zk_nums] == zk
        for i, v in enumerate(g.names):
            assert estar(g, v).coeffs == tuple(-row[i] for row in inv)
        assert "matrix" not in vars(data)
        assert data.matrix == tuple(map(tuple, m))


def test_intersection_data_of_a_long_blowup_chain():
    """E8 with 200 chained blow-ups (208 vertices) is unimodular.  Its
    O(n) lattice data and its dual base agree with a Bareiss determinant,
    with the adjunction equations I Z_K = e + 2 on the dense matrix, with
    the cofactors of both ends of the chain, and with the dense matrix at
    both ends, I E*_v = -E_v, which fixes the columns of -I^-1 there; the
    diagonal of the adjugate is -det (E*_v)_v at every vertex.  The whole
    dual base takes n solves of O(n) integer steps, not an inversion."""
    g = blowup_chain(graph_e8(), "v3", 200).new_graph
    m = g.matrix()
    start = time.perf_counter()
    data = intersection_data(g)
    dual = [estar(g, v) for v in g.names]
    assert time.perf_counter() - start < 1
    assert g.n == 208 and data.det == exactlin.det_bareiss(m) == 1
    assert data.group_order == 1 and {e.den for e in dual} == {1}
    assert exactlin.mat_vec(m, data.zk_nums) == [e + 2 for e in g.euler]
    assert list(data.diagonal) == [-data.det * e.nums[v] for v, e in enumerate(dual)]
    for v in (0, g.n - 1):
        minor = [row[:v] + row[v + 1:] for row in m[:v] + m[v + 1:]]
        assert data.diagonal[v] == exactlin.det_bareiss(minor)
        assert exactlin.mat_vec(m, dual[v].nums) == [-(w == v) for w in range(g.n)]


# -- chi, pairing and the shifted quadratic ----------------------------------


def test_anticanonical_cycle_matches_solve():
    for g in _trees(5, 100):
        assert anticanonical_cycle(g) == old_zk(g)


def test_chi_and_pairing_match_fraction_formulas():
    rng = random.Random(6)
    for g in _trees(7, 100):
        cycles = sample_cycles(rng, g)
        for a in cycles:
            assert chi(a) == old_chi(a)
            for b in cycles:
                assert pairing(a, b) == old_pairing(a, b)


def test_shifted_quadratic_matches_fraction_formula():
    rng = random.Random(8)
    for g in _trees(9, 100):
        for x0 in sample_cycles(rng, g):
            P, q, d = _shifted_quadratic(g, x0.den, g.intersect(x0.nums), range(g.n))
            assert (P, q, d) == old_shifted_quadratic(g, x0)
            # the defining identity at a random integer step
            l = [rng.randint(-2, 2) for _ in range(g.n)]
            val = sum(
                P[i][j] * l[i] * l[j] for i in range(g.n) for j in range(g.n)
            ) + sum(qi * li for qi, li in zip(q, l))
            assert 2 * d * (old_chi(x0 + Cycle(g, l)) - old_chi(x0)) == val


def old_ceil_sqrt(x):
    """Smallest integer m >= 0 with m*m >= x, for a nonnegative Fraction x."""
    p, q = x.numerator, x.denominator
    m = isqrt(p // q)
    while m * m * q < p:
        m += 1
    return m


def old_lower_bounded_certificates(g):
    """The certificates of the searches over l >= E_v (each v) and l >= E
    by the Fraction formulas: centre Z_K/2, level chi(l0) - chi(Z_K/2)
    from the feasible start l0 = max(c, ceil(Z_K/2)), radii
    ceil(sqrt(2 level (-I^-1)_vv)) and box_hi = max(floor(Z_K/2) + r, l0)."""
    m = g.matrix()
    inv = exactlin.invert(m)
    zk = exactlin.mat_vec(inv, [e + 2 for e in g.euler])

    def frac_chi(x):
        """-(x, x - Z_K) / 2"""
        mx = exactlin.mat_vec(m, x)
        return (sum(map(mul, mx, zk)) - sum(map(mul, mx, x))) / Fraction(2)

    center = [z / 2 for z in zk]
    chi_center = frac_chi(center)
    out = []
    for c in [Cycle.basis(g, v) for v in g.names] + [Cycle.ones(g)]:
        lo = tuple(int(x) for x in c.coeffs)
        l0 = [max(ci, ceil(x)) for ci, x in zip(lo, center)]
        start_value = frac_chi(l0)
        level = start_value - chi_center
        radius = tuple(old_ceil_sqrt(2 * level * -inv[v][v]) for v in range(g.n))
        hi = tuple(max(floor(x) + r, s) for x, r, s in zip(center, radius, l0))
        out.append((c, {
            "continuous_minimizer": Cycle(g, center),
            "level_bound": level,
            "radius": radius,
            "feasible_start": Cycle(g, l0),
            "start_value": start_value,
            "box_lo": lo,
            "box_hi": hi,
        }))
    return out


def test_lower_bounded_certificate_matches_fraction_formulas():
    """The integer set-up of min_chi_lower_bounded gives the certificate of
    the Fraction formulas on every corpus tree and on random trees with
    Euler numbers down to -200."""
    rng = random.Random(10)
    trees = corpus() + [
        random_tree(rng, max_n=7, euler_range=(-200, -1)) for _ in range(40)
    ]
    assert max(max(map(abs, g.euler)) for g in trees[-40:]) > 100
    for g in trees:
        for c, want in old_lower_bounded_certificates(g):
            cert = min_chi_lower_bounded(c)
            assert cert.certificate == want
            assert cert.region == {"type": "lower_bound", "lo": want["box_lo"]}
            assert cert.nodes == prod(
                b - a + 1 for a, b in zip(want["box_lo"], want["box_hi"])
            )


def test_dual_base_matches_fraction_inverse():
    rng = random.Random(11)
    for g in _trees(12, 60):
        inv = exactlin.invert(g.matrix())
        for i, v in enumerate(g.names):
            assert estar(g, v).coeffs == tuple(-row[i] for row in inv)
        for lp in sample_cycles(rng, g):
            coeffs, supp = estar_decompose(lp)
            m = g.matrix()
            for i, v in enumerate(g.names):
                want = -sum(m[i][j] * c for j, c in enumerate(lp.coeffs))
                assert coeffs[v] == want
            assert from_estar_coeffs(g, coeffs) == lp


# -- the integer E*-coordinates ----------------------------------------------


def old_estar_coords(lp):
    """a_v = -(lp, E_v) from the matrix, as Fractions."""
    m = lp.graph.matrix()
    return [-sum(map(mul, row, lp.coeffs)) for row in m]


def old_restrict_R(lp, comp_names):
    """Component c gets sum over v in c of a_v E*^(c)_v, with E*^(c) the
    columns of -invert(I_c) for the principal submatrix I_c of I."""
    g = lp.graph
    a = old_estar_coords(lp)
    idxs = [g.index(v) for v in comp_names]
    m = g.matrix()
    inv_c = exactlin.invert([[m[i][j] for j in idxs] for i in idxs])
    k = len(idxs)
    return tuple(
        -sum(inv_c[r][c] * a[idxs[c]] for c in range(k)) for r in range(k)
    )


def test_estar_layer_matches_fraction_formulas():
    rng = random.Random(13)
    seen = {"cone": 0, "minus_cone": 0, "in_L'": 0, "not_L'": 0, "split": 0}
    for g in _trees(14, 80):
        # a nonnegative combination of the E*_v lies in the Lipman cone
        lipman = sum((rng.randint(0, 2) * estar(g, v) for v in g.names), Cycle.zero(g))
        cycles = sample_cycles(rng, g)
        cycles += [-c for c in cycles] + [lipman]
        for lp in cycles:
            a = old_estar_coords(lp)
            cone = all(x >= 0 for x in a)
            minus_cone = all(x <= 0 for x in a)
            member = all(x.denominator == 1 for x in a)
            assert in_lipman_cone(lp) == cone
            assert in_minus_lipman_cone(lp) == minus_cone
            assert is_dual_lattice_member(lp) == member
            seen["cone"] += cone
            seen["minus_cone"] += minus_cone
            seen["in_L'"] += member
            seen["not_L'"] += not member
            subset = rng.sample(g.names, rng.randint(1, g.n))
            parts = restrict_R(lp, subset)
            covered = [v for comp, _ in parts for v in comp.names]
            assert sorted(covered) == sorted(subset)
            seen["split"] += len(parts) > 1
            m = g.matrix()
            for comp, cyc in parts:
                idxs = [g.index(v) for v in comp.names]
                assert comp.matrix() == [[m[i][j] for j in idxs] for i in idxs]
                assert cyc.graph == comp
                assert cyc.coeffs == old_restrict_R(lp, comp.names)
    assert all(seen.values()), seen
