import itertools
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest

from plumblat import (
    BoxTooLarge,
    Cycle,
    InternalError,
    PlumbingGraph,
    anticanonical_cycle,
    chi,
    fundamental_cycle,
    in_lipman_cone,
    intersection_data,
    is_rational,
    laufer_reduce,
    min_chi_box,
    min_chi_lower_bounded,
    pairing,
)
from plumblat import chimin, kernels
from plumblat.surgery import blowup_chain, blowup_edge_chain

from conftest import (
    brute_fundamental_cycle,
    corpus,
    brute_min_chi_box,
    graph_a1,
    graph_a2,
    graph_an,
    graph_e8,
    graph_t237,
    random_rat_cycle,
    random_tree,
)


def test_anticanonical_examples():
    a1, a2 = graph_a1(), graph_a2()
    assert anticanonical_cycle(a1).is_zero
    assert anticanonical_cycle(a2).is_zero
    m1 = random_tree(random.Random(0), max_n=1, euler_range=(-1, -1))
    assert anticanonical_cycle(m1) == -Cycle.ones(m1)


def test_adjunction_identity_random():
    rng = random.Random(21)
    for _ in range(60):
        g = random_tree(rng, max_n=7)
        zk = anticanonical_cycle(g)
        for v in g.names:
            e = Cycle.basis(g, v)
            assert pairing(-zk + e, e) + 2 == 0


def test_chi_examples():
    a1 = graph_a1()
    E = Cycle.basis(a1, "v")
    assert chi(Cycle.zero(a1)) == 0
    assert chi(anticanonical_cycle(a1)) == 0
    assert chi(E) == 1
    for n in range(5):
        assert chi(n * E) == n * n


def test_chi_vertex_value_is_one():
    rng = random.Random(23)
    for _ in range(30):
        g = random_tree(rng, max_n=6)
        for v in g.names:
            assert chi(Cycle.basis(g, v)) == 1


def test_chi_bilinear_expansion():
    rng = random.Random(29)
    for _ in range(60):
        g = random_tree(rng, max_n=6)
        a = random_rat_cycle(rng, g)
        b = random_rat_cycle(rng, g)
        assert chi(a + b) == chi(a) + chi(b) - pairing(a, b)


def test_chi_shift_identity():
    """chi(-l') - chi(-l'+l) = -(l', l) - chi(l)."""
    rng = random.Random(31)
    for _ in range(60):
        g = random_tree(rng, max_n=6)
        lp = random_rat_cycle(rng, g)
        l = Cycle(g, [rng.randint(0, 4) for _ in range(g.n)])
        assert chi(-lp) - chi(-lp + l) == -pairing(lp, l) - chi(l)


def test_fundamental_cycle_examples():
    a1, a2, e8 = graph_a1(), graph_a2(), graph_e8()
    assert fundamental_cycle(a1) == Cycle.basis(a1, "v")
    assert fundamental_cycle(a2) == Cycle.ones(a2)
    assert fundamental_cycle(e8) == Cycle(e8, [2, 3, 4, 6, 5, 4, 3, 2])


def test_fundamental_cycle_is_antinef_and_minimal():
    rng = random.Random(37)
    for _ in range(40):
        g = random_tree(rng, max_n=5, euler_range=(-5, -1))
        z = fundamental_cycle(g)
        assert in_lipman_cone(z)
        assert z == brute_fundamental_cycle(g)


def test_fundamental_cycle_order_independent():
    rng = random.Random(41)
    for _ in range(100):
        g = random_tree(rng, max_n=6)
        rev = type(g)(
            list(zip(g.names, g.euler))[::-1],
            [(g.names[i], g.names[j]) for i, j in g.edges],
        )
        z = fundamental_cycle(g)
        zr = fundamental_cycle(rev)
        assert all(z[v] == zr[v] for v in g.names)


def test_laufer_reduce_traces():
    a1 = graph_a1()
    E = Cycle.basis(a1, "v")
    assert laufer_reduce(2 * E, E) == E
    assert laufer_reduce(E, 2 * E) == E
    # no violation: already in -S' on the support
    assert laufer_reduce(3 * E, -E).is_zero


def test_laufer_reduce_postcondition():
    rng = random.Random(43)
    for _ in range(40):
        g = random_tree(rng, max_n=5)
        z = Cycle(g, [rng.randint(0, 3) for _ in range(g.n)])
        lp = random_rat_cycle(rng, g)
        l = laufer_reduce(z, lp)
        assert Cycle.zero(g) <= l and l <= z
        rest = z - l
        for v in rest.support():
            assert pairing(lp - l, Cycle.basis(g, v)) >= 0


def test_min_chi_box_examples():
    a1, a2 = graph_a1(), graph_a2()
    E = Cycle.basis(a1, "v")
    cert = min_chi_box(3 * E, -E)
    assert cert.min_value == 1 and cert.minimizer.is_zero
    cert = min_chi_box(Cycle.ones(a2), Cycle.zero(a2))
    assert cert.min_value == 0
    # any Z with l' = 0: zero is feasible
    assert min_chi_box(2 * Cycle.ones(a2), Cycle.zero(a2)).min_value <= 0


def test_min_chi_box_degenerate_zero():
    a1 = graph_a1()
    lp = Cycle.basis(a1, "v")
    cert = min_chi_box(Cycle.zero(a1), lp)
    assert cert.min_value == chi(-lp)
    assert cert.minimizer.is_zero


def test_min_chi_box_matches_brute_force():
    rng = random.Random(47)
    for _ in range(40):
        g = random_tree(rng, max_n=4, euler_range=(-6, -1))
        z = Cycle(g, [rng.randint(0, 4) for _ in range(g.n)])
        lp = random_rat_cycle(rng, g)
        cert = min_chi_box(z, lp)
        brute = min(
            chi(-lp + Cycle(g, p))
            for p in itertools.product(
                *[range(c + 1) for c in z.int_coeffs()]
            )
        )
        assert cert.min_value == brute
        assert chi(-lp + cert.minimizer) == cert.min_value


def test_min_chi_box_monotone_in_z():
    rng = random.Random(53)
    for _ in range(30):
        g = random_tree(rng, max_n=4)
        z = Cycle(g, [rng.randint(0, 3) for _ in range(g.n)])
        bigger = z + Cycle.basis(g, rng.choice(g.names))
        lp = random_rat_cycle(rng, g)
        assert (
            min_chi_box(bigger, lp).min_value <= min_chi_box(z, lp).min_value
        )


def test_min_chi_box_budget():
    a2 = graph_a2()
    with pytest.raises(BoxTooLarge):
        min_chi_box(Cycle(a2, [100, 100]), Cycle.zero(a2), budget=100)


def test_min_chi_lower_bounded_examples():
    a1 = graph_a1()
    assert min_chi_lower_bounded(Cycle.ones(a1)).min_value == 1
    m1 = random_tree(random.Random(0), max_n=1, euler_range=(-1, -1))
    assert min_chi_lower_bounded(Cycle.ones(m1)).min_value == 1
    cert = min_chi_lower_bounded(Cycle.ones(graph_t237()))
    assert cert.min_value == 0


def test_min_chi_lower_bounded_soundness():
    """Inflating the certified box must never improve the minimum."""
    rng = random.Random(59)
    for _ in range(30):
        g = random_tree(rng, max_n=4, euler_range=(-6, -2))
        cert = min_chi_lower_bounded(Cycle.ones(g))
        lo = cert.certificate["box_lo"]
        hi = tuple(h + 1 for h in cert.certificate["box_hi"])
        val, _ = brute_min_chi_box(g, lo, hi)
        assert val == cert.min_value


def test_is_rational_examples():
    assert is_rational(graph_a1())
    assert is_rational(graph_a2())
    assert is_rational(graph_e8())
    assert not is_rational(graph_t237())


def _spy_budget_gate(monkeypatch):
    """Record the (lo, hi, budget) of every call of the budget gate."""
    calls = []
    real = chimin._budget_gate

    def spy(lo, hi, budget):
        calls.append((tuple(lo), tuple(hi), budget))
        return real(lo, hi, budget)

    monkeypatch.setattr(chimin, "_budget_gate", spy)
    return calls


def test_is_rational_passes_one_gate_with_one_budget(monkeypatch):
    """One is_rational call is one certified search: the whole budget
    applies to its one box, which must fit in it."""
    calls = _spy_budget_gate(monkeypatch)
    sizes = []
    graphs = (PlumbingGraph([("a", -3)], []), graph_an(3, -3), graph_e8(), graph_t237())
    for g in graphs:
        calls.clear()
        want = is_rational(g)
        [(lo, hi, budget)] = calls
        assert budget is None and lo == (0,) * g.n
        s = kernels.box_size(lo, hi)
        sizes.append(s)
        calls.clear()
        with pytest.raises(BoxTooLarge) as exc:
            is_rational(g, budget=s - 1)
        assert (exc.value.required, exc.value.budget) == (s, s - 1)
        assert is_rational(g, budget=s) == want
        assert [c[2] for c in calls] == [s - 1, s]
    # E8 has Z_K = 0, so its box is the origin and budget 0 refuses it
    assert sizes == [2, 8, 1, 360]


def test_is_rational_matches_the_n_search_minimum_on_the_corpus():
    """The tree pass decides as Artin's criterion by one lower-bounded
    search per vertex (every nonzero l >= 0 is >= some E_v)."""
    for g in corpus():
        artin_min = min(
            min_chi_lower_bounded(Cycle.basis(g, v)).min_value for v in g.names
        )
        assert is_rational(g) == (artin_min >= 1)


def test_walk_box_holds_every_sublevel_point(monkeypatch):
    """Brute force over [0, 2 hi + 1], with chi from the intersection
    matrix in numpy: every l >= 0 with chi(l) <= 0 lies in the certified
    box [0, hi], and the origin is the only one iff the graph is rational.

    A seeded sample of corpus trees, non-rational ones (by chi(Z_min)) drawn
    apart so both verdicts are covered; trees whose enlarged box exceeds
    10^5 points are left out to bound the test's time.
    """
    calls = _spy_budget_gate(monkeypatch)

    def box_hi(g):
        calls.clear()
        rational = is_rational(g)
        [(_, hi, _)] = calls
        return hi, rational

    rng = random.Random(18)
    trees = corpus()
    non_rational = [g for g in trees if chi(fundamental_cycle(g)) != 1]
    sample = rng.sample(trees, 200) + rng.sample(non_rational, 60)
    seen = {True: 0, False: 0}
    for g in sample:
        hi, rational = box_hi(g)
        if np.prod([2 * h + 2 for h in hi]) > 10**5:
            continue
        m = np.array(g.matrix(), dtype=np.int64)
        pts = np.stack(
            np.meshgrid(*[np.arange(2 * h + 2) for h in hi], indexing="ij"),
            axis=-1,
        ).reshape(-1, g.n)
        two_chi = pts @ (np.array(g.euler) + 2) - ((pts @ m) * pts).sum(axis=1)
        low = pts[two_chi <= 0]
        assert (low <= np.array(hi)).all(), (g.euler, hi)
        assert (len(low) == 1) == rational
        seen[rational] += 1
    assert seen[True] >= 150 and seen[False] >= 50


def _brute_artin_min(g, hi):
    """Least 2 chi over the nonzero points of [0, hi] by plain enumeration
    (None when the box is the origin)."""
    values = [
        2 * chi(Cycle(g, point))
        for point in itertools.product(*[range(h + 1) for h in hi])
        if any(point)
    ]
    return min(values, default=None)


def test_artin_min_matches_brute_force():
    """The tree pass gives the least nonzero 2 chi of any box [0, hi], not
    only of the certified one: random small trees and boxes."""
    rng = random.Random(23)
    for _ in range(300):
        g = random_tree(rng, max_n=5, euler_range=(-4, -1))
        hi = [rng.randint(0, 4) for _ in range(g.n)]
        if np.prod([h + 1 for h in hi]) <= 3000:
            assert chimin._artin_min(g, hi) == _brute_artin_min(g, hi), (g.euler, hi)
    # the origin alone holds no nonzero point
    assert chimin._artin_min(graph_e8(), (0,) * 8) is None
    # (2,3,7) hung off the root r through a: in this box the one point with
    # chi <= 0 is 2E_c + E_p + E_q + E_s, where l_r = l_a = 0, so the
    # least value needs the entries at t = 0 whose subtree is nonzero
    g = PlumbingGraph(
        [("r", -2), ("a", -2), ("c", -1), ("p", -2), ("q", -3), ("s", -7)],
        [("r", "a"), ("a", "s"), ("c", "p"), ("c", "q"), ("c", "s")],
    )
    hi = (2, 0, 2, 1, 1, 1)
    low = [
        point
        for point in itertools.product(*[range(h + 1) for h in hi])
        if any(point) and chi(Cycle(g, point)) <= 0
    ]
    assert low == [(0, 0, 2, 1, 1, 1)]
    assert chimin._artin_min(g, hi) == 0 == _brute_artin_min(g, hi)
    # two copies of a star whose least 2 chi is negative, joined through c
    # with hi_c = 0: the box splits into the two stars' boxes, so the least
    # is twice the star's, which needs the one-entry table of c to add its
    # subtree's negative value at every l_x3 >= 1
    legs = [("x0", -2), ("x1", -7), ("x2", -7), ("x3", -7)]
    star = PlumbingGraph([("x", -1)] + legs, [("x", v) for v, _ in legs])
    star_hi = (19, 10, 3, 3, 3)
    least = _brute_artin_min(star, star_hi)
    assert least < 0
    g = PlumbingGraph(
        [("x", -1)] + legs + [("c", -2), ("y", -1)] + [("y" + v[1], e) for v, e in legs],
        [("x", v) for v, _ in legs]
        + [("y", "y" + v[1]) for v, _ in legs]
        + [("x3", "c"), ("c", "y3")],
    )
    assert chimin._artin_min(g, star_hi + (0,) + star_hi) == 2 * least


def test_artin_min_holds_only_the_tables_on_one_path():
    """A table of the min-sum pass is built at its vertex's first child
    message and dropped after its turn, so one call on (2,3,7) with 40
    blow-ups of the edge c-q (44 vertices, sum (hi_v + 1) = 18,450)
    allocates under half of one small int per box coordinate value at its
    peak; building every table up front takes about 0.7 MB here."""
    g = blowup_edge_chain(graph_t237(), "c", "q", 40).new_graph
    hi = chimin._level_box(g, (0,) * g.n)[3]
    entries = sum(h + 1 for h in hi)
    assert entries == 18_450
    tracemalloc.start()
    try:
        least = chimin._artin_min(g, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert least == 0
    assert peak < entries * sys.getsizeof(1) // 2


def test_is_rational_on_blowups_beyond_any_walk():
    """E8 (rational) and (2,3,7) (not rational) with 40 chained blow-ups
    and with 40 edge blow-ups: boxes of 10^46 to 10^106 points, which no
    walk of the box finishes, decided in well under a second at an explicit
    budget, and Artin's verdict does not change under blow-up."""
    start = time.perf_counter()
    sizes = []
    for g, edge in ((graph_e8(), ("v3", "v4")), (graph_t237(), ("c", "p"))):
        want = is_rational(g)
        for b in (blowup_chain(g, edge[0], 40), blowup_edge_chain(g, *edge, 40)):
            h = b.new_graph
            assert is_rational(h, budget=10**200) == want
            sizes.append(kernels.box_size((0,) * h.n, chimin._level_box(h, (0,) * h.n)[3]))
    assert time.perf_counter() - start < 1
    assert min(sizes) > 10**46


def test_is_rational_and_lattice_data_use_no_kernel(monkeypatch):
    """Neither the lattice data nor Artin's test factors a matrix or walks
    a box: with both kernel entries made to raise, fresh graphs still get
    their verdicts."""

    def forbidden(*args):
        raise AssertionError("kernel called")

    monkeypatch.setattr(kernels, "_factor", forbidden)
    monkeypatch.setattr(kernels, "box_values", forbidden)
    rng = random.Random(31)
    for _ in range(40):
        g = random_tree(rng, max_n=9)
        intersection_data(g)
        assert is_rational(g) == (chi(fundamental_cycle(g)) == 1)
    assert not is_rational(blowup_chain(graph_t237(), "c", 40).new_graph, budget=10**60)


def test_is_rational_reads_no_dense_matrix(monkeypatch):
    """Artin's test, Laufer's algorithms, Z_K and the validate data read
    only the O(n) lattice data: with the dense matrix made to raise,
    fresh graphs get the same verdicts, cycles and data as copies analysed
    beforehand, and E8 with 200 chained blow-ups, whose box of
    {chi <= 0} has about 10^277 points, is decided in well under a
    second."""
    rng = random.Random(24)
    specs = [random_tree(rng, max_n=12) for _ in range(60)]
    specs += [graph_e8(), graph_t237(), blowup_edge_chain(graph_e8(), "v3", "v4", 30).new_graph]

    def facts(g):
        data = intersection_data(g)
        zmin = fundamental_cycle(g)
        return (
            is_rational(g, budget=10**100),
            zmin,
            laufer_reduce(2 * zmin, Cycle.zero(g)),
            anticanonical_cycle(g),
            data.det,
            data.group_order,
        )

    def copy(g):
        return PlumbingGraph(
            list(zip(g.names, g.euler)),
            [(g.names[i], g.names[j]) for i, j in g.edges],
        )

    want = [facts(copy(g)) for g in specs]

    def forbidden(*args):
        raise AssertionError("O(n^2) lattice data built")

    monkeypatch.setattr(PlumbingGraph, "matrix", forbidden)
    assert [facts(copy(g)) for g in specs] == want
    g = blowup_chain(graph_e8(), "v3", 200).new_graph
    start = time.perf_counter()
    assert is_rational(g, budget=10**300)
    assert time.perf_counter() - start < 1
    box = kernels.box_size((0,) * g.n, chimin._level_box(g, (0,) * g.n)[3])
    assert 10**277 < box < 10**278


def test_laufer_cross_check_disagreement_raises(monkeypatch):
    """A fundamental cycle that disagrees with the tree pass, either way,
    is an internal error, not a verdict."""
    monkeypatch.setattr(chimin, "fundamental_cycle", lambda g: Cycle.zero(g))
    with pytest.raises(InternalError, match="cross-check"):
        is_rational(graph_a2())  # chi(0) = 0 claims non-rational
    monkeypatch.setattr(chimin, "fundamental_cycle", lambda g: Cycle.basis(g, "c"))
    with pytest.raises(InternalError, match="cross-check"):
        is_rational(graph_t237())  # chi(E_c) = 1 claims rational


def _scan_fundamental_cycle(g):
    """Laufer's algorithm with the smallest-index choice of v at every
    step, on the dense matrix: the reference for the worklist."""
    m, n = g.matrix(), g.n
    z = [1] * n
    s = [sum(row) for row in m]  # I z
    while True:
        v = next((i for i in range(n) if s[i] > 0), None)
        if v is None:
            return Cycle(g, z)
        z[v] += 1
        for i in range(n):
            s[i] += m[i][v]


def test_worklist_fundamental_cycle_matches_the_index_scan():
    """Z_min does not depend on the order of Laufer's steps: the worklist
    finds the cycle of the smallest-index scan, with the same chi, on every
    corpus tree and on 40-fold chained and edge blow-ups of E8 and
    (2,3,7)."""
    graphs = list(corpus())
    start = time.perf_counter()
    for g, edge in ((graph_e8(), ("v3", "v4")), (graph_t237(), ("c", "q"))):
        graphs += [blowup_chain(g, edge[0], 40).new_graph, blowup_edge_chain(g, *edge, 40).new_graph]
    for g in graphs:
        z = fundamental_cycle(g)
        want = _scan_fundamental_cycle(g)
        assert z == want
        assert chi(z) == chi(want)
    assert time.perf_counter() - start < 1
