import itertools
import json
import math
import os
import random
from fractions import Fraction

import pytest

from plumblat import (
    Cycle,
    PlumbingGraph,
    PreconditionFailed,
    chi,
    eca_dim,
    eca_nonempty,
    estar,
    ez_with_oracle,
    fiber_dim,
    fundamental_cycle,
    generic_ez,
    generic_h1_oz_floor,
    generic_natural_h1,
    generic_pg,
    interval_floor_line_bundle,
    is_rational,
    min_chi_box,
    natural_floor_applicable,
    restrict_R,
    restrict_cycle,
    subgraph,
)

from conftest import (
    corpus,
    graph_a1,
    graph_a2,
    graph_e8,
    graph_t237,
    random_rat_cycle,
    random_tree,
)


def test_floor_examples():
    a1 = graph_a1()
    E = Cycle.basis(a1, "v")
    assert interval_floor_line_bundle(3 * E, -E).floor == 0
    assert interval_floor_line_bundle(2 * E, Cycle.zero(a1)).floor >= 0
    # a Chern class outside L' can give a non-integer floor
    a2 = graph_a2()
    report = interval_floor_line_bundle(
        Cycle(a2, [2, 2]), Cycle(a2, [Fraction(-3, 2), 0])
    )
    assert report.floor == Fraction(1, 2)
    assert report.integral is False


def test_floor_nonnegative_and_monotone():
    rng = random.Random(61)
    for _ in range(30):
        g = random_tree(rng, max_n=4)
        z = Cycle(g, [rng.randint(0, 3) for _ in range(g.n)])
        lp = random_rat_cycle(rng, g)
        q = interval_floor_line_bundle(z, lp).floor
        assert q >= 0
        bigger = z + Cycle.basis(g, rng.choice(g.names))
        assert interval_floor_line_bundle(bigger, lp).floor >= q


def split_supports(rng, graphs, count):
    """``count`` pairs (g, Z) with Z of disconnected support, coefficients
    1..3 on a random vertex subset of a graph from ``graphs``."""
    out = []
    while len(out) < count:
        g = rng.choice(graphs)
        z = Cycle(g, [rng.choice((0, 0, 1, 2, 3)) for _ in range(g.n)])
        if z.support() and len(subgraph(g, z.support())) > 1:
            out.append((g, z))
    return out


def dual_lattice_cycle(rng, g):
    """A random element of L': an integer combination of the E*_v."""
    total = Cycle.zero(g)
    for v in g.names:
        total += rng.randint(-3, 3) * estar(g, v)
    return total


def test_floor_per_component_breakdown():
    """Each per-component floor equals the floor on the component graph
    with the Chern class R(l'), for l' in L' and outside it; each
    component of generic_h1_oz_floor equals its box search on the
    component graph, in floor and minimizer."""
    chain = PlumbingGraph(
        [("a", -2), ("b", -2), ("c", -2)], [("a", "b"), ("b", "c")]
    )
    z = Cycle.from_dict(chain, {"a": 2, "c": 1})  # disconnected support
    report = interval_floor_line_bundle(z, random_rat_cycle(random.Random(3), chain))
    assert [names for names, _ in report.per_component] == [("a",), ("c",)]
    rng = random.Random(64)
    graphs = [g for g in corpus() if g.n >= 3]
    graphs += [random_tree(rng, max_n=7) for _ in range(60)]
    graphs = [g for g in graphs if g.n >= 3]
    for g, z in split_supports(rng, graphs, 150):
        supp = z.support()
        comps = subgraph(g, supp)
        for lp in (dual_lattice_cycle(rng, g), random_rat_cycle(rng, g)):
            report = interval_floor_line_bundle(z, lp)
            want = []
            for comp, lp_c in restrict_R(lp, supp):
                z_c = Cycle.from_dict(comp, {v: z[v] for v in comp.names})
                want.append((comp.names, interval_floor_line_bundle(z_c, lp_c).floor))
            assert list(report.per_component) == want
            assert sum(f for _, f in want) == report.floor
        oz = generic_h1_oz_floor(z)
        assert len(oz.per_component) == len(comps)
        nodes = 0
        for comp, (names, floor) in zip(comps, oz.per_component):
            assert names == comp.names
            z_c = Cycle.from_dict(comp, {v: z[v] for v in comp.names})
            e_c = Cycle.ones(comp)
            cert = min_chi_box(z_c - e_c, -e_c)
            assert floor == 1 - cert.min_value
            attained = cert.minimizer + e_c
            assert [oz.minimizer[v] for v in names] == [attained[v] for v in names]
            nodes += cert.nodes
        assert oz.nodes == nodes


def path_bound(g, z, pairs):
    """min over increasing paths 0 = x_0 < ... < x_t = z, steps
    x_{i+1} = x_i + E_v, of sum max(0, chi(-l'+x_i) - chi(-l'+x_{i+1})),
    by a dynamic programme over the box [0, z]; ``pairs`` holds the
    (l', E_v).  chi(a + E_v) = chi(a) + 1 - (a, E_v) makes the step
    (x_i, E_v) - (l', E_v) - 1."""
    m = g.matrix()
    hi = z.int_coeffs()
    strides = [1] * g.n
    for v in range(g.n - 2, -1, -1):
        strides[v] = strides[v + 1] * (hi[v + 1] + 1)
    best = []
    for x in itertools.product(*[range(h + 1) for h in hi]):
        steps = [
            best[-strides[v]]
            + max(0, sum(a * b for a, b in zip(m[v], x)) - m[v][v] - pairs[v] - 1)
            for v in range(g.n)
            if x[v]
        ]
        best.append(min(steps) if steps else 0)
    return best[-1]


def test_floor_is_at_most_the_path_bound():
    """h1(Z, L) is at most the step sum along any increasing path from 0
    to Z (the exact sequences of the steps E_v = P^1), and the generic
    floor is an h1 value, so floor <= the least such sum; on rational
    trees with l' = 0 both are 0."""
    rng = random.Random(71)
    cases = rational = 0
    for g in rng.sample(corpus(), 60):
        zmin = fundamental_cycle(g)
        rat = is_rational(g)
        for z in (zmin, 2 * zmin):
            if math.prod(c + 1 for c in z.int_coeffs()) > 3000:
                continue
            # (E*_v, E_w) = -delta_vw
            chern = [(Cycle.zero(g), [0] * g.n)] + [
                (s * estar(g, v), [-s * (w == v) for w in g.names])
                for v in g.names
                for s in (1, -1)
            ]
            for lp, pairs in chern:
                floor = interval_floor_line_bundle(z, lp).floor
                bound = path_bound(g, z, pairs)
                assert floor <= bound
                if rat and lp.is_zero:
                    assert floor == bound == 0
                    rational += 1
                cases += 1
    assert cases >= 1000 and rational >= 100


def test_e8_floor_on_the_14m_point_box():
    """E8 with Z = 2 Z_min and l' = -E*_v: a 14,189,175-point box, solved
    by the enumerator along a few root-to-leaf paths; floors and
    minimizers match the benchmark's reference, and ``nodes`` is still the
    certified box size."""
    ref_path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "plumbench", "reference", "bigbox_floor.json",
    )
    with open(ref_path) as fh:
        reference = json.load(fh)
    g = graph_e8()  # the benchmark's E8: vertex i here is v{i+1}
    z = 2 * fundamental_cycle(g)
    for i, v in enumerate(g.names):
        report = interval_floor_line_bundle(z, -estar(g, v))
        want = reference[f"e8x2:v{i}"]
        assert str(report.floor) == want["floor"]
        assert [str(c) for c in report.minimizer.coeffs] == want["minimizer"]
        assert report.nodes == 14_189_175


def test_natural_floor_applicable():
    a1, a2 = graph_a1(), graph_a2()
    E = Cycle.basis(a1, "v")
    ok, _ = natural_floor_applicable(E, -estar(a1, "v"))
    assert ok
    ok, diag = natural_floor_applicable(E, Cycle.zero(a1))
    assert not ok and diag["offending_vertices"] == ("v",)
    ok, _ = natural_floor_applicable(Cycle.basis(a2, "a"), -estar(a2, "b"))
    assert ok  # only the coefficient over the support matters


def test_generic_pg_examples():
    assert generic_pg(graph_a1()).floor == 0
    assert generic_pg(graph_e8()).floor == 0
    assert generic_pg(graph_t237()).floor == 1


def test_generic_pg_zero_iff_rational_on_samples():
    rng = random.Random(67)
    for _ in range(25):
        g = random_tree(rng, max_n=4, euler_range=(-5, -1))
        assert (generic_pg(g).floor == 0) == is_rational(g)


def test_generic_h1_oz_examples():
    a1, t237 = graph_a1(), graph_t237()
    E = Cycle.basis(a1, "v")
    assert generic_h1_oz_floor(E).floor == 0
    assert generic_h1_oz_floor(3 * E).floor == 0
    assert generic_h1_oz_floor(2 * fundamental_cycle(t237)).floor == 1
    report = generic_h1_oz_floor(Cycle.zero(t237))
    assert report.floor == 0 and report.minimizer is None


def test_generic_h1_oz_minimizer_on_disconnected_support():
    """The minimizer is E + l on each component of |Z| and 0 elsewhere,
    and each component's part attains that component's floor."""
    rng = random.Random(72)
    split = 0
    for _ in range(30):
        g = random_tree(rng, max_n=6)
        z = Cycle(g, [rng.choice([0, 0, 1, 2, 3]) for _ in range(g.n)])
        if z.is_zero:
            continue
        report = generic_h1_oz_floor(z)
        m = report.minimizer
        assert m.support() == z.support()
        assert Cycle.zero(g) <= m <= z
        for names, floor in report.per_component:
            part = restrict_cycle(m, names)
            # chi(l) on the component equals chi of l pushed into g
            assert 1 - chi(part) == floor
        assert sum(f for _, f in report.per_component) == report.floor
        split += len(report.per_component) > 1
    assert split > 0


def test_generic_h1_oz_single_vertex_reduced():
    rng = random.Random(71)
    for _ in range(20):
        g = random_tree(rng, max_n=5)
        v = rng.choice(g.names)
        assert generic_h1_oz_floor(Cycle.basis(g, v)).floor == 0


def test_generic_natural_matches_line_bundle_floor():
    rng = random.Random(73)
    for _ in range(30):
        g = random_tree(rng, max_n=4)
        z = Cycle(g, [rng.randint(0, 3) for _ in range(g.n)])
        lp = random_rat_cycle(rng, g)
        assert (
            generic_natural_h1(z, lp).floor
            == interval_floor_line_bundle(z, lp).floor
        )


def test_generic_natural_rational_chern_class():
    a1 = graph_a1()
    E = Cycle.basis(a1, "v")
    es = estar(a1, "v")
    report = generic_natural_h1(E, -es)
    assert report.floor == 0  # chi(E*) = 1/4 equals chi(E* + E) = ... min
    assert chi(es) == Fraction(1, 4)
    assert chi(es + E) == Fraction(9, 4)
    a2 = graph_a2()
    assert generic_natural_h1(Cycle.ones(a2), -estar(a2, "a")).floor == 0


def test_eca_examples():
    a1 = graph_a1()
    E = Cycle.basis(a1, "v")
    es = estar(a1, "v")
    assert eca_nonempty(-es)
    assert not eca_nonempty(es)
    assert eca_nonempty(Cycle.zero(a1))
    assert eca_dim(E, -es) == 1
    assert eca_dim(E, Cycle.zero(a1)) == 0
    with pytest.raises(PreconditionFailed):
        eca_dim(E, es)
    a2 = graph_a2()
    es_a = estar(a2, "a")
    # Z must dominate E
    with pytest.raises(PreconditionFailed, match="reduced cycle"):
        eca_dim(Cycle.basis(a2, "a"), -es_a)
    # -E*_a / 2 is in the negative Lipman cone but (l', E) = 1/2
    with pytest.raises(PreconditionFailed, match="not an integer"):
        eca_dim(Cycle.ones(a2), Fraction(-1, 2) * es_a)


def test_fiber_dim():
    a1 = graph_a1()
    E = Cycle.basis(a1, "v")
    es = estar(a1, "v")
    assert fiber_dim(E, -es, 0, 0) == 1
    assert fiber_dim(2 * E, -es, 3, 3) == 2  # (-E*, 2E) = 2
    assert fiber_dim(E, Cycle.zero(a1), 1, 1) == 0
    with pytest.raises(PreconditionFailed):
        fiber_dim(E, -es, -1, 0)
    with pytest.raises(PreconditionFailed, match="Lipman cone"):
        fiber_dim(E, es, 0, 0)
    with pytest.raises(PreconditionFailed, match="not an integer"):
        fiber_dim(E, Fraction(-1, 3) * es, 0, 0)


def test_generic_ez():
    t237 = graph_t237()
    z = 2 * fundamental_cycle(t237)
    assert generic_ez(z, ["c"]) == 1  # the legs are rational chains
    # rational graph: both terms vanish
    a2 = graph_a2()
    assert generic_ez(2 * Cycle.ones(a2), ["a"]) == 0
    with pytest.raises(PreconditionFailed):
        generic_ez(z, [])
    with pytest.raises(PreconditionFailed):
        generic_ez(z, list(t237.names))
    assert ez_with_oracle(3, 1) == 2
    for bad in ((-1, 0), (0, -1)):
        with pytest.raises(PreconditionFailed, match="nonnegative"):
            ez_with_oracle(*bad)


def test_generic_ez_reads_a_subset_iterator_once():
    """The subset may be any iterable: a generator is used up by the first
    pass over it, and the restricted term must still leave out its
    vertices."""
    t237 = graph_t237()
    z = 3 * fundamental_cycle(t237)
    assert generic_ez(z, ["c"]) == 1
    assert generic_ez(z, (v for v in ["c"])) == 1
