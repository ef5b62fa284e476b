import random

import pytest

from plumblat import (
    Cycle,
    NegativeCoefficient,
    NotAnEdge,
    PlumbingGraph,
    PreconditionFailed,
    anticanonical_cycle,
    blowup_chain,
    blowup_edge,
    blowup_edge_chain,
    blowup_generic,
    chi,
    generic_pg,
    intersection_data,
    pairing,
    z_new,
    z_r,
)
from plumblat import exactlin

from conftest import graph_a1, graph_a2, random_rat_cycle, random_tree


def test_blowup_generic_a1():
    a1 = graph_a1()
    b = blowup_generic(a1, "v")
    g2 = b.new_graph
    assert g2.euler == (-3, -1)
    assert len(g2.edges) == 1
    pb = b.pullback(Cycle.basis(a1, "v"))
    assert pb == Cycle(g2, [1, 1])
    assert pairing(pb, pb) == -2
    assert b.pullback(Cycle.zero(a1)).is_zero


def test_blowup_generic_estar_orthogonal_to_new_curve():
    a2 = graph_a2()
    from plumblat import estar

    b = blowup_generic(a2, "a")
    pb = b.pullback(estar(a2, "a"))
    w = b.new_vertices[0][0]
    assert pairing(pb, Cycle.basis(b.new_graph, w)) == 0


def test_blowup_edge_a2():
    a2 = graph_a2()
    b = blowup_edge(a2, "a", "b")
    g2 = b.new_graph
    x = b.new_vertices[0][0]
    assert dict(zip(g2.names, g2.euler))["a"] == -3
    assert dict(zip(g2.names, g2.euler))["b"] == -3
    assert dict(zip(g2.names, g2.euler))[x] == -1
    pa = b.pullback(Cycle.basis(a2, "a"))
    pb_ = b.pullback(Cycle.basis(a2, "b"))
    assert pairing(pa, pb_) == 1


def test_blowup_edge_requires_edge():
    g = random_tree(random.Random(1), max_n=1)
    chain = type(g)(
        [("a", -2), ("b", -2), ("c", -2)], [("a", "b"), ("b", "c")]
    )
    with pytest.raises(NotAnEdge):
        blowup_edge(chain, "a", "c")


def test_blowup_chain_two_steps():
    a1 = graph_a1()
    b = blowup_chain(a1, "v", 2)
    g2 = b.new_graph
    eulers = dict(zip(g2.names, g2.euler))
    w1, w2 = b.new_vertices[0][0], b.new_vertices[1][0]
    assert eulers["v"] == -3
    assert eulers[w1] == -2
    assert eulers[w2] == -1
    assert [d for _, d in b.new_vertices] == [1, 2]


def _edge_names(g):
    return {frozenset((g.names[i], g.names[j])) for i, j in g.edges}


@pytest.mark.parametrize("k", [1, 2, 3, 40, 200])
def test_chains_in_closed_form(k):
    """A generic chain at u has pullback rows e_u, Euler numbers
    e_u - 1, -2, ..., -2, -1 and distances 1..k; an edge chain at u-w has
    rows i e_u + e_w, Euler numbers e_u - k, e_w - 1, -2, ..., -2, -1, the
    new curves on a path from u to w in reverse order and distances
    min(i, k + 1 - i).  Fresh names skip a taken one, and |det| is kept."""
    g = PlumbingGraph(
        [("c", -2), ("p", -2), ("q", -2), ("c_b2", -2)],
        [("c", "p"), ("c", "q"), ("c", "c_b2")],
    )
    fresh = [f"c_b{i}" + "_" * (i == 2) for i in range(1, k + 1)]
    unit = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    e_c, e_p = unit[0], unit[1]
    det = abs(exactlin.det_bareiss(g.matrix()))
    assert det == 4

    b = blowup_chain(g, "c", k)
    h = b.new_graph
    assert h.names == g.names + tuple(fresh)
    assert h.euler == (-3, -2, -2, -2) + (-2,) * (k - 1) + (-1,)
    path = ["c", *fresh]
    assert _edge_names(h) == _edge_names(g) | set(map(frozenset, zip(path, path[1:])))
    assert b.matrix == tuple(unit) + (e_c,) * k
    assert b.new_vertices == tuple(zip(fresh, range(1, k + 1)))
    assert b.old_to_new == {v: v for v in g.names}
    assert abs(exactlin.det_bareiss(h.matrix())) == det

    b = blowup_edge_chain(g, "c", "p", k)
    h = b.new_graph
    assert h.names == g.names + tuple(fresh)
    assert h.euler == (-2 - k, -3, -2, -2) + (-2,) * (k - 1) + (-1,)
    path = ["c", *reversed(fresh), "p"]
    assert _edge_names(h) == (_edge_names(g) - {frozenset("cp")}) | set(
        map(frozenset, zip(path, path[1:]))
    )
    rows = tuple(tuple(i * a + b for a, b in zip(e_c, e_p)) for i in range(1, k + 1))
    assert b.matrix == tuple(unit) + rows
    assert b.new_vertices == tuple(
        (name, min(i, k + 1 - i)) for i, name in enumerate(fresh, 1)
    )
    assert b.old_to_new == {v: v for v in g.names}
    assert abs(exactlin.det_bareiss(h.matrix())) == det


def test_chain_length_must_be_positive():
    a2 = graph_a2()
    with pytest.raises(PreconditionFailed, match="chain length"):
        blowup_chain(a2, "a", 0)
    with pytest.raises(PreconditionFailed, match="chain length"):
        blowup_edge_chain(a2, "a", "b", 0)


def test_pairing_preservation_random():
    rng = random.Random(101)
    for _ in range(30):
        g = random_tree(rng, max_n=5)
        u = rng.choice(g.names)
        k = rng.randint(1, 4)
        b = blowup_chain(g, u, k)
        x = random_rat_cycle(rng, g)
        y = random_rat_cycle(rng, g)
        assert pairing(b.pullback(x), b.pullback(y)) == pairing(x, y)
        if g.n > 1:
            i, j = sorted(rng.choice(sorted(g.edges)))
            be = blowup_edge(g, g.names[i], g.names[j])
            assert pairing(be.pullback(x), be.pullback(y)) == pairing(x, y)


def test_chi_invariance():
    """chi on the blown-up graph (with its freshly solved anticanonical
    cycle) agrees with chi downstairs on pullbacks."""
    rng = random.Random(103)
    for _ in range(30):
        g = random_tree(rng, max_n=5)
        u = rng.choice(g.names)
        b = blowup_chain(g, u, rng.randint(1, 3))
        lp = random_rat_cycle(rng, g)
        assert chi(b.pullback(lp)) == chi(lp)


def test_det_invariance():
    rng = random.Random(107)
    for _ in range(30):
        g = random_tree(rng, max_n=5)
        order = intersection_data(g).group_order
        u = rng.choice(g.names)
        b = blowup_chain(g, u, rng.randint(1, 5))
        assert intersection_data(b.new_graph).group_order == order
        if g.n > 1:
            i, j = sorted(rng.choice(sorted(g.edges)))
            bc = blowup_edge_chain(g, g.names[i], g.names[j], rng.randint(1, 3))
            assert intersection_data(bc.new_graph).group_order == order


def test_adjunction_on_new_graph():
    rng = random.Random(109)
    g = random_tree(rng, max_n=4)
    b = blowup_chain(g, g.names[0], 3)
    zk = anticanonical_cycle(b.new_graph)
    for v in b.new_graph.names:
        e = Cycle.basis(b.new_graph, v)
        assert pairing(-zk + e, e) + 2 == 0


def test_z_new_trace():
    a1 = graph_a1()
    E = Cycle.basis(a1, "v")
    b = blowup_chain(a1, "v", 1)
    zn = z_new(b, 2 * E)
    w = b.new_vertices[0][0]
    assert zn["v"] == 2 and zn[w] == 1
    zr = z_r(b, zn)
    assert zr["v"] == 2 and zr[w] == 0


def test_z_new_last_coefficient_is_one():
    """With chain length = Z_u - 1, the final -1 curve has coefficient 1."""
    rng = random.Random(113)
    for zu in (2, 3, 4):
        g = random_tree(rng, max_n=3)
        u = g.names[0]
        z = Cycle(g, [zu] * g.n)
        b = blowup_chain(g, u, zu - 1)
        zn = z_new(b, z)
        assert zn[b.last_vertex] == 1
        zr = z_r(b, zn)
        assert zr[b.last_vertex] == 0


def test_z_new_negative_coefficient():
    a1 = graph_a1()
    E = Cycle.basis(a1, "v")
    b1 = blowup_chain(a1, "v", 1)
    # Z_v = 1, k = 1: coefficient at the new curve is 0, allowed
    zn = z_new(b1, E)
    assert zn[b1.last_vertex] == 0
    with pytest.raises(PreconditionFailed):
        z_r(b1, zn)
    b2 = blowup_chain(a1, "v", 2)
    with pytest.raises(NegativeCoefficient):
        z_new(b2, E)


def test_generic_pg_invariant_under_blowup():
    rng = random.Random(127)
    for _ in range(15):
        g = random_tree(rng, max_n=4, euler_range=(-5, -1))
        u = rng.choice(g.names)
        b = blowup_generic(g, u)
        assert generic_pg(b.new_graph).floor == generic_pg(g).floor
