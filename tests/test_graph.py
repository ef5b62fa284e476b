import gc
import random
import tracemalloc

import pytest

from plumblat import (
    EmptySubset,
    GraphSyntaxError,
    PlumbingGraph,
    UnknownVertex,
    ValidationError,
    generic_pg,
    intersection_data,
    is_rational,
    parse_graph,
    serialize_graph,
    subgraph,
)
from plumblat import exactlin
from plumblat.graph import components

from conftest import corpus, graph_e8, random_tree


def test_parse_single_vertex():
    g = parse_graph("vertex v -2")
    assert g.names == ("v",)
    assert g.matrix() == [[-2]]


def test_parse_a2_det():
    g = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    assert intersection_data(g).det == 3
    assert intersection_data(g).group_order == 3


def test_parse_rejects_non_negative_definite():
    with pytest.raises(ValidationError, match="minor 2"):
        parse_graph("vertex a -1\nvertex b -1\nedge a b")


def test_parse_comments_and_blanks():
    g = parse_graph("# header\n\nvertex v -3  # trailing\n")
    assert g.euler == (-3,)


@pytest.mark.parametrize(
    "text,err",
    [
        ("vertex v", GraphSyntaxError),
        ("vertex v x", GraphSyntaxError),
        ("vertex v -2\nvertex v -2", GraphSyntaxError),
        ("vertex a -2\nedge a a", GraphSyntaxError),
        ("vertex a -2\nvertex b -2\nedge a b\nedge b a", GraphSyntaxError),
        ("vertex a -2\nedge a b", GraphSyntaxError),
        ("foo a -2", GraphSyntaxError),
        ("vertex a -2 genus 1", GraphSyntaxError),
        ("genus 0", GraphSyntaxError),
    ],
)
def test_parse_syntax_errors(text, err):
    with pytest.raises(err):
        parse_graph(text)


def test_not_a_tree():
    with pytest.raises(ValidationError, match="tree"):
        PlumbingGraph([("a", -2), ("b", -2)], [])
    with pytest.raises(ValidationError, match="tree"):
        PlumbingGraph(
            [("a", -3), ("b", -3), ("c", -3)],
            [("a", "b"), ("b", "c"), ("c", "a")],
        )
    # n - 1 edges, but a triangle and an isolated vertex
    with pytest.raises(ValidationError, match="disconnected"):
        PlumbingGraph(
            [("a", -3), ("b", -3), ("c", -3), ("d", -2)],
            [("a", "b"), ("b", "c"), ("c", "a")],
        )


def test_e8_unimodular():
    assert intersection_data(graph_e8()).group_order == 1


def test_roundtrip_serialization():
    rng = random.Random(7)
    for _ in range(25):
        g = random_tree(rng)
        assert parse_graph(serialize_graph(g)) == g


def _random_form(rng, n, top=0):
    """A random tree on n vertices with Euler numbers in [-4, top],
    declared in shuffled order, so that a prefix of the declaration is a
    forest."""
    labels = list(range(n))
    rng.shuffle(labels)
    verts = [(f"v{i}", rng.randint(-4, top)) for i in range(n)]
    edges = [(f"v{labels[i]}", f"v{labels[rng.randrange(i)]}") for i in range(1, n)]
    return verts, edges


def test_definiteness_checks_agree():
    """Construction succeeds iff the leading principal minors of I
    alternate in sign, and otherwise names the first minor with the wrong
    sign, on random trees that are mostly not negative definite; the
    large ones also draw from [-4, -1], where some are."""
    rng = random.Random(11)
    shapes = [(rng.randint(1, 12), 0) for _ in range(1500)]
    shapes += [(rng.randint(13, 40), top) for top in (0, -1) for _ in range(20)]
    accepted = []
    for n, top in shapes:
        verts, edges = _random_form(rng, n, top)
        m = [[0] * n for _ in range(n)]
        for i, (_, e) in enumerate(verts):
            m[i][i] = e
        for a, b in edges:
            i, j = int(a[1:]), int(b[1:])
            m[i][j] = m[j][i] = 1
        minors = exactlin.leading_minors(m)
        bad = next(((k, d) for k, d in enumerate(minors, 1) if (-1) ** k * d <= 0), None)
        if bad is None:
            PlumbingGraph(verts, edges)
            accepted.append(n)
        else:
            with pytest.raises(ValidationError) as err:
                PlumbingGraph(verts, edges)
            assert str(err.value) == (
                f"not negative definite: leading principal minor {bad[0]} is {bad[1]}"
            )
    assert 100 < len(accepted) < len(shapes) - 100
    assert max(accepted) > 12


@pytest.mark.parametrize(
    "vertices,edges,message",
    [
        # minor 2 is zero
        ([("a", -1), ("b", -1)], [("a", "b")], "minor 2 is 0"),
        # chain -1, -2, -1: minors -1, 1, 0
        (
            [("a", -1), ("b", -2), ("c", -1)],
            [("a", "b"), ("b", "c")],
            "minor 3 is 0",
        ),
        # chain -1, -2, 0: minors -1, 1, 1 (wrong sign, nonzero)
        (
            [("a", -1), ("b", -2), ("c", 0)],
            [("a", "b"), ("b", "c")],
            "minor 3 is 1",
        ),
        # star -1 with arms -2, -3, -5: minors -1, 1, -1, -1
        (
            [("c", -1), ("p", -2), ("q", -3), ("r", -5)],
            [("c", "p"), ("c", "q"), ("c", "r")],
            "minor 4 is -1",
        ),
        # the (2,3,6) star is parabolic: minors -1, 1, -1, 0
        (
            [("c", -1), ("p", -2), ("q", -3), ("r", -6)],
            [("c", "p"), ("c", "q"), ("c", "r")],
            "minor 4 is 0",
        ),
        # a positive first minor is reported before anything else
        ([("a", 1), ("b", -2)], [("a", "b")], "minor 1 is 1"),
    ],
)
def test_not_negative_definite_message(vertices, edges, message):
    with pytest.raises(ValidationError) as info:
        PlumbingGraph(vertices, edges)
    assert str(info.value) == (
        f"not negative definite: leading principal {message}"
    )


@pytest.mark.parametrize(
    "vertices,edges,error,message",
    [
        ([("a-b", -2)], [], ValidationError, "invalid vertex name 'a-b'"),
        ([("a", -2), ("a", -3)], [], ValidationError, "duplicate vertex name"),
        (
            [("a", -2)],
            [("a", "b")],
            UnknownVertex,
            "edge endpoint 'a' or 'b' not declared",
        ),
        ([("a", -2)], [("a", "a")], ValidationError, "self-loop at 'a'"),
        (
            [("a", -2), ("b", -2)],
            [("a", "b"), ("b", "a")],
            ValidationError,
            "multi-edge between 'b' and 'a'",
        ),
        ([], [], ValidationError, "graph has no vertices"),
    ],
)
def test_constructor_rejects_bad_input(vertices, edges, error, message):
    """The constructor's own checks, which ``parse_graph`` never reaches
    because it rejects the same input first."""
    with pytest.raises(error) as info:
        PlumbingGraph(vertices, edges)
    assert str(info.value) == message


def test_subgraph_components():
    g = parse_graph(
        "vertex a -2\nvertex b -2\nvertex c -2\nedge a b\nedge b c"
    )
    comps = subgraph(g, ["a", "c"])
    assert [c.names for c in comps] == [("a",), ("c",)]
    assert subgraph(g, ["a", "b", "c"])[0] == g
    one = subgraph(g, ["a"])
    assert len(one) == 1 and one[0].matrix() == [[-2]]


def test_subgraph_errors():
    g = parse_graph("vertex a -2")
    with pytest.raises(EmptySubset):
        subgraph(g, [])
    with pytest.raises(UnknownVertex):
        subgraph(g, ["nope"])


def test_induced_subgraphs_validate():
    """``subgraph`` builds its components through the validated
    constructor, which must accept each one, for every subset of a
    sample of corpus trees.  The check makes each component connected;
    no edge of g may join two of them, and their index tuples are what
    ``components`` gives."""
    rng = random.Random(3)
    for g in rng.sample(corpus(), 300):
        for mask in range(1, 2**g.n):
            subset = [v for i, v in enumerate(g.names) if mask >> i & 1]
            comps = subgraph(g, subset)
            assert sorted(v for c in comps for v in c.names) == sorted(subset)
            idxs = [tuple(map(g.index, c.names)) for c in comps]
            where = {i: k for k, comp in enumerate(idxs) for i in comp}
            for i, j in g.edges:
                if i in where and j in where:
                    assert where[i] == where[j]
            assert idxs == sorted(idxs) and all(c == tuple(sorted(c)) for c in idxs)
            assert components(g, [g.index(v) for v in subset]) == idxs


def test_lattice_data_is_freed_with_the_graph():
    """Analysing throwaway graphs keeps no memory per graph: the lattice
    data lives on the graph, and the only cache left (the kernel's
    factorizations) is bounded, so a second batch of 600 random trees
    adds little to what the first batch left.  Caches keyed on graphs
    would keep over 1 KB per distinct graph; the bounded cache's size
    moves by tens of KB as its entries turn over."""
    rng = random.Random(2024)

    def batch(count):
        for _ in range(count):
            g = random_tree(rng, max_n=4, euler_range=(-12, -1))
            is_rational(g)
            generic_pg(g)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        first = batch(600)
        second = batch(600)
    finally:
        tracemalloc.stop()
    assert second - first < 250_000
