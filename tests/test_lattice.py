import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from plumblat import (
    Cycle,
    EmptySubset,
    GraphMismatch,
    GraphSyntaxError,
    estar,
    estar_decompose,
    in_lipman_cone,
    in_minus_lipman_cone,
    intersection_data,
    is_dual_lattice_member,
    meet,
    pairing,
    parse_cycle,
    restrict_R,
    restrict_cycle,
)
from plumblat.cycles import format_cycle, from_estar_coeffs

from conftest import (
    graph_a1,
    graph_a2,
    graph_d4,
    random_rat_cycle,
    random_tree,
)


def test_pairing_examples():
    a1, a2 = graph_a1(), graph_a2()
    E = Cycle.basis(a1, "v")
    assert pairing(E, E) == -2
    ea, eb = Cycle.basis(a2, "a"), Cycle.basis(a2, "b")
    assert pairing(ea, eb) == 1
    assert pairing(ea + eb, ea + eb) == -2


def test_pairing_graph_mismatch():
    with pytest.raises(GraphMismatch):
        pairing(Cycle.basis(graph_a1(), "v"), Cycle.basis(graph_a2(), "a"))


def test_estar_examples():
    a1, a2 = graph_a1(), graph_a2()
    assert estar(a1, "v") == Cycle(a1, [Fraction(1, 2)])
    assert estar(a2, "a") == Cycle(a2, [Fraction(2, 3), Fraction(1, 3)])


def test_estar_duality_and_positivity():
    rng = random.Random(42)
    for _ in range(100):
        g = random_tree(rng, max_n=6)
        stars = {v: estar(g, v) for v in g.names}
        for u in g.names:
            assert all(c > 0 for c in stars[u].coeffs)
            for w in g.names:
                assert pairing(stars[u], Cycle.basis(g, w)) == (
                    -1 if u == w else 0
                )


def test_group_order_clears_denominators():
    rng = random.Random(5)
    for _ in range(40):
        g = random_tree(rng, max_n=6)
        order = intersection_data(g).group_order
        for v in g.names:
            assert (order * estar(g, v)).is_integral


def test_estar_decompose_roundtrip():
    rng = random.Random(9)
    for _ in range(40):
        g = random_tree(rng, max_n=6)
        lp = random_rat_cycle(rng, g)
        coeffs, supp = estar_decompose(lp)
        assert from_estar_coeffs(g, coeffs) == lp
        assert supp == tuple(v for v in g.names if coeffs[v] != 0)


def test_estar_decompose_examples():
    a2 = graph_a2()
    coeffs, supp = estar_decompose(Cycle.basis(a2, "a"))
    assert coeffs == {"a": 2, "b": -1}
    coeffs, supp = estar_decompose(Cycle.zero(a2))
    assert supp == () and all(v == 0 for v in coeffs.values())


def test_lipman_cone_membership():
    a1, a2 = graph_a1(), graph_a2()
    assert in_lipman_cone(estar(a1, "v"))
    assert in_minus_lipman_cone(-estar(a1, "v"))
    assert not in_lipman_cone(Cycle.basis(a2, "a"))


def test_dual_lattice_membership():
    a2 = graph_a2()
    assert is_dual_lattice_member(estar(a2, "a"))
    assert is_dual_lattice_member(Cycle.basis(a2, "b"))
    assert not is_dual_lattice_member(Cycle(a2, [Fraction(1, 2), 0]))


def test_restrict_R_examples():
    a2 = graph_a2()
    parts = restrict_R(estar(a2, "a"), ["a"])
    assert len(parts) == 1
    comp, cyc = parts[0]
    assert comp.names == ("a",)
    assert cyc == Cycle(comp, [Fraction(1, 2)])
    # support outside the subset restricts to zero
    _, zero = restrict_R(estar(a2, "b"), ["a"])[0]
    assert zero.is_zero


def test_restrict_R_reads_the_subset_once():
    """A one-shot iterable subset is not used up before the restriction,
    and an empty subset is still refused."""
    a2 = graph_a2()
    [(comp, cyc)] = restrict_R(estar(a2, "a"), (v for v in ["a"]))
    assert comp.names == ("a",)
    assert cyc == Cycle(comp, [Fraction(1, 2)])
    with pytest.raises(EmptySubset):
        restrict_R(estar(a2, "a"), [])
    with pytest.raises(EmptySubset):
        restrict_R(estar(a2, "a"), (v for v in []))


def test_restrict_R_linearity():
    rng = random.Random(13)
    for _ in range(30):
        g = random_tree(rng, max_n=6)
        if g.n < 2:
            continue
        subset = list(g.names[: g.n - 1])
        x = random_rat_cycle(rng, g)
        y = random_rat_cycle(rng, g)
        lhs = restrict_R(x + y, subset)
        rx = restrict_R(x, subset)
        ry = restrict_R(y, subset)
        for (c1, a), (_, b), (_, c) in zip(lhs, rx, ry):
            assert a == b + c


def test_restrict_R_preserves_pairings_inside():
    """(R(l'), E_w) on the subgraph equals (l', E_w) for kept vertices."""
    rng = random.Random(17)
    for _ in range(30):
        g = random_tree(rng, max_n=6)
        subset = [v for v in g.names if rng.random() < 0.7] or [g.names[0]]
        lp = random_rat_cycle(rng, g)
        for comp, cyc in restrict_R(lp, subset):
            for w in comp.names:
                assert pairing(cyc, Cycle.basis(comp, w)) == pairing(
                    lp, Cycle.basis(g, w)
                )


def test_restrict_cycle():
    a2 = graph_a2()
    z = Cycle(a2, [2, 3])
    assert restrict_cycle(z, ["a"]) == Cycle(a2, [2, 0])
    assert restrict_cycle(z, ["a", "b"]) == z
    assert restrict_cycle(z, []).is_zero


def test_meet_examples():
    a2 = graph_a2()
    assert meet(Cycle(a2, [2, 3]), Cycle(a2, [3, 1])) == Cycle(a2, [2, 1])
    z = Cycle(a2, [3, 3])
    assert meet(z - Cycle(a2, [1, 0]), Cycle(a2, [1, 1])) == Cycle(a2, [1, 1])


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    coeffs=st.lists(st.integers(-6, 6), min_size=2, max_size=2),
)
def test_meet_is_greatest_lower_bound(data, coeffs):
    a2 = graph_a2()
    x = Cycle(a2, coeffs)
    y = Cycle(a2, data.draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2)))
    m = meet(x, y)
    assert m <= x and m <= y
    assert meet(x, x) == x
    other = Cycle(
        a2, data.draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2))
    )
    if other <= x and other <= y:
        assert other <= m


def test_cycle_literal_roundtrip():
    a2 = graph_a2()
    for text in ("a=1 b=2/3", "b=-1/2", "0"):
        z = parse_cycle(a2, text)
        assert parse_cycle(a2, format_cycle(z)) == z


@pytest.mark.parametrize(
    "text,message",
    [
        ("a=1 a=2", "duplicate vertex 'a'"),
        ("a=1/0", "zero denominator"),
        ("b=2 a=-3/0", "zero denominator"),
        ("a=x", "bad cycle term"),
    ],
)
def test_cycle_literal_errors(text, message):
    with pytest.raises(GraphSyntaxError, match=message):
        parse_cycle(graph_a2(), text)


def in_lowest_terms(z):
    return z.den > 0 and gcd(z.den, *z.nums) == 1


def test_cycle_inputs_give_the_fraction_view_in_lowest_terms():
    d4 = graph_d4()
    for values in (
        [0, 3, -2, 7],
        [Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 6)],
        ["1/2", "-4/6", "0", "3"],
        [0.5, -0.25, 2.0, 0.0],
        [Fraction(2, 4), 1, "3/9", 0.75],
        [Fraction(4, 2), "6/3", 2.0, 0],
    ):
        z = Cycle(d4, values)
        assert z.coeffs == tuple(Fraction(c) for c in values)
        assert in_lowest_terms(z)
        assert z.coeffs == tuple(Fraction(x, z.den) for x in z.nums)
        assert z.is_integral == (z.den == 1)
    assert Cycle(d4, [Fraction(4, 2), "6/3", 2.0, 0]).int_coeffs() == (2, 2, 2, 0)
    with pytest.raises(ValueError):
        Cycle(d4, [1, 2, 3])


def test_arithmetic_matches_fraction_coefficients():
    rng = random.Random(17)
    for _ in range(60):
        g = random_tree(rng, max_n=6)
        a, b = random_rat_cycle(rng, g), random_rat_cycle(rng, g)
        k = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        keep = [v for v in g.names if rng.random() < 0.5]
        x, y = a.coeffs, b.coeffs
        cases = [
            (a + b, [p + q for p, q in zip(x, y)]),
            (a - b, [p - q for p, q in zip(x, y)]),
            (-a, [-p for p in x]),
            (k * a, [k * p for p in x]),
            (a * k, [k * p for p in x]),
            (meet(a, b), [min(p, q) for p, q in zip(x, y)]),
            (restrict_cycle(a, keep), [a[v] if v in keep else 0 for v in g.names]),
        ]
        for z, want in cases:
            assert z.coeffs == tuple(want)
            assert in_lowest_terms(z)
        assert (a <= b) == all(p <= q for p, q in zip(x, y))
        assert (a >= b) == all(p >= q for p, q in zip(x, y))


def test_equal_cycles_built_different_ways():
    a2 = graph_a2()
    target = Cycle(a2, [Fraction(2, 3), Fraction(1, 3)])
    ways = [
        estar(a2, "a"),
        Cycle(a2, ["2/3", "1/3"]),
        Cycle.from_dict(a2, {"a": Fraction(4, 6), "b": Fraction(1, 3)}),
        from_estar_coeffs(a2, {"a": 1}),
        parse_cycle(a2, "b=1/3 a=2/3"),
        Cycle(a2, ["1/3", "2/3"]) + Cycle(a2, ["1/3", "-1/3"]),
        Cycle(a2, [1, 1]) - Cycle(a2, ["1/3", "2/3"]),
        Fraction(1, 3) * Cycle(a2, [2, 1]),
        Cycle(a2, [4, 2]) * Fraction(1, 6),
        -Cycle(a2, ["-2/3", "-1/3"]),
        2 * Cycle(a2, ["1/3", "1/6"]),
    ]
    for z in ways:
        assert z == target
        assert hash(z) == hash(target)
        assert (z.den, z.nums) == (3, (2, 1))
    assert len(set(ways)) == 1
    assert Cycle(a2, ["1/2", "1/2"]) + Cycle(a2, ["1/2", "-1/2"]) == Cycle(a2, [1, 0])
    assert target != Cycle(a2, [Fraction(2, 3), 0])
    for name in ("graph", "den", "nums", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(target, name, None)
