import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from plumblat import (
    BoxTooLarge,
    Cycle,
    GenericNaturalOracle,
    GraphMismatch,
    GraphSyntaxError,
    HypothesisFailed,
    OracleIncomplete,
    PlumbingGraph,
    PreconditionFailed,
    TableOracle,
    ValidationError,
    ZeroOracle,
    chi,
    estar,
    fundamental_cycle,
    interval_floor_line_bundle,
    meet,
    parse_oracle_file,
    reldom_check,
    relgen1_nonempty,
    relgen_h1,
    relspace_dim,
    restrict_R,
)
from plumblat import chimin

from conftest import (
    corpus,
    graph_a1,
    graph_a2,
    graph_t237,
    random_rat_cycle,
    random_tree,
)


def box_table(z, fn):
    return {
        pt: fn(pt)
        for pt in itertools.product(*[range(c + 1) for c in z.int_coeffs()])
    }


def test_reldom_examples():
    a1 = graph_a1()
    E = Cycle.basis(a1, "v")
    zero = ZeroOracle(E, E)
    assert reldom_check(E, E, Cycle.zero(a1), zero).dominant
    assert reldom_check(E, E, -estar(a1, "v"), zero).dominant


def test_reports_match_brute_force():
    """Every report field against plain enumeration of
    chi(-l'+l) - oracle(l): the witness is the lexicographically smallest
    violating l > 0 and the argmin the smallest minimizer."""
    rng = random.Random(101)
    for _ in range(60):
        g = random_tree(rng, max_n=3, euler_range=(-4, -1))
        z = Cycle(g, [rng.randint(0, 2) for _ in range(g.n)])
        z1 = Cycle(g, [rng.randint(0, int(c)) for c in z.coeffs])
        if rng.random() < 0.5:
            lp = random_rat_cycle(rng, g)
        else:
            lp = Cycle(g, [rng.randint(-2, 2) for _ in range(g.n)])
        zc, z1c = z.int_coeffs(), z1.int_coeffs()

        def draw(pt):
            fixed = [min(a - b, c) for a, b, c in zip(zc, pt, z1c)]
            return rng.randint(0, 2) if any(fixed) else 0

        table = box_table(z, draw)
        oracle = TableOracle(z, z1, table)
        points = list(itertools.product(*[range(c + 1) for c in zc]))
        obj = {pt: chi(-lp + Cycle(g, pt)) - table[pt] for pt in points}
        best = min(obj.values())
        violating = [pt for pt in points[1:] if obj[pt] <= obj[points[0]]]
        witness = Cycle(g, violating[0]) if violating else None
        argmin = Cycle(g, min(pt for pt in points if obj[pt] == best))
        for report in (
            reldom_check(z, z1, lp, oracle),
            relgen_h1(z, z1, lp, oracle),
        ):
            assert report.dominant == (witness is None)
            assert report.witness == witness
            assert report.rel_h1 == chi(-lp) - best
            assert report.argmin == argmin
            assert report.nodes == len(points)


def test_reldom_huge_oracle_value_blocks_dominance():
    a1 = graph_a1()
    E = Cycle.basis(a1, "v")
    z = 2 * E
    oracle = TableOracle(z, E, {(0,): 0, (1,): 100, (2,): 0})
    report = reldom_check(z, E, Cycle.zero(a1), oracle)
    assert not report.dominant
    assert report.witness == E


def test_relgen_hand_example_a2():
    """Z = E on the two-vertex -2 chain, table 1 at 0 and 0 elsewhere:
    the minimum of chi(l) - oracle(l) is -1 at l = 0, giving h1 = 1."""
    a2 = graph_a2()
    z = Cycle.ones(a2)
    oracle = TableOracle(
        z, z, box_table(z, lambda pt: 1 if pt == (0, 0) else 0)
    )
    report = relgen_h1(z, z, Cycle.zero(a2), oracle)
    assert report.rel_h1 == 1
    assert report.argmin.is_zero


def test_zero_oracle_collapses_to_interval_floor():
    rng = random.Random(79)
    for _ in range(40):
        g = random_tree(rng, max_n=4)
        z = Cycle(g, [rng.randint(0, 3) for _ in range(g.n)])
        z1 = Cycle(g, [rng.randint(0, int(c)) for c in z.coeffs])
        lp = random_rat_cycle(rng, g)
        report = relgen_h1(z, z1, lp, ZeroOracle(z, z1))
        assert report.rel_h1 == interval_floor_line_bundle(z, lp).floor


def test_empty_fixed_part_forces_zero_oracle():
    a2 = graph_a2()
    z = Cycle.ones(a2)
    z1 = Cycle.zero(a2)
    report = relgen_h1(z, z1, Cycle.zero(a2), ZeroOracle(z, z1))
    assert report.rel_h1 == interval_floor_line_bundle(z, Cycle.zero(a2)).floor


def test_dominant_implies_argmin_zero():
    rng = random.Random(83)
    for _ in range(40):
        g = random_tree(rng, max_n=3)
        z = Cycle(g, [rng.randint(1, 3) for _ in range(g.n)])
        lp = random_rat_cycle(rng, g)
        report = reldom_check(z, z, lp, ZeroOracle(z, z))
        if report.dominant:
            assert report.argmin.is_zero


def test_oracle_monotone_perturbation():
    rng = random.Random(89)
    for _ in range(30):
        g = random_tree(rng, max_n=3)
        z = Cycle(g, [rng.randint(1, 2) for _ in range(g.n)])
        lp = random_rat_cycle(rng, g)
        base_table = box_table(z, lambda pt: 0)
        zc = z.int_coeffs()
        points = [p for p in base_table if any(p) and p != zc]
        if not points:
            continue
        target = rng.choice(points)
        bumped = dict(base_table)
        bumped[target] = 1
        zero = TableOracle(z, z, base_table)
        bump = TableOracle(z, z, bumped)
        r0 = relgen_h1(z, z, lp, zero)
        r1 = relgen_h1(z, z, lp, bump)
        assert r1.rel_h1 >= r0.rel_h1
        assert r1.rel_h1 <= r0.rel_h1 + 1
        if tuple(int(c) for c in r0.argmin.coeffs) == target:
            assert r1.rel_h1 == r0.rel_h1 + 1


def test_rel_h1_at_least_fixed_part_value():
    rng = random.Random(97)
    for _ in range(20):
        g = random_tree(rng, max_n=3)
        z = Cycle(g, [rng.randint(1, 2) for _ in range(g.n)])
        lp = random_rat_cycle(rng, g)
        h0 = rng.randint(0, 3)
        table = box_table(z, lambda pt: h0 if not any(pt) else 0)
        report = relgen_h1(z, z, lp, TableOracle(z, z, table))
        assert report.rel_h1 >= h0


def test_table_oracle_totality_enforced():
    a2 = graph_a2()
    z = Cycle.ones(a2)
    with pytest.raises(OracleIncomplete):
        TableOracle(z, z, {(0, 0): 0})
    with pytest.raises(ValidationError, match="negative oracle value at \\(0, 0\\)"):
        TableOracle(z, z, box_table(z, lambda pt: -1 if not any(pt) else 0))
    # empty fixed part must map to zero
    with pytest.raises(ValidationError):
        TableOracle(z, z, box_table(z, lambda pt: 1))


def test_oracle_not_bound_to_pair():
    a2 = graph_a2()
    z = Cycle.ones(a2)
    oracle = ZeroOracle(z, z)
    with pytest.raises(PreconditionFailed):
        relgen_h1(z, Cycle.zero(a2), Cycle.zero(a2), oracle)


def test_generic_natural_oracle_zero_fixed_part():
    a2 = graph_a2()
    z = Cycle.ones(a2)
    oracle = GenericNaturalOracle(z, z, Cycle.zero(a2))
    # rational graph: generic natural floors vanish everywhere
    for pt in itertools.product(range(2), range(2)):
        assert oracle.value(Cycle(a2, pt)) == 0


def direct_generic_value(oracle, l):
    """The generic-oracle table entry from its definition: the interval
    floors of R(l' - l) on the components of min(z - l, z1), summed."""
    fixed = meet(oracle.z - l, oracle.z1)
    if fixed.is_zero:
        return 0
    total = 0
    for comp, lp_c in restrict_R(oracle.lp - l, fixed.support()):
        z_c = Cycle.from_dict(comp, {v: fixed[v] for v in comp.names})
        total += interval_floor_line_bundle(z_c, lp_c).floor
    return total


class RecordingGenericOracle(GenericNaturalOracle):
    def __init__(self, *args):
        super().__init__(*args)
        self.seen = []

    def value(self, l):
        v = super().value(l)
        self.seen.append((l, v))
        return v


def test_generic_oracle_matches_direct_formula():
    """Inside a relgen_h1 walk and outside one, every value (one search
    on the parent graph) equals the sum of component floors, also where
    min(z - l, z1) has several components; the walk asks for each box
    point once."""
    rng = random.Random(107)
    cases = split = 0
    for g in rng.sample(corpus(), 60):
        zmin = fundamental_cycle(g)
        z = rng.randint(1, 2) * zmin
        if len(list(itertools.product(*[range(int(c) + 1) for c in z.coeffs]))) > 200:
            continue
        z1 = Cycle(g, [rng.randint(0, int(c)) for c in z.coeffs])
        lp = rng.choice((1, -1)) * estar(g, rng.choice(g.names)) + Cycle(
            g, [rng.randint(-1, 1) for _ in range(g.n)]
        )
        oracle = RecordingGenericOracle(z, z1, lp)
        report = relgen_h1(z, z1, lp, oracle)
        points = [l.int_coeffs() for l, _ in oracle.seen]
        assert points == list(
            itertools.product(*[range(int(c) + 1) for c in z.coeffs])
        )
        assert len(points) == report.nodes
        for l, v in oracle.seen:
            assert v == direct_generic_value(oracle, l)
            support = meet(z - l, z1).support()
            if support and len(restrict_R(lp - l, support)) > 1:
                split += 1
        for l, v in rng.sample(oracle.seen, 5):
            assert oracle.value(l) == v
        cases += 1
    assert cases >= 10
    assert split > 0


def test_generic_sublevel_walk_matches_the_per_point_walk():
    """The plain generic oracle is evaluated by one sublevel walk; a
    subclass overriding ``value`` is asked at every box point.  Both give
    the same report, and rel_h1 is the interval floor of (Z, l')."""
    rng = random.Random(113)
    cases = dominant = 0
    graphs = corpus()
    while cases < 300:
        g = rng.choice(graphs)
        z = rng.randint(1, 3) * fundamental_cycle(g)
        if len(list(itertools.product(*[range(int(c) + 1) for c in z.coeffs]))) > 600:
            continue
        z1 = Cycle(g, [rng.randint(0, int(c)) for c in z.coeffs])
        lp = rng.choice((1, -1)) * estar(g, rng.choice(g.names)) + Cycle(
            g, [rng.randint(-2, 2) for _ in range(g.n)]
        )
        for fn in (relgen_h1, reldom_check):
            walked = RecordingGenericOracle(z, z1, lp)
            report = fn(z, z1, lp, GenericNaturalOracle(z, z1, lp))
            assert report == fn(z, z1, lp, walked)
            assert len(walked.seen) == report.nodes
        assert report.rel_h1 == interval_floor_line_bundle(z, lp).floor
        cases += 1
        dominant += report.dominant
    assert 0 < dominant < cases


def spy_generic_values(monkeypatch):
    """Wrap ``GenericNaturalOracle.value`` on the class, as the benchmark
    tracer does; returns the list of points it is asked at."""
    seen = []
    value = GenericNaturalOracle.value

    def spy(self, l):
        seen.append(l.int_coeffs())
        return value(self, l)

    monkeypatch.setattr(GenericNaturalOracle, "value", spy)
    return seen


def test_generic_oracle_for_another_chern_class_is_asked_per_point(monkeypatch):
    """An oracle bound to another l' than the request's is asked at every
    box point; a wrapped ``value`` still takes the sublevel walk when the
    oracle is bound to the request's l'."""
    seen = spy_generic_values(monkeypatch)
    g = graph_t237()
    zmin = fundamental_cycle(g)
    z = 2 * zmin
    lp, other = -estar(g, "c"), estar(g, "r")
    points = list(itertools.product(*[range(c + 1) for c in z.int_coeffs()]))
    oracle = GenericNaturalOracle(z, zmin, other)
    report = relgen_h1(z, zmin, lp, oracle)
    assert seen == points
    obj = {
        pt: chi(-lp + Cycle(g, pt)) - direct_generic_value(oracle, Cycle(g, pt))
        for pt in points
    }
    best = min(obj.values())
    assert report.rel_h1 == chi(-lp) - best
    assert report.argmin == Cycle(g, min(pt for pt in points if obj[pt] == best))
    seen.clear()
    relgen_h1(z, zmin, lp, GenericNaturalOracle(z, zmin, lp))
    assert seen == []


def test_chern_class_outside_the_dual_lattice_is_rejected_by_the_generic_oracle():
    """The generic table is defined for a Chern class l' in L' only: the
    oracle refuses any other l' when it is built.  The zero oracle still
    takes it."""
    g = PlumbingGraph(
        [("v0", -1), ("v1", -2), ("v2", -4), ("v3", -1), ("v4", -1)],
        [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v2", "v4")],
    )
    z = Cycle.ones(g)
    z1 = Cycle.basis(g, "v0")
    lp = 2 * Cycle.basis(g, "v0") - Fraction(1, 3) * Cycle.basis(g, "v3")
    with pytest.raises(ValidationError, match="dual lattice"):
        GenericNaturalOracle(z, z1, lp)
    assert relgen_h1(z, z1, lp, ZeroOracle(z, z1)).nodes == 32


def test_chern_class_on_another_graph_raises():
    a2 = graph_a2()
    z = Cycle.ones(a2)
    for other in (
        PlumbingGraph([("a", -2), ("b", -3)], [("a", "b")]),
        graph_a1(),
    ):
        for fn in (relgen_h1, reldom_check):
            with pytest.raises(GraphMismatch):
                fn(z, z, Cycle.ones(other), ZeroOracle(z, z))


def test_generic_oracle_rejects_non_integer_chern_class():
    a2 = graph_a2()
    z = Cycle.ones(a2)
    lp = Cycle(a2, [0, Fraction(1, 3)])  # not in the dual lattice
    with pytest.raises(ValidationError, match="dual lattice"):
        relgen_h1(z, z, lp, GenericNaturalOracle(z, z, lp))


def test_nested_oracle_searches_get_the_request_budget(monkeypatch):
    """Every search of a generic-oracle request passes the budget gate
    ``chimin._search_setup`` with the budget of the request."""
    budgets = []
    gate = chimin._search_setup

    def spy(*args):
        budgets.append(args[-1])
        return gate(*args)

    monkeypatch.setattr(chimin, "_search_setup", spy)
    g = PlumbingGraph([("a", -2), ("b", -3)], [("a", "b")])
    zmin = fundamental_cycle(g)
    z = 2 * zmin
    lp = -estar(g, "a")
    relgen_h1(z, zmin, lp, GenericNaturalOracle(z, zmin, lp), budget=12345)
    assert budgets and set(budgets) == {12345}
    budgets.clear()
    relgen_h1(z, zmin, lp, GenericNaturalOracle(z, zmin, lp))
    # no budget: each nested search applies the default budget itself
    assert budgets and set(budgets) == {None}


def test_all_zero_table_reports_like_zero_oracle():
    rng = random.Random(109)
    for _ in range(30):
        g = random_tree(rng, max_n=3, euler_range=(-4, -1))
        z = Cycle(g, [rng.randint(0, 3) for _ in range(g.n)])
        z1 = Cycle(g, [rng.randint(0, int(c)) for c in z.coeffs])
        lp = random_rat_cycle(rng, g)
        table = TableOracle(z, z1, box_table(z, lambda pt: 0))
        assert table.bound == 0
        for fn in (reldom_check, relgen_h1):
            a = fn(z, z1, lp, table)
            b = fn(z, z1, lp, ZeroOracle(z, z1))
            assert (a.dominant, a.witness, a.rel_h1, a.argmin, a.nodes) == (
                b.dominant, b.witness, b.rel_h1, b.argmin, b.nodes
            )


def test_zero_oracle_matches_brute_force():
    """The (2,3,7) graph with Z = 2 Z_min: l' = -E*_v is dominant and
    l' = E*_v is not, for every v."""
    g = graph_t237()
    zmin = fundamental_cycle(g)
    z = 2 * zmin
    points = list(itertools.product(*[range(int(c) + 1) for c in z.coeffs]))
    for v, sign in itertools.product(g.names, (1, -1)):
        lp = sign * estar(g, v)
        obj = {pt: chi(-lp + Cycle(g, pt)) for pt in points}
        best = min(obj.values())
        violating = [pt for pt in points[1:] if obj[pt] <= obj[points[0]]]
        report = reldom_check(z, zmin, lp, ZeroOracle(z, zmin))
        assert report.dominant == (sign < 0) == (not violating)
        assert report.witness == (Cycle(g, violating[0]) if violating else None)
        assert report.rel_h1 == chi(-lp) - best
        assert report.argmin == Cycle(g, min(pt for pt in points if obj[pt] == best))
        assert report.nodes == len(points)


def test_bounded_oracle_skips_points():
    """A bounded oracle is asked only at points that can be a witness or
    a minimizer, while nodes still reports the certified box."""

    class CountingZero(ZeroOracle):
        calls = 0

        def value(self, l):
            self.calls += 1
            return 0

    g = graph_t237()
    zmin = fundamental_cycle(g)
    z = 2 * zmin
    oracle = CountingZero(z, zmin)
    report = reldom_check(z, zmin, estar(g, "c"), oracle)
    assert not report.dominant
    assert report.nodes == 1365
    assert 0 < oracle.calls < report.nodes

    class BadBound(ZeroOracle):
        def value(self, l):
            return 1

    with pytest.raises(ValidationError, match="bound"):
        reldom_check(z, zmin, estar(g, "c"), BadBound(z, zmin))


def test_generic_oracle_keeps_nothing_per_box_point():
    """A relgen_h1 pass with the generic oracle holds no memory that
    grows with the box once it returns (a per-point memo holds about
    120 bytes per point)."""
    g = PlumbingGraph([("a", -2), ("b", -2), ("c", -3)], [("a", "b"), ("b", "c")])
    zmin = fundamental_cycle(g)
    z = 6 * zmin  # 343 box points
    lp = -estar(g, "a")
    relgen_h1(z, zmin, lp, GenericNaturalOracle(z, zmin, lp))  # warm the caches
    oracle = GenericNaturalOracle(z, zmin, lp)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = relgen_h1(z, zmin, lp, oracle)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.nodes == 343
    assert held < 30 * report.nodes


def test_relspace_dim():
    a1 = graph_a1()
    E = Cycle.basis(a1, "v")
    es = estar(a1, "v")
    assert relspace_dim(2 * E, -es, 1, 0) == 3
    assert relspace_dim(2 * E, -es, 0, 0) == 2
    assert relspace_dim(E, Cycle.zero(a1), 0, 0) == 0
    with pytest.raises(PreconditionFailed):
        relspace_dim(E, -es, -1, 0)


def test_relgen1_hypothesis():
    a2 = graph_a2()
    z = Cycle.ones(a2)
    z1 = Cycle.basis(a2, "a")
    lp = -estar(a2, "b")  # coefficient 2/3 at b, positive in -l'
    report = relgen1_nonempty(z, z1, lp, ZeroOracle(z, z1))
    assert report.diagnostics["hypothesis_checked_on"] == ("b",)
    with pytest.raises(HypothesisFailed, match="'b'"):
        relgen1_nonempty(z, z1, Cycle.zero(a2), ZeroOracle(z, z1))


def test_oracle_file_roundtrip():
    a2 = graph_a2()
    text = "\n".join(
        [
            "oracle z=a=1 b=1 z1=a=1",
            "0 -> 0",
            "b=1 -> 0",
            "a=1 -> 0",
            "a=1 b=1 -> 0",
        ]
    )
    oracle = parse_oracle_file(a2, text)
    assert oracle.z == Cycle.ones(a2)
    assert oracle.z1 == Cycle.basis(a2, "a")
    assert oracle.value(Cycle.zero(a2)) == 0


def test_box_beyond_the_budget_raises():
    g = graph_t237()
    z1 = fundamental_cycle(g)
    z = 2 * z1  # 13 * 7 * 5 * 3 = 1365 box points
    lp = Cycle.zero(g)
    oracles = (
        ZeroOracle(z, z1),
        GenericNaturalOracle(z, z1, lp),
        # bound to another l': asked per point, each value one search
        # inside [0, z] at the default budget
        GenericNaturalOracle(z, z1, estar(g, "r")),
    )
    for fn in (relgen_h1, reldom_check):
        for oracle in oracles:
            with pytest.raises(BoxTooLarge) as exc:
                fn(z, z1, lp, oracle, budget=1364)
            assert (exc.value.required, exc.value.budget) == (1365, 1364)
            assert fn(z, z1, lp, oracle, budget=1365).nodes == 1365


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only a comment\n",
        "a=1 -> 0\n",
        "oracle z=a=1\n0 -> 0\n",
        "oracle a=1 z1=a=1\n0 -> 0\n",
        "oracle z=a=1 b=1 z1=a=1\n0 0\n",
        "oracle z=a=1 b=1 z1=a=1\na=1/2 -> 0\n",
        "oracle z=a=1 b=1 z1=a=1\n0 -> x\n",
        "oracle z=a=1 b=1 z1=a=1\n0 -> 1/2\n",
        "oracle z=a=1 b=1 z1=a=1\n0 -> 0\n0 -> 0\n",
        "oracle z=a=1 b=1 z1=a=1\na=1 b=1 -> 0\nb=1 a=1 -> 0\n",
    ],
    ids=[
        "empty",
        "comment-only",
        "missing-header",
        "header-without-z1",
        "header-without-z",
        "line-without-arrow",
        "non-integral-point",
        "non-integer-value",
        "fractional-value",
        "duplicate-point",
        "duplicate-point-reordered",
    ],
)
def test_oracle_file_syntax_errors(text):
    with pytest.raises(GraphSyntaxError):
        parse_oracle_file(graph_a2(), text)


def test_table_oracle_vanishing_matches_meet():
    rng = random.Random(29)
    for _ in range(30):
        g = random_tree(rng, max_n=4)
        z = Cycle(g, [rng.randint(0, 2) for _ in range(g.n)])
        z1 = Cycle(g, [rng.randint(0, c) for c in z.int_coeffs()])

        def fixed(pt):
            return not meet(z - Cycle(g, pt), z1).is_zero

        oracle = TableOracle(z, z1, box_table(z, lambda pt: int(fixed(pt))))
        assert oracle.bound == int(any(map(fixed, box_table(z, fixed))))
        empty = [pt for pt in box_table(z, fixed) if not fixed(pt)]
        table = box_table(z, lambda pt: 0)
        table[empty[-1]] = 1
        with pytest.raises(ValidationError):
            TableOracle(z, z1, table)
