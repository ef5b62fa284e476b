"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run as part of the normal suite; each criterion is a test whose verdict
line is collected and printed in the terminal summary (see the
pytest_terminal_summary hook in conftest), so the gate outcome is
visible even in quiet runs.
"""

import contextlib
import functools
import io
import itertools
import random
import time
from fractions import Fraction

import pytest

from plumblat import (
    Cycle,
    TableOracle,
    ZeroOracle,
    anticanonical_cycle,
    blowup_chain,
    blowup_edge,
    blowup_edge_chain,
    blowup_generic,
    chi,
    estar,
    fundamental_cycle,
    generic_pg,
    intersection_data,
    interval_floor_line_bundle,
    is_rational,
    min_chi_lower_bounded,
    pairing,
    relgen_h1,
)
from plumblat.cli import main as cli_main

import conftest
from conftest import (
    brute_fundamental_cycle,
    brute_min_chi_box,
    corpus,
    graph_an,
    graph_d4,
    graph_e8,
    graph_t237,
    random_rat_cycle,
    random_tree,
)


def verdict(number, label):
    """Decorator printing one pass/fail line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_VERDICTS.append(
                    f"criterion {number:2d} ({label}): FAIL"
                )
                raise
            elapsed = time.monotonic() - start
            conftest.ACCEPTANCE_VERDICTS.append(
                f"criterion {number:2d} ({label}): PASS [{elapsed:.1f}s]"
            )

        return run

    return wrap


@verdict(1, "exact identities")
def test_criterion_1_exact_identities():
    rng = random.Random(1001)
    deadline = time.monotonic() + 30
    for _ in range(200):
        g = random_tree(rng, max_n=8)
        zk = anticanonical_cycle(g)
        lp = random_rat_cycle(rng, g)
        a = random_rat_cycle(rng, g)
        b = random_rat_cycle(rng, g)
        l = Cycle(g, [rng.randint(0, 3) for _ in range(g.n)])
        for v in g.names:
            e = Cycle.basis(g, v)
            assert pairing(-zk + e, e) + 2 == 0
        assert chi(a + b) == chi(a) + chi(b) - pairing(a, b)
        assert chi(-lp) - chi(-lp + l) == -pairing(lp, l) - chi(l)
        u, w = rng.choice(g.names), rng.choice(g.names)
        expected = Fraction(-1) if u == w else Fraction(0)
        assert pairing(estar(g, u), Cycle.basis(g, w)) == expected
    assert time.monotonic() < deadline, "criterion 1 exceeded 30s"


@verdict(2, "Laufer oracle equivalence")
def test_criterion_2_laufer_vs_brute():
    deadline = time.monotonic() + 300
    graphs = corpus()
    assert len(graphs) >= 300, "corpus unexpectedly small"
    for g in graphs:
        assert fundamental_cycle(g) == brute_fundamental_cycle(g)
    assert time.monotonic() < deadline, "criterion 2 exceeded 5min"


@verdict(3, "rationality cross-check")
def test_criterion_3_rationality():
    for g in corpus():
        assert is_rational(g) == (chi(fundamental_cycle(g)) == 1)
    for g in (graph_an(4), graph_an(7), graph_d4(), graph_e8()):
        assert is_rational(g)
        assert chi(fundamental_cycle(g)) == 1
        assert generic_pg(g).floor == 0


@verdict(4, "certified minimization soundness")
def test_criterion_4_certified_box_inflation():
    rng = random.Random(1004)
    deadline = time.monotonic() + 120
    for _ in range(100):
        g = random_tree(rng, max_n=4, euler_range=(-6, -2))
        cert = min_chi_lower_bounded(Cycle.ones(g))
        lo = cert.certificate["box_lo"]
        hi = tuple(h + 1 for h in cert.certificate["box_hi"])
        val, _ = brute_min_chi_box(g, lo, hi)
        assert val == cert.min_value
    assert time.monotonic() < deadline, "criterion 4 exceeded 2min"


@verdict(5, "triangle-singularity fixture")
def test_criterion_5_t237_fixture():
    t = graph_t237()
    cert = min_chi_lower_bounded(Cycle.ones(t))
    assert cert.min_value == 0
    assert generic_pg(t).floor == 1


@verdict(6, "surgery invariance")
def test_criterion_6_surgery():
    rng = random.Random(1006)
    deadline = time.monotonic() + 300
    for _ in range(60):
        g = random_tree(rng, max_n=5)
        order = intersection_data(g).group_order
        u = rng.choice(g.names)
        results = [
            blowup_generic(g, u),
            blowup_chain(g, u, rng.randint(2, 5)),
        ]
        if g.n > 1:
            i, j = sorted(rng.choice(sorted(g.edges)))
            a, b = g.names[i], g.names[j]
            results.append(blowup_edge(g, a, b))
            results.append(blowup_edge_chain(g, a, b, rng.randint(2, 5)))
        x = random_rat_cycle(rng, g)
        y = random_rat_cycle(rng, g)
        for res in results:
            assert pairing(res.pullback(x), res.pullback(y)) == pairing(x, y)
            assert chi(res.pullback(x)) == chi(x)
            assert intersection_data(res.new_graph).group_order == order
    for g in corpus():
        b = blowup_generic(g, g.names[0])
        assert generic_pg(b.new_graph).floor == generic_pg(g).floor
    assert time.monotonic() < deadline, "criterion 6 exceeded 5min"


@verdict(7, "zero-oracle collapse")
def test_criterion_7_zero_oracle():
    rng = random.Random(1007)
    done = 0
    while done < 500:
        g = random_tree(rng, max_n=4)
        z = Cycle(g, [rng.randint(0, 7) for _ in range(g.n)])
        size = 1
        for c in z.int_coeffs():
            size *= c + 1
        if size > 10**4:
            continue
        z1 = Cycle(g, [rng.randint(0, int(c)) for c in z.coeffs])
        lp = random_rat_cycle(rng, g)
        report = relgen_h1(z, z1, lp, ZeroOracle(z, z1))
        assert report.rel_h1 == interval_floor_line_bundle(z, lp).floor
        done += 1


@verdict(8, "hand-traced example")
def test_criterion_8_hand_example():
    from plumblat import PlumbingGraph

    a2 = PlumbingGraph([("a", -2), ("b", -2)], [("a", "b")])
    z = Cycle.ones(a2)
    table = {
        pt: 1 if pt == (0, 0) else 0
        for pt in itertools.product(range(2), range(2))
    }
    report = relgen_h1(z, z, Cycle.zero(a2), TableOracle(z, z, table))
    assert report.rel_h1 == 1
    assert report.argmin.is_zero


@verdict(9, "monotonicity")
def test_criterion_9_monotonicity():
    rng = random.Random(1009)
    for _ in range(60):
        g = random_tree(rng, max_n=4)
        z = Cycle(g, [rng.randint(0, 3) for _ in range(g.n)])
        lp = random_rat_cycle(rng, g)
        q = interval_floor_line_bundle(z, lp).floor
        bigger = z + Cycle.basis(g, rng.choice(g.names))
        assert interval_floor_line_bundle(bigger, lp).floor >= q
    for _ in range(40):
        g = random_tree(rng, max_n=3)
        z = Cycle(g, [rng.randint(1, 2) for _ in range(g.n)])
        lp = random_rat_cycle(rng, g)
        base = {
            pt: 0
            for pt in itertools.product(
                *[range(c + 1) for c in z.int_coeffs()]
            )
        }
        zc = z.int_coeffs()
        targets = [p for p in base if any(p) and p != zc]
        if not targets:
            continue
        bumped = dict(base)
        bumped[rng.choice(targets)] = 1
        r0 = relgen_h1(z, z, lp, TableOracle(z, z, base))
        r1 = relgen_h1(z, z, lp, TableOracle(z, z, bumped))
        assert r0.rel_h1 <= r1.rel_h1 <= r0.rel_h1 + 1


@verdict(10, "CLI determinism")
def test_criterion_10_cli_determinism(tmp_path):
    graphs = {
        "a2.txt": "vertex a -2\nvertex b -2\nedge a b\n",
        "t237.txt": (
            "vertex c -1\nvertex p -2\nvertex q -3\nvertex r -7\n"
            "edge c p\nedge c q\nedge c r\n"
        ),
    }
    for name, text in graphs.items():
        (tmp_path / name).write_text(text)
    commands = [
        ["invariants", "--graph", str(tmp_path / "t237.txt"), "--json"],
        ["generic-pg", "--graph", str(tmp_path / "t237.txt"), "--json"],
        ["minchi", "--graph", str(tmp_path / "a2.txt"), "--lower", "a=1 b=1", "--json"],
        ["floor", "--graph", str(tmp_path / "t237.txt"), "--z", "2*zmin", "--lprime", "0", "--json"],
        [
            "relh1", "--graph", str(tmp_path / "a2.txt"), "--z", "a=1 b=1",
            "--z1", "a=1 b=1", "--lprime", "0", "--oracle", "zero", "--json",
        ],
    ]
    for argv in commands:
        outputs = set()
        for _ in range(4):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
            assert code == 0
            outputs.add(buf.getvalue())
        assert len(outputs) == 1, f"nondeterministic output for {argv[0]}"
