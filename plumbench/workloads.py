"""The three benchmark workloads: seeded inputs, the library call each
operation makes, and the check of each result against the reference.

A workload is built in two steps.  ``cases(workload, seed)`` makes plain
data (Euler numbers, edges, cycle coefficients) with the benchmark's own
stdlib code; the same seed gives the same list.  ``build`` turns the cases
into plumblat objects, which is what the program receives.  Each operation
is one top-level library call, made through the attribute of the plumblat
module that defines it, so the traced run sees it.

Reference results live in ``reference/<workload>.json`` and are written by
``make_reference.py``.  They hold the exact outputs of the library at the
commit that defined the benchmark: min values, argmins, certified boxes,
rationality, rel_h1, dominance and witnesses.  Node counts are left out on
purpose; their meaning is expected to change.
"""

import hashlib
import json
import os
import random

import lattice

WORKLOADS = ("rational_sweep", "bigbox_floor", "relh1_oracles")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Share of rational_sweep trees whose certificates are re-derived and
# compared after the timed loop (the timed call returns only a bool).
CERT_SAMPLE = 0.1

E8 = ((-2,) * 8, ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)))
E7 = ((-2,) * 7, ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)))
T237 = ((-1, -2, -3, -7), ((0, 1), (0, 2), (0, 3)))

# bigbox_floor: (name, graph, k) with Z = k * Z_min.  The box [0, Z] has a
# fixed size per case, so the seed (which picks v in l' = -E*_v and the
# order) moves the kernel's work very little.
BIGBOX = (
    ("e8x2", E8, 2),  # 14,189,175 points, 2,837,835 scan iterations
    ("e7x3", E7, 3),  # 1,783,600 points, 445,900 scan iterations
    ("t237x24", T237, 24),  # 12,966,625 points, 518,665 scan iterations
)

# relh1_oracles: generic-oracle cases drawn from the corpus with
# Z = k * Z_min (k <= 3), Z1 = Z_min and at most RELH1_MAX_BOX box points;
# the oracle costs about 0.35 ms per point.
RELH1_MAX_BOX = 1500
RELH1_STRATA = 40
RELH1_PER_STRATUM = 10
# One ZeroOracle dominance check on the (2,3,7) graph, Z = 12 * Z_min:
# 877,825 box values are materialized at once.  l' = +E*_v is never
# dominant, so every seed stops its witness scan early; a dominant case
# would scan all points and make the seed move the pass time.
RELDOM_K = 12


def _graph_names(n):
    return [f"v{i}" for i in range(n)]


def _scaled_zmin(euler, edges, k):
    return [k * c for c in lattice.fundamental_cycle(euler, edges)]


def _dual(euler, edges, v, sign):
    return [sign * c for c in lattice.estar(euler, edges, v)]


# -- seeded cases (plain data) ---------------------------------------------


def relh1_pool(corpus):
    """Fixed candidate pool: corpus cases sorted by box size, cut into
    RELH1_STRATA strata with RELH1_PER_STRATUM evenly spaced candidates
    each.  A seed draws one candidate per stratum, so every draw covers
    the same spread of box sizes."""
    entries = []
    for idx, (euler, edges) in enumerate(corpus):
        zmin = lattice.fundamental_cycle(euler, edges)
        for k in (1, 2, 3):
            points = lattice.box_points([k * c for c in zmin])
            if points <= RELH1_MAX_BOX:
                entries.append((points, idx, k))
    entries.sort()
    rng = random.Random(0)
    size = len(entries) / RELH1_STRATA
    strata = []
    for s in range(RELH1_STRATA):
        lo, hi = int(s * size), int((s + 1) * size)
        step = (hi - lo) / RELH1_PER_STRATUM
        stratum = []
        for c in range(RELH1_PER_STRATUM):
            _, idx, k = entries[lo + int(c * step)]
            v = rng.randrange(len(corpus[idx][0]))
            sign = rng.choice((1, -1))
            stratum.append((idx, k, v, sign))
        strata.append(stratum)
    return strata


def _floor_case(name, graph, k, v):
    euler, edges = graph
    return {
        "key": f"{name}:v{v}",
        "kind": "floor",
        "euler": euler,
        "edges": edges,
        "z": _scaled_zmin(euler, edges, k),
        "lp": _dual(euler, edges, v, -1),
    }


def _relative_case(kind, key, graph, k, v, sign):
    euler, edges = graph
    return {
        "key": f"{key}:k{k}:v{v}{'+' if sign > 0 else '-'}",
        "kind": kind,
        "euler": euler,
        "edges": edges,
        "z": _scaled_zmin(euler, edges, k),
        "z1": lattice.fundamental_cycle(euler, edges),
        "lp": _dual(euler, edges, v, sign),
    }


def _checked_corpus():
    corpus = lattice.tree_corpus()
    if len(corpus) != lattice.CORPUS_SIZE:
        raise RuntimeError(f"corpus has {len(corpus)} trees, expected {lattice.CORPUS_SIZE}")
    return corpus


def cases(workload, seed):
    """Plain-data cases of one workload for one seed, in call order.

    Each case is a dict with a ``key`` naming its reference entry, the
    graph as ``euler``/``edges``, and the cycles the call takes.
    """
    rng = random.Random(seed)
    if workload == "rational_sweep":
        corpus = _checked_corpus()
        order = list(range(len(corpus)))
        rng.shuffle(order)
        return [
            {"key": str(i), "kind": "is_rational", "euler": corpus[i][0], "edges": corpus[i][1]}
            for i in order
        ]
    if workload == "bigbox_floor":
        out = [
            _floor_case(name, graph, k, rng.randrange(len(graph[0])))
            for name, graph, k in BIGBOX
        ]
    elif workload == "relh1_oracles":
        corpus = _checked_corpus()
        out = []
        for stratum in relh1_pool(corpus):
            idx, k, v, sign = rng.choice(stratum)
            out.append(_relative_case("relgen_h1", str(idx), corpus[idx], k, v, sign))
        v = rng.randrange(len(T237[0]))
        out.append(_relative_case("reldom_check", "t237", T237, RELDOM_K, v, 1))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out


def reference_cases(workload):
    """Every case that some seed can draw, for writing the reference."""
    if workload == "rational_sweep":
        return sorted(cases(workload, 0), key=lambda c: int(c["key"]))
    if workload == "bigbox_floor":
        return [
            _floor_case(name, graph, k, v)
            for name, graph, k in BIGBOX
            for v in range(len(graph[0]))
        ]
    if workload == "relh1_oracles":
        corpus = _checked_corpus()
        out = [
            _relative_case("relgen_h1", str(idx), corpus[idx], k, v, sign)
            for stratum in relh1_pool(corpus)
            for idx, k, v, sign in stratum
        ]
        out.extend(
            _relative_case("reldom_check", "t237", T237, RELDOM_K, v, 1)
            for v in range(len(T237[0]))
        )
        return out
    raise ValueError(f"unknown workload {workload!r}")


# -- library inputs and calls ----------------------------------------------


class Op:
    """One top-level library call on prepared plumblat inputs."""

    __slots__ = ("case", "args")

    def __init__(self, case, args):
        self.case = case
        self.args = args


def build(case_list):
    """Turn plain cases into plumblat inputs (graphs, cycles)."""
    from plumblat.graph import PlumbingGraph
    from plumblat.cycles import Cycle

    ops = []
    for case in case_list:
        names = _graph_names(len(case["euler"]))
        g = PlumbingGraph(
            list(zip(names, case["euler"])),
            [(names[i], names[j]) for i, j in case["edges"]],
        )
        if case["kind"] == "is_rational":
            args = (g,)
        elif case["kind"] == "floor":
            args = (Cycle(g, case["z"]), Cycle(g, case["lp"]))
        else:
            args = (Cycle(g, case["z"]), Cycle(g, case["z1"]), Cycle(g, case["lp"]))
        ops.append(Op(case, args))
    return ops


def call(op):
    """Make the op's library call; returns the raw library result."""
    from plumblat import chimin, genus, relative

    kind = op.case["kind"]
    if kind == "is_rational":
        return chimin.is_rational(*op.args)
    if kind == "floor":
        return genus.interval_floor_line_bundle(*op.args)
    z, z1, lp = op.args
    if kind == "relgen_h1":
        return relative.relgen_h1(z, z1, lp, relative.GenericNaturalOracle(z, z1, lp))
    return relative.reldom_check(z, z1, lp, relative.ZeroOracle(z, z1))


# -- result records and checks ---------------------------------------------


def _coeffs(cycle):
    return None if cycle is None else [str(c) for c in cycle.coeffs]


def certificate_digest(g):
    """Digest of min value, argmin and box_hi of the n Artin searches."""
    from plumblat.chimin import min_chi_lower_bounded
    from plumblat.cycles import Cycle

    parts = []
    for v in g.names:
        cert = min_chi_lower_bounded(Cycle.basis(g, v))
        parts.append(
            f"{cert.min_value}|{','.join(_coeffs(cert.minimizer))}|"
            f"{','.join(map(str, cert.certificate['box_hi']))}"
        )
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def record(op, result):
    """The exact, comparable part of a result (node counts excluded)."""
    kind = op.case["kind"]
    if kind == "is_rational":
        return {"rational": bool(result)}
    if kind == "floor":
        return {"floor": str(result.floor), "minimizer": _coeffs(result.minimizer)}
    return {
        "rel_h1": str(result.rel_h1),
        "dominant": result.dominant,
        "witness": _coeffs(result.witness),
        "argmin": _coeffs(result.argmin),
    }


def load_reference(workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def check(op, rec, ref, deep):
    """Mismatches of one result against the reference and the benchmark's
    independent recomputation; an empty list means the result is correct.

    ``deep`` re-derives the Artin search certificates of a rational_sweep
    tree and compares their digest with the reference.
    """
    from fractions import Fraction

    case = op.case
    want = ref.get(case["key"])
    if want is None:
        return [f"{case['key']}: no reference entry"]
    bad = []
    if case["kind"] == "is_rational":
        if rec["rational"] != want["rational"]:
            bad.append(f"{case['key']}: rational {rec['rational']} != reference {want['rational']}")
        if rec["rational"] != lattice.is_rational_laufer(case["euler"], case["edges"]):
            bad.append(f"{case['key']}: rational {rec['rational']} disagrees with Laufer's criterion")
        if deep and certificate_digest(op.args[0]) != want["certificates"]:
            bad.append(f"{case['key']}: Artin search certificates differ from the reference")
        return bad
    for field, value in want.items():
        if rec[field] != value:
            bad.append(f"{case['key']}: {field} {rec[field]} != reference {value}")
    if not bad and case["kind"] == "floor":
        # floor = chi(-l') - chi(-l' + minimizer), recomputed independently
        euler, edges = case["euler"], case["edges"]
        base = [-Fraction(c) for c in case["lp"]]
        moved = [b + Fraction(m) for b, m in zip(base, rec["minimizer"])]
        if Fraction(rec["floor"]) != lattice.chi(euler, edges, base) - lattice.chi(euler, edges, moved):
            bad.append(f"{case['key']}: floor does not match chi at the reported minimizer")
    return bad


def deep_sample(seed, n_ops):
    """Indices of the rational_sweep ops whose certificates are checked."""
    rng = random.Random(f"certificates:{seed}")
    return set(rng.sample(range(n_ops), max(1, round(CERT_SAMPLE * n_ops))))
