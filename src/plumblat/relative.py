"""Relative dominance and relatively generic h1 evaluation.

The analytic side (a fixed restricted bundle on the part Z1 of Z) enters
only through an h1 oracle: a total map from the box [0, Z] to
nonnegative integers, table(l) standing for h1((Z-l)_1, L(-l)) with
(Z-l)_1 = min(Z-l, Z1).  Three sources are shipped: the zero table, a
file table, and the generic-natural table computed from the interval
floors.

An oracle with a known maximum M over the box (``bound``: 0 for the zero
table, the table maximum for a file table) lets the evaluation visit only
the points l with q(l) <= 2D (M - oracle(0)), where q(l) is
2D (chi(-l'+l) - chi(-l')): no other point can be a witness or a
minimizer.

The generic-natural table needs no oracle call.  The components of
min(Z-l, Z1) have no edges between them and
chi(a+m) = chi(a) + chi(m) - (a, m), so its component floors sum to
chi(-l'+l) - min over 0 <= m <= min(Z-l, Z1) of chi(-l'+l+m).  The
objective at l is thus the least chi(-l'+k) over the box
[l, l + min(Z-l, Z1)], its minimum is the interval floor of (Z, l'), and
a point k counts exactly for the l in [max(0, k - Z1), k].  One walk of
the sublevel set {q <= F0}, with F0 = min q over [0, Z1] the objective
at 0, gives the rest: the argmin is the smallest corner max(0, k - Z1)
over the k minimizing q, and the witness the smallest nonzero point of
those boxes over k != 0 (the corner when it is nonzero, else E_j for the
last j with k_j > 0).  This path serves the plain
``GenericNaturalOracle`` bound to the request's l'; the oracle takes
only a Chern class l' in L'.  A subclass overriding ``value``, or an
oracle bound to another l', is asked at every box point, and each
generic value is one search on the parent graph.  Reports give the
certified box size as ``nodes`` in every case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import (
    GraphSyntaxError,
    HypothesisFailed,
    OracleIncomplete,
    PreconditionFailed,
    ValidationError,
)
from .cycles import Cycle, _estar_nums, is_dual_lattice_member, parse_cycle
from .chimin import _minimize, _search_setup
from .genus import fiber_dim
from . import kernels


class H1Oracle:
    """Total map from the box [0, z] to nonnegative h1 values.

    ``value`` takes an integral cycle l with 0 <= l <= z and returns
    h1((z-l)_1, L(-l)); it must vanish whenever min(z-l, z1) = 0.
    ``bound`` is None or an integer no smaller than ``value`` at any box
    point.
    """

    source = "abstract"
    bound = None

    def __init__(self, z: Cycle, z1: Cycle):
        z._same_graph(z1)
        if not (z.is_integral and z.is_effective):
            raise PreconditionFailed("z must be an effective integral cycle")
        if not (z1.is_integral and z1.is_effective and z1 <= z):
            raise PreconditionFailed("z1 must be integral with 0 <= z1 <= z")
        self.z = z
        self.z1 = z1

    def value(self, l: Cycle) -> int:
        raise NotImplementedError


class ZeroOracle(H1Oracle):
    """Identically zero table (rational-like fixed part)."""

    source = "zero"
    bound = 0

    def value(self, l):
        return 0


class TableOracle(H1Oracle):
    """Explicit table; must cover the entire box, no defaulting."""

    source = "file"

    def __init__(self, z, z1, table):
        super().__init__(z, z1)
        self.table = {tuple(int(c) for c in k): int(v) for k, v in table.items()}
        hi = z.int_coeffs()
        z1c = z1.int_coeffs()
        self.bound = 0
        for point in itertools.product(*(range(h + 1) for h in hi)):
            if point not in self.table:
                raise OracleIncomplete(
                    f"oracle table is missing the box point {point}"
                )
            v = self.table[point]
            if v < 0:
                raise ValidationError(f"negative oracle value at {point}")
            self.bound = max(self.bound, v)
            if v and all(min(a - b, c) == 0 for a, b, c in zip(hi, point, z1c)):
                raise ValidationError(
                    f"oracle must vanish at {point}: the fixed part is empty"
                )

    def value(self, l):
        return self.table[l.int_coeffs()]


class GenericNaturalOracle(H1Oracle):
    """Table filled with the generic natural-line-bundle floors:
    table(l) = sum over components of min(z-l, z1) of the interval floor
    with Chern class R(l' - l), for l' in L' (else ValidationError).

    ``relgen_h1`` and ``reldom_check`` do not call ``value`` on this class
    when it is bound to their l': they read the whole table from one
    sublevel walk (see the module docstring).  Otherwise each value is
    one search on the parent graph: the components have no edges between
    them, so their floors sum to
    chi(-l'+l) - min over 0 <= m <= min(z-l, z1) of chi(-l'+l+m).  That
    search passes the gate at the default budget; its box lies in [0, z].
    """

    source = "generic"

    def __init__(self, z, z1, lp: Cycle):
        super().__init__(z, z1)
        lp._same_graph(z)
        if not is_dual_lattice_member(lp):
            raise ValidationError(
                "the generic-natural oracle needs a Chern class in the dual lattice"
            )
        self.lp = lp

    def value(self, l):
        g, den, point = self.z.graph, self.lp.den, l.int_coeffs()
        hi = [min(a - b, c) for a, b, c in zip(self.z.nums, point, self.z1.nums)]
        # E*-numerators of l' - l over den: a(l') + den I l, a(x) = -I x
        a = [x + den * y for x, y in zip(_estar_nums(self.lp), g.intersect(point))]
        # chi(-l'+l) - min chi(-l'+l+m) over [0, hi] is -val / 2d
        val, d, _, _ = _minimize(g, den, a, range(g.n), (0,) * g.n, hi, None)
        return -val // (2 * d)


# -- oracle file format ----------------------------------------------------


def parse_oracle_file(g, text: str) -> TableOracle:
    """Parse the oracle text format.

    Header ``oracle z=<cycle> z1=<cycle>``, then one line per box point:
    ``<cycle literal> -> <nonneg int>``.  Comments (#) and blank lines
    are ignored.
    """
    lines = [
        ln.split("#", 1)[0].strip()
        for ln in text.splitlines()
    ]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("oracle "):
        raise GraphSyntaxError("oracle file must start with an 'oracle' header")
    header = lines[0][len("oracle "):]
    if "z1=" not in header or not header.startswith("z="):
        raise GraphSyntaxError("oracle header must be 'oracle z=<cycle> z1=<cycle>'")
    z_text, z1_text = header[2:].split("z1=", 1)
    z = parse_cycle(g, z_text.strip())
    z1 = parse_cycle(g, z1_text.strip())
    table = {}
    for ln in lines[1:]:
        if "->" not in ln:
            raise GraphSyntaxError(f"bad oracle line {ln!r}")
        left, right = ln.rsplit("->", 1)
        point = parse_cycle(g, left.strip())
        if not point.is_integral:
            raise GraphSyntaxError(f"non-integral oracle point in {ln!r}")
        try:
            val = int(right.strip())
        except ValueError:
            raise GraphSyntaxError(f"bad oracle value in {ln!r}") from None
        key = point.int_coeffs()
        if key in table:
            raise GraphSyntaxError(f"duplicate oracle point in {ln!r}")
        table[key] = val
    return TableOracle(z, z1, table)


# -- reports ---------------------------------------------------------------


@dataclass(frozen=True)
class RelReport:
    """Outcome of a relative-dominance / relatively-generic h1 evaluation."""

    dominant: bool
    witness: Cycle | None  # violating l when not dominant
    rel_h1: Fraction
    argmin: Cycle
    nodes: int = 0
    diagnostics: dict = field(default_factory=dict)


def _generic_sublevel(g, den, ix, P, q, hi, z1, budget):
    """(minimum, argmin, witness) of F(l) = min q over [l, l + min(hi - l, z1)]
    on [0, hi], from one walk of {q <= F(0)}, F(0) = min q over [0, z1]:
    a point k of that set gives F(l) <= F(0) at exactly the l in
    [max(0, k - z1), k].
    """
    n = g.n
    lo = (0,) * n
    f0 = _minimize(g, den, ix, range(n), lo, z1, budget)[0]
    best = best_point = witness = None
    for k, v in kernels.box_values(P, q, lo, hi, f0):
        corner = tuple([max(0, a - b) for a, b in zip(k, z1)])
        if best is None or v < best or (v == best and corner < best_point):
            best, best_point = v, corner
        if any(corner):
            w = corner
        elif any(k):  # the smallest nonzero point of [0, k]
            j = max(i for i, a in enumerate(k) if a)
            w = (0,) * j + (1,) + (0,) * (n - 1 - j)
        else:
            continue
        if witness is None or w < witness:
            witness = w
    return best, best_point, witness


def _oracle_walk(g, P, q, hi, scale, oracle):
    """(minimum, argmin, witness) of F(l) = q(l) - scale oracle(l) on
    [0, hi], asking the oracle at each point of one lexicographic pass.

    The pass keeps F(0), the first later point whose value does not
    exceed it (the witness), and the running strict minimum, whose point
    is then the lexicographically smallest argmin.  Witnesses and
    minimizers satisfy F(l) <= F(0), so when the oracle is bounded by M
    only the points with q(l) <= scale (M - oracle(0)) are visited; l = 0
    is among them and comes first.
    """
    limit = None
    if oracle.bound is not None:
        limit = scale * (oracle.bound - oracle.value(Cycle.zero(g)))
        if limit < 0:
            raise ValidationError("oracle value at 0 exceeds the oracle bound")
    base = best = best_point = witness = None
    for point, v in kernels.box_values(P, q, (0,) * g.n, hi, limit):
        v -= scale * oracle.value(Cycle(g, point))
        if base is None:  # l = 0 is the first lexicographic point
            base = best = v
            best_point = point
            continue
        if witness is None and v <= base:
            witness = point
        if v < best:
            best = v
            best_point = point
    return best, best_point, witness


def _evaluate(z, z1, lp, oracle, budget):
    """The minimum, lexicographically smallest argmin and witness of
    chi(-l'+l) - oracle(l) over [0, z].

    Values are scaled by 2D: the objective at l is chi(-l') + F(l) / (2D)
    with F(l) = q(l) - 2D oracle(l), and the witness is the first point
    l > 0 with F(l) <= F(0).  For the plain generic-natural oracle bound
    to this l', the component floors sum to
    F(l) = min q over [l, l + min(z - l, z1)], so the oracle is not asked:
    :func:`_generic_sublevel` walks {q <= F(0)} once, takes the argmin as
    the smallest corner max(0, k - z1) over the k minimizing q, and the
    witness as the smallest nonzero point of the boxes
    [max(0, k - z1), k], k != 0: the corner when it is nonzero, else e_j
    for the last j with k_j > 0.  Every other oracle (a subclass
    overriding ``value``, another l') is asked point by point
    (:func:`_oracle_walk`).  Both paths report the box size as nodes.
    """
    lp._same_graph(z)
    if oracle.z != z or oracle.z1 != z1:
        raise PreconditionFailed("oracle is not bound to this (Z, Z1) pair")
    g = z.graph
    lo = (0,) * g.n
    hi = z.int_coeffs()
    ix = _estar_nums(lp)
    P, q, d, size = _search_setup(g, lp.den, ix, range(g.n), lo, hi, budget)
    scale = 2 * d
    # read at call time: a tracer may rebind the method on the class
    if type(oracle).value is GenericNaturalOracle.value and oracle.lp == lp:
        best, best_point, witness = _generic_sublevel(
            g, lp.den, ix, P, q, hi, z1.int_coeffs(), budget
        )
    else:
        best, best_point, witness = _oracle_walk(g, P, q, hi, scale, oracle)
    return RelReport(
        dominant=witness is None,
        witness=None if witness is None else Cycle(g, witness),
        rel_h1=-Fraction(best, scale),
        argmin=Cycle(g, best_point),
        nodes=size,
        diagnostics={"oracle_source": oracle.source},
    )


def reldom_check(z, z1, lp, oracle, budget=None) -> RelReport:
    """Relative dominance: true iff for every 0 < l <= Z,
    chi(-l') - oracle(0) < chi(-l'+l) - oracle(l); the witness is the
    lexicographically smallest violating l otherwise."""
    return _evaluate(z, z1, lp, oracle, budget)


def relgen_h1(z, z1, lp, oracle, budget=None) -> RelReport:
    """Relatively generic h1:
    chi(-l') - min over 0 <= l <= Z of (chi(-l'+l) - oracle(l)),
    with the lexicographically smallest argmin."""
    return _evaluate(z, z1, lp, oracle, budget)


def relspace_dim(z: Cycle, lp: Cycle, h1_z1_bundle: int, h1_o_z1: int) -> int:
    """Dimension of the relative divisor space:
    h1(Z1, L) - h1(O_Z1) + (l', Z), the two h1 values supplied by the
    caller: :func:`genus.fiber_dim` with the h1 values of Z1."""
    return fiber_dim(z, lp, h1_z1_bundle, h1_o_z1)


def relgen1_nonempty(z, z1, lp, oracle, budget=None):
    """Section-existence criterion for relatively generic structures.

    Hypothesis: writing l' = -sum a_v E_v, the coefficients a_v must be
    positive for every v in |Z| outside |Z1|.  Vertices outside |Z| are
    not constrained (the theorem statement leaves them open; the
    diagnostics record this reading).  Delegates to the dominance check.
    """
    z._same_graph(z1)
    v2 = [v for v in z.support() if v not in set(z1.support())]
    for v in v2:
        if -lp[v] <= 0:
            raise HypothesisFailed(
                f"coefficient hypothesis fails at vertex {v!r}: "
                f"need a positive coefficient in -l'"
            )
    report = reldom_check(z, z1, lp, oracle, budget)
    diag = dict(report.diagnostics)
    diag["hypothesis_checked_on"] = tuple(v2)
    diag["note"] = "vertices outside |Z| are not constrained by the check"
    return replace(report, diagnostics=diag)
