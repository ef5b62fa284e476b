"""Relative dominance and relatively generic h1 evaluation.

The analytic side (a fixed restricted bundle on the part Z1 of Z) enters
only through an h1 oracle: a total map from the box [0, Z] to
nonnegative integers, table(l) standing for h1((Z-l)_1, L(-l)) with
(Z-l)_1 = min(Z-l, Z1).  Three sources are shipped: the zero table, a
file table, and the generic-natural table computed from the interval
floors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BoxTooLarge,
    GraphSyntaxError,
    HypothesisFailed,
    OracleIncomplete,
    PreconditionFailed,
    ValidationError,
)
from .cycles import (
    Cycle,
    meet,
    parse_cycle,
    restrict_R,
)
from .chimin import DEFAULT_BUDGET, _shifted_quadratic
from .genus import _component_cycle, fiber_dim, interval_floor_line_bundle
from . import kernels


class H1Oracle:
    """Total map from the box [0, z] to nonnegative h1 values.

    ``value`` takes an integral cycle l with 0 <= l <= z and returns
    h1((z-l)_1, L(-l)); it must vanish whenever min(z-l, z1) = 0.
    """

    source = "abstract"

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

    def value(self, l):
        return 0


class TableOracle(H1Oracle):
    """Explicit table; must cover the entire box, no defaulting."""

    source = "file"

    def __init__(self, z, z1, table):
        super().__init__(z, z1)
        self.table = {tuple(int(c) for c in k): int(v) for k, v in table.items()}
        lo = (0,) * z.graph.n
        hi = z.int_coeffs()
        for point in kernels.iter_box(lo, hi):
            if point not in self.table:
                raise OracleIncomplete(
                    f"oracle table is missing the box point {point}"
                )
            v = self.table[point]
            if v < 0:
                raise ValidationError(f"negative oracle value at {point}")
            l = Cycle(z.graph, point)
            if meet(z - l, z1).is_zero and v != 0:
                raise ValidationError(
                    f"oracle must vanish at {point}: the fixed part is empty"
                )

    def value(self, l):
        return self.table[tuple(int(c) for c in l.coeffs)]


class GenericNaturalOracle(H1Oracle):
    """Table filled with the generic natural-line-bundle floors:
    table(l) = sum over components of min(z-l, z1) of the interval floor
    with Chern class R(l' - l)."""

    source = "generic"

    def __init__(self, z, z1, lp: Cycle):
        super().__init__(z, z1)
        lp._same_graph(z)
        self.lp = lp

    def value(self, l):
        fixed = meet(self.z - l, self.z1)
        total = 0
        if not fixed.is_zero:
            for comp, lp_c in restrict_R(self.lp - l, fixed.support()):
                z_c = _component_cycle(comp, fixed)
                f = interval_floor_line_bundle(z_c, lp_c).floor
                if f.denominator != 1:
                    raise ValidationError(
                        "generic-natural oracle produced a non-integer value; "
                        "the Chern class is not in the dual lattice"
                    )
                total += int(f)
        return total


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


def _evaluate(z, z1, lp, oracle, budget):
    """One lexicographic pass over [0, z] of chi(-l'+l) - oracle(l).

    Values are scaled by 2D: the objective at l is chi(-l') + v / (2D).
    The pass keeps the value at l = 0, the first later point whose value
    does not exceed it (the witness), and the running strict minimum,
    whose point is then the lexicographically smallest argmin.
    """
    if oracle.z != z or oracle.z1 != z1:
        raise PreconditionFailed("oracle is not bound to this (Z, Z1) pair")
    g = z.graph
    lo = (0,) * g.n
    hi = z.int_coeffs()
    size = kernels.box_size(lo, hi)
    budget = DEFAULT_BUDGET if budget is None else budget
    if size > budget:
        raise BoxTooLarge(size, budget)
    P, q, d = _shifted_quadratic(g, -lp)
    scale = 2 * d
    base = best = best_point = witness = None
    for point, v in kernels.box_values(P, q, lo, hi):
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
    return RelReport(
        dominant=report.dominant,
        witness=report.witness,
        rel_h1=report.rel_h1,
        argmin=report.argmin,
        nodes=report.nodes,
        diagnostics=diag,
    )
