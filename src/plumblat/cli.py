"""Command-line interface.

One subcommand per operation; ``--json`` switches from human-readable
lines to a schema-stable JSON object (rationals as "p/q" strings, cycles
as name -> string maps).  Diagnostics go to stderr; exit code 2 flags
bad input, 3 a search box beyond the node budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import (
    BoxTooLarge,
    Cycle,
    GenericNaturalOracle,
    PlumbingGraph,
    TableOracle,
    UsageError,
    ZeroOracle,
    anticanonical_cycle,
    blowup_chain,
    blowup_edge_chain,
    chi,
    eca_dim,
    eca_nonempty,
    estar,
    fundamental_cycle,
    generic_ez,
    generic_h1_oz_floor,
    generic_natural_h1,
    generic_pg,
    intersection_data,
    interval_floor_line_bundle,
    is_rational,
    laufer_reduce,
    min_chi_box,
    min_chi_lower_bounded,
    pairing,
    parse_cycle,
    parse_graph,
    parse_oracle_file,
    reldom_check,
    relgen_h1,
    relspace_dim,
    restrict_R,
    serialize_graph,
    z_new,
)
from .cycles import cycle_to_json, format_cycle, format_fraction
from .errors import PlumblatError
from .surgery import z_r


def _frac_json(x: Fraction):
    """Integer rationals as JSON ints, others as "p/q" strings."""
    if x.denominator == 1:
        return int(x)
    return format_fraction(x)


def _read_graph(path: str) -> PlumbingGraph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _parse_lprime(g, text):
    """Cycle literal plus the estar shortcuts: 'estar:v' and '-estar:v'."""
    text = text.strip()
    if text.startswith("estar:"):
        return estar(g, text[len("estar:"):])
    if text.startswith("-estar:"):
        return -estar(g, text[len("-estar:"):])
    return parse_cycle(g, text)


def _parse_z(g, text):
    """Cycle literal plus the 'zmin' and '<k>*zmin' shortcuts."""
    text = text.strip()
    if text == "zmin":
        return fundamental_cycle(g)
    if text.endswith("*zmin"):
        try:
            k = int(text[: -len("*zmin")])
        except ValueError:
            raise UsageError(f"bad cycle shortcut {text!r}") from None
        return k * fundamental_cycle(g)
    return parse_cycle(g, text)


def _parse_subset(g, text):
    names = [t for t in text.split(",") if t]
    for n in names:
        g.index(n)
    return names


def _oracle(g, spec, z, z1, lp):
    if spec == "zero":
        return ZeroOracle(z, z1)
    if spec == "generic":
        return GenericNaturalOracle(z, z1, lp)
    with open(spec, "r", encoding="utf-8") as fh:
        oracle = parse_oracle_file(g, fh.read())
    if oracle.z != z or oracle.z1 != z1:
        raise UsageError("oracle file is bound to a different (Z, Z1) pair")
    return oracle


def _emit(args, payload):
    """Print the report: stable JSON or aligned human-readable lines."""
    if args.json:
        out = {"schema": "1"}
        out.update(payload)
        print(json.dumps(out))
    else:
        for key, value in payload.items():
            print(f"{key}: {_human(value)}")


def _human(value):
    if isinstance(value, dict):
        if not value:
            return "0"
        return " ".join(f"{k}={v}" for k, v in value.items())
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(str(_human(v)) for v in value) + "]"
    return str(value)


def _floor_payload(report):
    payload = {
        "floor": _frac_json(Fraction(report.floor)),
        "minimizer": cycle_to_json(report.minimizer)
        if report.minimizer is not None
        else {},
        "applicable": report.applicable,
        "components": [
            {"vertices": list(names), "floor": _frac_json(Fraction(f))}
            for names, f in report.per_component
        ],
        "ceiling": report.ceiling,
    }
    if report.applicable is None:
        payload.pop("applicable")
    return payload


def _mincert_payload(cert):
    payload = {
        "min_value": format_fraction(cert.min_value),
        "minimizer": cycle_to_json(cert.minimizer),
        "nodes": cert.nodes,
    }
    if cert.certificate is not None:
        c = cert.certificate
        payload["certificate"] = {
            "continuous_minimizer": cycle_to_json(c["continuous_minimizer"]),
            "level_bound": format_fraction(c["level_bound"]),
            "radius": list(c["radius"]),
            "box_lo": list(c["box_lo"]),
            "box_hi": list(c["box_hi"]),
        }
    else:
        payload["certificate"] = {"type": "box", "lo": list(cert.region["lo"]),
                                  "hi": list(cert.region["hi"])}
    return payload


def _rel_payload(report):
    return {
        "dominant": report.dominant,
        "witness": cycle_to_json(report.witness)
        if report.witness is not None
        else None,
        "rel_h1": _frac_json(Fraction(report.rel_h1)),
        "argmin": cycle_to_json(report.argmin),
        "nodes": report.nodes,
    }


def _surgery_result(g, args):
    if args.edge:
        if "," not in args.edge:
            raise UsageError(f"--edge takes 'u,w', got {args.edge!r}")
        u, w = args.edge.split(",", 1)
        return blowup_edge_chain(g, u.strip(), w.strip(), args.times)
    if not args.at:
        raise UsageError("either --at or --edge is required")
    return blowup_chain(g, args.at, args.times)


_LPRIME_HELP = "Chern class l': cycle literal, estar:<v> or --lprime=-estar:<v>"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plumblat",
        description="Exact invariants of negative-definite plumbing graphs.",
    )
    parser.add_argument("--version", action="version", version="plumblat 0.1.0")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--graph", required=True, help="graph file, '-' for stdin")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument(
            "--budget",
            type=int,
            default=None,
            help="node budget for certified searches (default 10^8; "
            "PLUMBLAT_BUDGET also honored)",
        )
        return p

    add("validate", help="parse and validate a graph")
    add("invariants", help="summary: det, group order, zk, zmin, rationality")
    p = add("chi", help="evaluate the Riemann-Roch function")
    p.add_argument("--lprime", required=True, help=_LPRIME_HELP)
    add("zk", help="anticanonical cycle")
    add("zmin", help="fundamental cycle")
    add("rational", help="Artin rationality test")
    p = add("minchi", help="certified chi minimization")
    p.add_argument("--box", help="minimize chi(-l'+l) over 0 <= l <= Z")
    p.add_argument("--lower", help="minimize chi over l >= C")
    p.add_argument("--lprime", default="0", help=_LPRIME_HELP)
    p = add("reduce", help="Laufer reduction of a Chern class")
    p.add_argument("--z", required=True)
    p.add_argument("--lprime", required=True, help=_LPRIME_HELP)
    p = add("floor", help="interval floor for line bundles of Chern class l'")
    p.add_argument("--z", required=True)
    p.add_argument("--lprime", required=True, help=_LPRIME_HELP)
    add("generic-pg", help="geometric genus of the generic singularity")
    p = add("generic-h1oz", help="generic h1 of the structure sheaf of Z")
    p.add_argument("--z", required=True)
    p = add("eca-dim", help="dimension of the effective divisor space")
    p.add_argument("--z", required=True)
    p.add_argument("--lprime", required=True, help=_LPRIME_HELP)
    p = add("ez", help="generic affine-image dimension for an E*-support")
    p.add_argument("--z", required=True)
    p.add_argument("--subset", required=True)
    for name in ("reldom", "relh1"):
        p = add(name, help=f"{name}: relative formulas driven by an h1 oracle")
        p.add_argument("--z", required=True)
        p.add_argument("--z1", required=True)
        p.add_argument("--lprime", required=True, help=_LPRIME_HELP)
        p.add_argument("--oracle", required=True, help="zero | generic | <file>")
    p = add("relspace-dim", help="relative divisor space dimension")
    p.add_argument("--z", required=True)
    p.add_argument("--lprime", required=True, help=_LPRIME_HELP)
    p.add_argument("--h1-l", type=int, required=True)
    p.add_argument("--h1-oz", type=int, required=True)
    p = add("blowup", help="blow up a vertex or an edge")
    p.add_argument("--at")
    p.add_argument("--edge", help="u,w")
    p.add_argument("--times", type=int, default=1)
    p = add("pullback", help="pull a cycle back through a blow-up")
    p.add_argument("--at")
    p.add_argument("--edge")
    p.add_argument("--times", type=int, default=1)
    p.add_argument("--cycle", required=True)
    p = add("znew", help="distance-adjusted pullback cycle")
    p.add_argument("--z", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--times", type=int, default=1)
    p = add("pairing", help="intersection pairing of two cycles")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p = add("estar", help="dual base element of a vertex")
    p.add_argument("--vertex", required=True)
    p = add("restrict", help="cohomological restriction onto a subgraph")
    p.add_argument("--lprime", required=True, help=_LPRIME_HELP)
    p.add_argument("--subset", required=True)
    return parser


def _budget(args):
    budget, source = args.budget, "--budget"
    env = os.environ.get("PLUMBLAT_BUDGET")
    if budget is None and env:
        source = "PLUMBLAT_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise UsageError(f"{source} must be an integer, got {env!r}") from None
    if budget is not None and budget < 1:
        raise UsageError(f"{source} must be at least 1, got {budget}")
    return budget


def _run(args) -> dict:
    g = _read_graph(args.graph)
    budget = _budget(args)
    cmd = args.command

    if cmd == "validate":
        data = intersection_data(g)
        return {
            "valid": True,
            "vertices": g.n,
            "det": data.det,
            "group_order": data.group_order,
        }
    if cmd == "invariants":
        data = intersection_data(g)
        pg = generic_pg(g, budget)
        return {
            "vertices": g.n,
            "det": data.det,
            "group_order": data.group_order,
            "zk": cycle_to_json(anticanonical_cycle(g)),
            "zmin": cycle_to_json(fundamental_cycle(g)),
            "rational": is_rational(g, budget),
            "generic_pg": _frac_json(Fraction(pg.floor)),
        }
    if cmd == "chi":
        return {"chi": format_fraction(chi(_parse_lprime(g, args.lprime)))}
    if cmd == "zk":
        return {"zk": cycle_to_json(anticanonical_cycle(g))}
    if cmd == "zmin":
        return {"zmin": cycle_to_json(fundamental_cycle(g))}
    if cmd == "rational":
        return {"rational": is_rational(g, budget)}
    if cmd == "minchi":
        if (args.box is None) == (args.lower is None):
            raise UsageError("exactly one of --box or --lower is required")
        if args.box is not None:
            cert = min_chi_box(
                _parse_z(g, args.box), _parse_lprime(g, args.lprime), budget
            )
        else:
            cert = min_chi_lower_bounded(_parse_z(g, args.lower), budget)
        return _mincert_payload(cert)
    if cmd == "reduce":
        out = laufer_reduce(_parse_z(g, args.z), _parse_lprime(g, args.lprime))
        return {"reduced": cycle_to_json(out)}
    if cmd == "floor":
        report = interval_floor_line_bundle(
            _parse_z(g, args.z), _parse_lprime(g, args.lprime), budget
        )
        return _floor_payload(report)
    if cmd == "generic-pg":
        return _floor_payload(generic_pg(g, budget))
    if cmd == "generic-h1oz":
        return _floor_payload(generic_h1_oz_floor(_parse_z(g, args.z), budget))
    if cmd == "eca-dim":
        z = _parse_z(g, args.z)
        lp = _parse_lprime(g, args.lprime)
        return {
            "nonempty": eca_nonempty(lp),
            "dim": eca_dim(z, lp),
        }
    if cmd == "ez":
        z = _parse_z(g, args.z)
        return {"ez": generic_ez(z, _parse_subset(g, args.subset), budget)}
    if cmd in ("reldom", "relh1"):
        z = _parse_z(g, args.z)
        z1 = _parse_z(g, args.z1)
        lp = _parse_lprime(g, args.lprime)
        oracle = _oracle(g, args.oracle, z, z1, lp)
        fn = reldom_check if cmd == "reldom" else relgen_h1
        return _rel_payload(fn(z, z1, lp, oracle, budget))
    if cmd == "relspace-dim":
        return {
            "dim": relspace_dim(
                _parse_z(g, args.z),
                _parse_lprime(g, args.lprime),
                args.h1_l,
                args.h1_oz,
            )
        }
    if cmd == "blowup":
        b = _surgery_result(g, args)
        return {
            "graph": serialize_graph(b.new_graph),
            "correspondence": dict(b.old_to_new),
            "new_vertices": [
                {"name": n, "distance": d} for n, d in b.new_vertices
            ],
        }
    if cmd == "pullback":
        b = _surgery_result(g, args)
        out = b.pullback(parse_cycle(g, args.cycle))
        return {"pullback": cycle_to_json(out)}
    if cmd == "znew":
        b = blowup_chain(g, args.at, args.times)
        out = z_new(b, _parse_z(g, args.z))
        zr = None
        if out[b.last_vertex] >= 1:
            zr = cycle_to_json(z_r(b, out))
        return {"znew": cycle_to_json(out), "zr": zr}
    if cmd == "pairing":
        val = pairing(parse_cycle(g, args.a), parse_cycle(g, args.b))
        return {"pairing": format_fraction(val)}
    if cmd == "estar":
        return {"estar": cycle_to_json(estar(g, args.vertex))}
    if cmd == "restrict":
        lp = _parse_lprime(g, args.lprime)
        parts = restrict_R(lp, _parse_subset(g, args.subset))
        return {
            "components": [
                {"vertices": list(comp.names), "cycle": cycle_to_json(c)}
                for comp, c in parts
            ]
        }
    raise UsageError(f"unknown command {cmd!r}")


# Options whose value is a cycle, which may start with '-' ('-estar:v').
_CYCLE_OPTIONS = ("--lprime", "--z", "--z1", "--box", "--lower", "--cycle", "--a", "--b")


def _attach_cycle_values(argv):
    """Join '--lprime -estar:v' into '--lprime=-estar:v': argparse reads a
    separate value that starts with a single '-' as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _CYCLE_OPTIONS and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_cycle_values(argv))
    try:
        payload = _run(args)
    except BoxTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PlumblatError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    _emit(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
