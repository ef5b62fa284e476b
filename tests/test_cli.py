import json
import os
import subprocess
import sys

import pytest

import plumblat
from plumblat import InternalError, estar, graph, intersection_data, parse_graph
from plumblat.cli import main

A1 = "vertex v -2\n"
A2 = "vertex a -2\nvertex b -2\nedge a b\n"
T237 = (
    "vertex c -1\n"
    "vertex p -2\n"
    "vertex q -3\n"
    "vertex r -7\n"
    "edge c p\nedge c q\nedge c r\n"
)


@pytest.fixture
def gfile(tmp_path):
    def write(text, name="g.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload.pop("schema") == "1"
    return payload


def test_validate(gfile, capsys):
    code, out, _ = run(capsys, "validate", "--graph", gfile(A1))
    assert code == 0
    assert "valid: true" in out


def test_validate_rejects_indefinite(gfile, capsys):
    code, out, err = run(capsys, "validate", "--graph", gfile("vertex v 2\n"))
    assert code == 2
    assert out == ""
    assert "negative definite" in err


def test_validate_rejects_genus(gfile, capsys):
    code, _, err = run(
        capsys, "validate", "--graph", gfile("vertex v -2 genus 1\n")
    )
    assert code == 2
    assert "genus" in err


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--graph", str(tmp_path / "no"))
    assert code == 2
    assert "error" in err


def test_invariants_json_a1(gfile, capsys):
    payload = run_json(capsys, "invariants", "--graph", gfile(A1))
    assert payload == {
        "vertices": 1,
        "det": -2,
        "group_order": 2,
        "zk": {},
        "zmin": {"v": "1"},
        "rational": True,
        "generic_pg": 0,
    }


def test_invariants_json_t237(gfile, capsys):
    payload = run_json(capsys, "invariants", "--graph", gfile(T237))
    assert payload["det"] == 1
    assert payload["rational"] is False
    assert payload["generic_pg"] == 1
    assert payload["zmin"] == {"c": "6", "p": "3", "q": "2", "r": "1"}


def test_chi_and_pairing(gfile, capsys):
    path = gfile(A1)
    assert run_json(capsys, "chi", "--graph", path, "--lprime", "v=1") == {
        "chi": "1"
    }
    assert run_json(
        capsys, "chi", "--graph", path, "--lprime", "estar:v"
    ) == {"chi": "1/4"}
    assert run_json(
        capsys, "pairing", "--graph", path, "--a", "v=1", "--b", "v=1"
    ) == {"pairing": "-2"}


def test_estar_and_restrict(gfile, capsys):
    path = gfile(A2)
    assert run_json(capsys, "estar", "--graph", path, "--vertex", "a") == {
        "estar": {"a": "2/3", "b": "1/3"}
    }
    payload = run_json(
        capsys,
        "restrict",
        "--graph",
        path,
        "--lprime",
        "estar:b",
        "--subset",
        "b",
    )
    assert payload == {
        "components": [{"vertices": ["b"], "cycle": {"b": "1/2"}}]
    }
    # dual base elements of dropped vertices map to zero
    payload = run_json(
        capsys,
        "restrict",
        "--graph",
        path,
        "--lprime",
        "estar:a",
        "--subset",
        "b",
    )
    assert payload == {"components": [{"vertices": ["b"], "cycle": {}}]}
    code, out, err = run(
        capsys, "restrict", "--graph", path, "--lprime", "estar:a", "--subset", ""
    )
    assert (code, out, err) == (2, "", "error: vertex subset is empty\n")


def test_negated_estar_shortcut_with_equals(gfile, capsys):
    path = gfile(A2)
    literal = run_json(capsys, "chi", "--graph", path, "--lprime", "a=-2/3 b=-1/3")
    assert run_json(capsys, "chi", "--graph", path, "--lprime=-estar:a") == literal


def test_negated_estar_shortcut_as_its_own_token(gfile, capsys):
    """A cycle value that starts with '-' may follow its option as a
    separate token; '--' still starts the next option."""
    path = gfile(A2)
    literal = run_json(capsys, "chi", "--graph", path, "--lprime=-estar:a")
    assert run_json(capsys, "chi", "--graph", path, "--lprime", "-estar:a") == literal
    assert run_json(
        capsys, "floor", "--graph", path, "--z", "zmin", "--lprime", "-estar:b"
    ) == run_json(capsys, "floor", "--graph", path, "--z", "zmin", "--lprime=-estar:b")
    # every cycle-valued option reads the token as its '=' form would
    for argv in (
        ("pairing", "--a", "a=1", "--b"),
        ("floor", "--lprime", "0", "--z"),
        ("reldom", "--z", "zmin", "--lprime", "0", "--oracle", "zero", "--z1"),
    ):
        *head, option = argv
        assert run(capsys, *head, "--graph", path, option, "-2*zmin") == run(
            capsys, *head, "--graph", path, f"{option}=-2*zmin"
        )
    code, out, err = run(capsys, "chi", "--graph", path, "--lprime", "-nope:a")
    assert (code, out) == (2, "")
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--graph", path, "--lprime", "--json"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_zmin_shortcut_and_reduce(gfile, capsys):
    path = gfile(A2)
    assert run_json(capsys, "zmin", "--graph", path) == {
        "zmin": {"a": "1", "b": "1"}
    }
    payload = run_json(
        capsys,
        "reduce",
        "--graph",
        path,
        "--z",
        "2*zmin",
        "--lprime",
        "a=1",
    )
    assert payload == {"reduced": {"a": "1"}}


def test_minchi_box_and_lower(gfile, capsys):
    path = gfile(A1)
    payload = run_json(
        capsys, "minchi", "--graph", path, "--box", "v=3", "--lprime", "0"
    )
    assert payload["min_value"] == "0"
    assert payload["minimizer"] == {}
    payload = run_json(capsys, "minchi", "--graph", path, "--lower", "v=1")
    assert payload["min_value"] == "1"
    assert "box_hi" in payload["certificate"]


def test_minchi_requires_one_region(gfile, capsys):
    code, _, err = run(capsys, "minchi", "--graph", gfile(A1))
    assert code == 2 and "--box or --lower" in err


def test_budget_exhaustion_exits_3(gfile, capsys):
    code, _, err = run(
        capsys,
        "minchi",
        "--graph",
        gfile(A2),
        "--box",
        "a=100 b=100",
        "--lprime",
        "0",
        "--budget",
        "50",
    )
    assert code == 3
    assert "budget" in err


def test_budget_env(gfile, capsys, monkeypatch):
    monkeypatch.setenv("PLUMBLAT_BUDGET", "50")
    code, _, _ = run(
        capsys,
        "minchi",
        "--graph",
        gfile(A2),
        "--box",
        "a=100 b=100",
        "--lprime",
        "0",
    )
    assert code == 3


def test_floor_and_generic(gfile, capsys):
    path = gfile(T237)
    payload = run_json(
        capsys, "floor", "--graph", path, "--z", "2*zmin", "--lprime", "0"
    )
    assert payload["floor"] == 0
    payload = run_json(capsys, "generic-pg", "--graph", path)
    assert payload["floor"] == 1
    payload = run_json(capsys, "generic-h1oz", "--graph", path, "--z", "2*zmin")
    assert payload["floor"] == 1
    assert payload["ceiling"] == "unknown (analytic)"
    payload = run_json(capsys, "generic-h1oz", "--graph", path, "--z", "0")
    assert payload["floor"] == 0 and payload["minimizer"] == {}
    # l' outside L': the floor is printed as a "p/q" string
    payload = run_json(
        capsys, "floor", "--graph", gfile(A2), "--z", "a=2 b=2", "--lprime", "a=-3/2"
    )
    assert payload["floor"] == "1/2"


def test_eca_and_ez(gfile, capsys):
    path = gfile(T237)
    payload = run_json(
        capsys, "eca-dim", "--graph", path, "--z", "zmin", "--lprime=-estar:c"
    )
    assert payload["nonempty"] is True
    payload = run_json(capsys, "ez", "--graph", path, "--z", "2*zmin", "--subset", "c")
    assert payload == {"ez": 1}


def test_reldom_relh1_zero_oracle(gfile, capsys):
    path = gfile(A1)
    payload = run_json(
        capsys,
        "reldom",
        "--graph",
        path,
        "--z",
        "v=1",
        "--z1",
        "v=1",
        "--lprime",
        "0",
        "--oracle",
        "zero",
    )
    assert payload["dominant"] is True
    assert payload["witness"] is None
    payload = run_json(
        capsys,
        "relh1",
        "--graph",
        path,
        "--z",
        "v=2",
        "--z1",
        "v=1",
        "--lprime",
        "0",
        "--oracle",
        "zero",
    )
    assert payload["rel_h1"] == 0
    assert payload["argmin"] == {}


def test_oracle_file(gfile, capsys, tmp_path):
    path = gfile(A2)
    oracle = tmp_path / "oracle.txt"
    oracle.write_text(
        "oracle z=a=1 b=1 z1=a=1 b=1\n"
        "0 -> 1\n"
        "a=1 -> 0\n"
        "b=1 -> 0\n"
        "a=1 b=1 -> 0\n"
    )
    payload = run_json(
        capsys,
        "relh1",
        "--graph",
        path,
        "--z",
        "a=1 b=1",
        "--z1",
        "a=1 b=1",
        "--lprime",
        "0",
        "--oracle",
        str(oracle),
    )
    assert payload["rel_h1"] == 1
    # mismatched (Z, Z1) binding is rejected
    code, _, err = run(
        capsys,
        "relh1",
        "--graph",
        path,
        "--z",
        "a=1",
        "--z1",
        "a=1",
        "--lprime",
        "0",
        "--oracle",
        str(oracle),
    )
    assert code == 2 and "bound" in err


def test_relspace_dim(gfile, capsys):
    payload = run_json(
        capsys,
        "relspace-dim",
        "--graph",
        gfile(A1),
        "--z",
        "v=2",
        "--lprime=-estar:v",
        "--h1-l",
        "1",
        "--h1-oz",
        "0",
    )
    assert payload == {"dim": 3}


def test_blowup_pullback_znew(gfile, capsys):
    path = gfile(A1)
    payload = run_json(capsys, "blowup", "--graph", path, "--at", "v")
    assert "vertex v -3" in payload["graph"]
    assert "vertex v_b1 -1" in payload["graph"]
    assert payload["new_vertices"] == [{"name": "v_b1", "distance": 1}]
    payload = run_json(
        capsys, "pullback", "--graph", path, "--at", "v", "--cycle", "v=1"
    )
    assert payload == {"pullback": {"v": "1", "v_b1": "1"}}
    payload = run_json(
        capsys, "znew", "--graph", path, "--at", "v", "--z", "v=2"
    )
    assert payload == {
        "znew": {"v": "2", "v_b1": "1"},
        "zr": {"v": "2"},
    }


def test_blowup_edge_chain(gfile, capsys):
    payload = run_json(
        capsys,
        "blowup",
        "--graph",
        gfile(A2),
        "--edge",
        "a,b",
        "--times",
        "2",
    )
    assert "vertex a -4" in payload["graph"]
    assert len(payload["new_vertices"]) == 2


def test_unknown_vertex_exits_2(gfile, capsys):
    code, _, err = run(
        capsys, "chi", "--graph", gfile(A1), "--lprime", "w=1"
    )
    assert code == 2 and "w" in err


def test_determinism_byte_identical(gfile, capsys):
    path = gfile(T237)
    outputs = set()
    for _ in range(3):
        code, out, _err = run(capsys, "invariants", "--graph", path, "--json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_relh1_budget_exits_3(gfile, capsys):
    path = gfile(T237)
    for oracle in ("zero", "generic"):
        code, out, err = run(
            capsys,
            "relh1",
            "--graph",
            path,
            "--z",
            "2*zmin",
            "--z1",
            "zmin",
            "--lprime",
            "0",
            "--oracle",
            oracle,
            "--budget",
            "1364",
        )
        assert (code, out) == (3, "")
        assert err == "error: search box has 1365 nodes, exceeding the budget of 1364\n"


def test_relh1_generic_oracle(gfile, capsys):
    payload = run_json(
        capsys,
        "relh1",
        "--graph",
        gfile(T237),
        "--z",
        "2*zmin",
        "--z1",
        "zmin",
        "--lprime",
        "estar:c",
        "--oracle",
        "generic",
    )
    assert payload == {
        "dominant": False,
        "witness": {"r": "1"},
        "rel_h1": 11,
        "argmin": {"c": "6", "p": "3", "q": "2", "r": "1"},
        "nodes": 1365,
    }


def test_zk_and_rational(gfile, capsys):
    chain = gfile("vertex x -2\nvertex y -3\nvertex z -2\nedge x y\nedge y z\n", "chain.txt")
    t237 = gfile(T237, "t237.txt")
    assert run_json(capsys, "zk", "--graph", chain) == {
        "zk": {"x": "1/4", "y": "1/2", "z": "1/4"}
    }
    assert run(capsys, "zk", "--graph", chain) == (0, "zk: x=1/4 y=1/2 z=1/4\n", "")
    assert run_json(capsys, "zk", "--graph", t237) == {
        "zk": {"c": "2", "p": "1", "q": "1", "r": "1"}
    }
    assert run_json(capsys, "zk", "--graph", gfile(A2, "a2.txt")) == {"zk": {}}
    assert run_json(capsys, "rational", "--graph", chain) == {"rational": True}
    assert run_json(capsys, "rational", "--graph", t237) == {"rational": False}
    assert run(capsys, "rational", "--graph", t237) == (0, "rational: false\n", "")


def test_zero_denominator_exits_2(gfile, capsys, tmp_path):
    path = gfile(A2)
    code, out, err = run(capsys, "chi", "--graph", path, "--lprime", "a=1/0")
    assert (code, out) == (2, "")
    assert "zero denominator in cycle term 'a=1/0'" in err
    oracle = tmp_path / "oracle.txt"
    oracle.write_text("oracle z=a=1 z1=a=1\n0 -> 0\na=1/0 -> 0\n")
    code, out, err = run(
        capsys, "relh1", "--graph", path, "--z", "a=1", "--z1", "a=1",
        "--lprime", "0", "--oracle", str(oracle),
    )
    assert (code, out) == (2, "")
    assert "zero denominator" in err


def test_edge_without_comma_exits_2(gfile, capsys):
    path = gfile(A2)
    for argv in (("blowup",), ("pullback", "--cycle", "a=1")):
        code, out, err = run(capsys, *argv, "--graph", path, "--edge", "a")
        assert (code, out) == (2, "")
        assert "--edge takes 'u,w', got 'a'" in err


def test_non_integer_budget_env_exits_2(gfile, capsys, monkeypatch):
    monkeypatch.setenv("PLUMBLAT_BUDGET", "1e6")
    code, out, err = run(capsys, "rational", "--graph", gfile(A2))
    assert (code, out) == (2, "")
    assert "PLUMBLAT_BUDGET must be an integer, got '1e6'" in err


def test_budget_below_one_exits_2(gfile, capsys):
    path = gfile(A2)
    for value in ("0", "-1"):
        code, out, err = run(capsys, "rational", "--graph", path, "--budget", value)
        assert (code, out) == (2, "")
        assert err == f"error: --budget must be at least 1, got {value}\n"


def test_budget_env_below_one_exits_2(gfile, capsys, monkeypatch):
    path = gfile(A2)
    for value in ("0", "-5"):
        monkeypatch.setenv("PLUMBLAT_BUDGET", value)
        code, out, err = run(capsys, "floor", "--graph", path, "--z", "a=1", "--lprime", "0")
        assert (code, out) == (2, "")
        assert err == f"error: PLUMBLAT_BUDGET must be at least 1, got {value}\n"
    # the flag takes precedence over the environment; rational searches
    # one box, which on one vertex of Euler number -3 has 2 points
    path = gfile("vertex a -3\n", "m3.txt")
    code, _, _ = run(capsys, "rational", "--graph", path, "--budget", "1")
    assert code == 3


def test_internal_error_exits_1(gfile, capsys, monkeypatch):
    """One corrupted Z_K numerator, or one corrupted diagonal entry of the
    adjugate, from the O(n) tree pass fails its O(n) check (I Z_K = e + 2,
    or the diagonal of I adj = det 1): the library raises InternalError,
    and the CLI reports it and exits 1."""
    tree_solve, branch_dets = graph._tree_solve, graph._branch_dets

    def bad_zk(*args):
        x = tree_solve(*args)
        return [x[0] + 1] + x[1:]

    def bad_diagonal(g):
        dets, r_prod, diag = branch_dets(g)
        return dets, r_prod, diag[:-1] + [diag[-1] + 1]

    for name, corrupted in (("_tree_solve", bad_zk), ("_branch_dets", bad_diagonal)):
        with monkeypatch.context() as m:
            m.setattr(graph, name, corrupted)
            with pytest.raises(InternalError):
                intersection_data(parse_graph(A2))
            code, out, err = run(capsys, "validate", "--graph", gfile(A2))
            assert (code, out) == (1, "")
            assert err.startswith("internal error: ")


def test_internal_error_in_a_dual_base_solve_exits_1(gfile, capsys, monkeypatch):
    """A corrupted solve x = adj(-I) k of a unit vector k fails the check
    I x = -det(-I) k of that solve: validate, whose Z_K solve is left
    intact (k = e + 2 is not a unit vector on these graphs), still
    succeeds, and estar, which solves for k = E_a, exits 1.  The corrupted
    entry is the solved vertex itself on A2 and the far end c on A3."""
    tree_solve = graph._tree_solve
    a3 = "vertex a -2\nvertex b -2\nvertex c -2\nedge a b\nedge b c\n"
    for text, j in ((A2, 0), (a3, 2)):

        def corrupted(g, dets, r_prod, k):
            x = tree_solve(g, dets, r_prod, k)
            if sorted(k) == [0] * (g.n - 1) + [1]:
                x[j] += 1
            return x

        with monkeypatch.context() as m:
            m.setattr(graph, "_tree_solve", corrupted)
            with pytest.raises(InternalError):
                estar(parse_graph(text), "a")
            path = gfile(text)
            assert run(capsys, "validate", "--graph", path)[0] == 0
            code, out, err = run(capsys, "estar", "--graph", path, "--vertex", "a")
            assert (code, out) == (1, "")
            assert err.startswith("internal error: ")


def test_python_m_version():
    src = os.path.dirname(os.path.dirname(plumblat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "plumblat", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "plumblat 0.1.0\n")
