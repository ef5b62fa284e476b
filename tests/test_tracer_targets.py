"""The benchmark's tracer (``plumbench/spans.py``) wraps library functions
by name.  Every name it lists must resolve to a callable in plumblat, or
a traced benchmark run breaks; this test fails first instead."""

import importlib
import os
import sys

import pytest

import plumblat
from plumblat.chimin import DEFAULT_BUDGET

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "plumbench"
)


@pytest.fixture(scope="module")
def spans():
    """plumbench/spans.py, imported without writing bytecode next to it."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, BENCH)
    sys.dont_write_bytecode = True
    try:
        module = importlib.import_module("spans")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    assert os.path.dirname(os.path.abspath(module.__file__)) == BENCH
    yield module
    sys.modules.pop("spans", None)


def test_every_target_resolves(spans):
    for module, qualname in spans.TARGETS:
        home = importlib.import_module(f"plumblat.{module}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(home, cls_name)
            # the tracer wraps the method on its own class
            assert attr in vars(cls), f"{module}.{qualname}"
            assert callable(vars(cls)[attr])
        else:
            assert callable(getattr(home, qualname, None)), f"{module}.{qualname}"
    names = {spans.span_name(m, q) for m, q in spans.TARGETS}
    assert set(spans.DISTINCT) <= names


def test_install_and_uninstall_restore_bindings(spans):
    from plumblat import chimin, graph

    before = (
        chimin.intersection_data,
        graph.intersection_data,
        graph.PlumbingGraph.__init__,
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert chimin.intersection_data is not before[0]
        assert plumblat.is_rational(plumblat.PlumbingGraph([("v", -2)], []))
    finally:
        tracer.uninstall()
    after = (
        chimin.intersection_data,
        graph.intersection_data,
        graph.PlumbingGraph.__init__,
    )
    assert all(a is b for a, b in zip(after, before))
    assert tracer.calls["chimin.is_rational"] == 1


def test_traced_generic_oracle_run_counts(spans):
    """Traced relgen_h1 runs with the generic oracle and one interval
    floor: the counts the benchmark reports come from the arguments these
    functions receive, so a change to them shows here.  The plain oracle
    is evaluated by one sublevel walk and never asked for a value; a
    subclass overriding ``value`` is asked at every box point."""

    class Overriding(plumblat.GenericNaturalOracle):
        def value(self, l):
            return super().value(l)

    g = plumblat.PlumbingGraph([("a", -2), ("b", -3)], [("a", "b")])
    zmin = plumblat.fundamental_cycle(g)
    z = 2 * zmin  # a=2 b=2: a 3 x 3 box
    lp = -plumblat.estar(g, "a")
    size = 3 * 3
    counts = []
    for cls in (plumblat.GenericNaturalOracle, Overriding):
        tracer = spans.Tracer()
        tracer.install()
        try:
            report = plumblat.relgen_h1(z, zmin, lp, cls(z, zmin, lp))
            plumblat.interval_floor_line_bundle(z, lp)
        finally:
            tracer.uninstall()
        assert report.nodes == size
        metrics = tracer.metrics(DEFAULT_BUDGET)
        assert metrics["kernels.box_values.points"] == size
        assert metrics["kernels.box_points"] > 0
        assert metrics["kernels.min_quadratic_box.calls"] > 1
        counts.append(metrics["relative.GenericNaturalOracle.value.calls"])
    assert counts == [0, size]
