"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions listed in ``TARGETS``
wherever a plumblat module binds them (``from .graph import
intersection_data`` makes a second binding in ``chimin``), and methods on
their class.  Each call opens a span; when it closes, its duration minus
the time of the spans it caused is added to the function's self time.
Spans are folded into per-function totals as they close, so tracing keeps
no per-call records and its memory stays flat.  ``uninstall`` restores
every binding.

Counts are taken at the same boundaries from the call arguments: box
points and scan iterations handed to the kernel (the kernel solves the
last coordinate in closed form, so a scan covers the last axis at once),
and distinct arguments per call where a function can repeat work.
"""

import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, function or Class.method); modules are plumblat.<module>.
TARGETS = (
    ("exactlin", "invert"),
    ("exactlin", "det_bareiss"),
    ("exactlin", "leading_minors"),
    ("exactlin", "solve"),
    ("exactlin", "mat_mul"),
    ("graph", "PlumbingGraph.__init__"),
    ("graph", "intersection_data"),
    ("graph", "subgraph"),
    ("cycles", "pairing"),
    ("cycles", "estar"),
    ("cycles", "estar_decompose"),
    ("cycles", "from_estar_coeffs"),
    ("chimin", "anticanonical_cycle"),
    ("chimin", "chi"),
    ("chimin", "_shifted_quadratic"),
    ("chimin", "fundamental_cycle"),
    ("chimin", "min_chi_box"),
    ("chimin", "min_chi_lower_bounded"),
    ("chimin", "is_rational"),
    ("kernels", "min_quadratic_box"),
    ("kernels", "box_values"),
    ("genus", "interval_floor_line_bundle"),
    ("relative", "GenericNaturalOracle.value"),
    ("relative", "relgen_h1"),
    ("relative", "reldom_check"),
)

# Functions whose repeated calls on equal arguments are wasted work.
DISTINCT = ("graph.intersection_data", "relative.GenericNaturalOracle.value")


def span_name(module, qualname):
    return f"{module}.{qualname.replace('.__init__', '')}"


def layer_metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for module, qualname in TARGETS:
        name = span_name(module, qualname)
        out.append((f"{name}.self_s", "s"))
        out.append((f"{name}.calls", "count"))
    out += [(f"{name}.distinct_frac", "ratio") for name in DISTINCT]
    out += [
        ("kernels.box_points", "count"),
        ("kernels.scan_iters", "count"),
        ("kernels.box_values.points", "count"),
        ("kernels.max_box_budget_frac", "ratio"),
    ]
    return out


def _box(lo, hi):
    size = 1
    for a, b in zip(lo, hi):
        size *= b - a + 1
    return size, b - a + 1


class Tracer:
    def __init__(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.max_box = 0
        self._stack = []
        self._distinct = defaultdict(set)
        self._alive = []  # oracles kept alive so their ids stay unique
        self._bindings = []

    # -- observers at span entry -------------------------------------------

    def _observe(self, name, args):
        if name == "kernels.min_quadratic_box":
            points, last = _box(args[2], args[3])
            self.counts["kernels.box_points"] += points
            self.counts["kernels.scan_iters"] += points // last
            self.max_box = max(self.max_box, points)
        elif name == "kernels.box_values":
            points, _ = _box(args[2], args[3])
            self.counts["kernels.box_values.points"] += points
            self.max_box = max(self.max_box, points)
        elif name == "graph.intersection_data":
            self._distinct[name].add(args[0])
        elif name == "relative.GenericNaturalOracle.value":
            oracle, l = args[0], args[1]
            if not self._alive or self._alive[-1] is not oracle:
                self._alive.append(oracle)
            self._distinct[name].add((id(oracle), l.coeffs))

    def _wrap(self, name, fn):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        observe = self._observe if name in DISTINCT or name.startswith("kernels.") else None

        def traced(*args, **kwargs):
            if observe is not None:
                observe(name, args)
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                children = stack.pop()
                self_ns[name] += duration - children
                calls[name] += 1
                if stack:
                    stack[-1] += duration

        return traced

    # -- installing and removing the wrappers ------------------------------

    def install(self):
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "plumblat" or key.startswith("plumblat."))
        ]
        for module, qualname in TARGETS:
            home = sys.modules[f"plumblat.{module}"]
            name = span_name(module, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._rebind(cls, attr, original, self._wrap(name, original))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, attr, original, wrapper)

    def _rebind(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._bindings.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._bindings):
            setattr(holder, attr, original)
        self._bindings.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, budget):
        values = {}
        for module, qualname in TARGETS:
            name = span_name(module, qualname)
            values[f"{name}.self_s"] = self.self_ns[name] / 1e9
            values[f"{name}.calls"] = self.calls[name]
        for name in DISTINCT:
            calls = self.calls[name]
            values[f"{name}.distinct_frac"] = len(self._distinct[name]) / calls if calls else 0.0
        for key in ("kernels.box_points", "kernels.scan_iters", "kernels.box_values.points"):
            values[key] = self.counts[key]
        values["kernels.max_box_budget_frac"] = self.max_box / budget
        return values
