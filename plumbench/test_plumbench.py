"""Tests of the benchmark itself.

    python3 -m pytest plumbench/test_plumbench.py
    python3 plumbench/test_plumbench.py
"""

import json
import os
import subprocess
import sys
import unittest
from fractions import Fraction
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import lattice  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CASES_JSON = (
    "import json, sys; sys.path.insert(0, {here!r}); import workloads; "
    "print(json.dumps(workloads.cases({workload!r}, {seed}), default=str))"
)


def cases_in_fresh_interpreter(workload, seed, hash_seed):
    code = CASES_JSON.format(here=HERE, workload=workload, seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, check=True, timeout=60
    )
    return json.loads(out.stdout)


def cheapest_ops(workload, count):
    """A few of the workload's cheapest ops, by box size."""
    cases = workloads.cases(workload, 11)
    cases.sort(key=lambda c: lattice.box_points(c["z"]) if "z" in c else 0)
    return workloads.build(cases[:count])


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_across_interpreters(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = cases_in_fresh_interpreter(workload, 5, 1)
                again = cases_in_fresh_interpreter(workload, 5, 2)
                self.assertEqual(first, again)
                other = cases_in_fresh_interpreter(workload, 6, 1)
                self.assertNotEqual(first, other)

    def test_corpus_size_and_rational_count(self):
        corpus = lattice.tree_corpus()
        self.assertEqual(len(corpus), lattice.CORPUS_SIZE)
        rational = sum(lattice.is_rational_laufer(e, ed) for e, ed in corpus)
        self.assertEqual(rational, lattice.CORPUS_RATIONAL)

    def test_every_drawable_case_has_a_reference(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                ref = workloads.load_reference(workload)
                keys = {c["key"] for c in workloads.reference_cases(workload)}
                self.assertEqual(keys, set(ref))
                self.assertTrue({c["key"] for c in workloads.cases(workload, 3)} <= keys)


def altered(value):
    if isinstance(value, bool):
        return not value
    if value is None:
        return ["1"]
    if isinstance(value, list):
        return [str(Fraction(value[0]) + 1)] + value[1:]
    return str(Fraction(value) + Fraction(1, 3))


class ReferenceCheck(unittest.TestCase):
    def test_altered_results_are_caught(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                op = cheapest_ops(workload, 1)[0]
                ref = workloads.load_reference(workload)
                rec = workloads.record(op, workloads.call(op))
                self.assertEqual(workloads.check(op, rec, ref, deep=True), [])
                for field, value in rec.items():
                    wrong = dict(rec)
                    wrong[field] = altered(value)
                    self.assertNotEqual(workloads.check(op, wrong, ref, deep=True), [], field)


class Tracing(unittest.TestCase):
    def test_self_times_within_traced_wall(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                ops = cheapest_ops(workload, 3)
                tracer = spans.Tracer()
                tracer.install()
                try:
                    start = perf_counter_ns()
                    for op in ops:
                        workloads.call(op)
                    wall_s = (perf_counter_ns() - start) / 1e9
                finally:
                    tracer.uninstall()
                layers = tracer.metrics(budget=10**8)
                self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
                self.assertGreater(self_total, 0)
                self.assertLessEqual(self_total, wall_s)
                self.assertEqual(set(layers), {name for name, _ in spans.layer_metric_names()})

    def test_uninstall_restores_every_binding(self):
        from plumblat import chimin, graph

        before = (chimin.intersection_data, graph.intersection_data, graph.PlumbingGraph.__init__)
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(chimin.intersection_data, before[0])
        tracer.uninstall()
        after = (chimin.intersection_data, graph.intersection_data, graph.PlumbingGraph.__init__)
        self.assertEqual(before, after)

    def test_kernel_counts_from_call_arguments(self):
        from plumblat import kernels

        tracer = spans.Tracer()
        tracer.install()
        try:
            kernels.min_quadratic_box([[2, 0], [0, 2]], [0, 0], (0, -3), (100, 96))
        finally:
            tracer.uninstall()
        layers = tracer.metrics(budget=10**8)
        self.assertEqual(layers["kernels.box_points"], 101 * 100)
        self.assertEqual(layers["kernels.scan_iters"], 101)
        self.assertEqual(layers["kernels.min_quadratic_box.calls"], 1)


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 201))
        self.assertEqual(run.percentile(values, 99), 198)
        self.assertEqual(run.percentile(values, 50), 100)
        self.assertEqual(run.percentile([7.0], 99), 7.0)


if __name__ == "__main__":
    unittest.main()
