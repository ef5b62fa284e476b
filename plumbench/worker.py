"""One benchmark pass, run by ``run.py`` in a fresh interpreter.

    python3 plumbench/worker.py <workload> <seed> <traced 0|1>

A fresh interpreter starts with empty plumblat caches, as every CLI call
does.  The pass times the import and input generation (set-up), then calls
every operation once, closed loop from one thread, timing each call.  With
tracing on, the per-layer spans are installed after set-up and removed
before the results are checked, so checking adds no spans.  The pass
prints one JSON object on its last line of standard output.
"""

import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Input generation is repeated and its median taken; the import can be
# timed only once per interpreter.
SETUP_REPEATS = 3


def main(workload, seed, traced):
    import workloads

    start = perf_counter()
    sys.path.insert(0, SRC)
    import plumblat  # noqa: F401
    from plumblat import chimin, kernels

    import_s = perf_counter() - start
    builds = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        ops = workloads.build(workloads.cases(workload, seed))
        builds.append(perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    gc.collect()
    gc.freeze()
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    latencies_ms, results, errors = [], [], []
    loop_start = perf_counter_ns()
    for op in ops:
        t0 = perf_counter_ns()
        try:
            result = workloads.call(op)
        except Exception as exc:  # counted as a failed op, run continues
            results.append(None)
            errors.append(f"{op.case['key']}: {type(exc).__name__}: {exc}")
            if len(errors) == 1:
                traceback.print_exc()
            continue
        latencies_ms.append((perf_counter_ns() - t0) / 1e6)
        results.append(result)
    wall_s = (perf_counter_ns() - loop_start) / 1e9
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(chimin.DEFAULT_BUDGET)

    ref = workloads.load_reference(workload)
    deep = workloads.deep_sample(seed, len(ops)) if workload == "rational_sweep" else set()
    failed = 0
    rational = 0
    for i, (op, result) in enumerate(zip(ops, results)):
        if result is None:
            failed += 1
            continue
        rec = workloads.record(op, result)
        rational += rec.get("rational", False)
        bad = workloads.check(op, rec, ref, i in deep)
        if bad:
            failed += 1
            errors.extend(bad)
    invariants = []
    if workload == "rational_sweep" and failed == 0:
        import lattice

        if rational != lattice.CORPUS_RATIONAL:
            invariants.append(f"{rational} rational trees, expected {lattice.CORPUS_RATIONAL}")

    print(json.dumps({
        "workload": workload,
        "seed": seed,
        "traced": bool(traced),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_ms": latencies_ms,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "errors": (errors + invariants)[:20],
        "invariants_ok": not invariants,
        "backend": kernels.backend_name(),
        "python": platform.python_version(),
        "layers": layers,
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
