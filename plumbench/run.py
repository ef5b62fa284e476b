"""plumblat benchmark: one workload, closed loop, one caller thread.

    python3 plumbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each pass runs ``worker.py`` in a fresh
interpreter, so plumblat's caches start empty as in a CLI call; passes
repeat, one at a time, while another fits in ``--seconds``.  The inputs
depend only on the workload and the seed.  Every result is checked
against ``reference/`` and the benchmark's own recomputation.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads:
  rational_sweep  is_rational on all 3533 corpus trees, seeded order: many
                  tiny Artin searches, dominated by lattice set-up.
  bigbox_floor    interval_floor_line_bundle on three boxes of 1.8M-14M
                  points, l' = -E*_v at a seeded v: dominated by the kernel.
  relh1_oracles   relgen_h1 with the generic oracle on 40 seeded corpus
                  cases plus one ZeroOracle reldom_check of 877,825 points:
                  the only path through relative and kernels.box_values.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "plumblat")

sys.path.insert(0, HERE)
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run must end within 180 s; passes get what is left of this.
RUN_LIMIT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def run_pass(workload, seed, traced, run_start):
    remaining = RUN_LIMIT_S - (time.perf_counter() - run_start)
    if remaining <= 0:
        raise RuntimeError("no time left for another pass")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), "1" if traced else "0"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=remaining,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def end_to_end(passes):
    """Each metric per pass, then the median over passes, so one slow pass
    moves no metric."""
    untraced = [p for p in passes if not p["traced"]]
    per_pass = {
        "wall_s": [p["wall_s"] for p in untraced],
        "op_p50_ms": [percentile(sorted(p["op_ms"]), 50) for p in untraced],
        "op_p99_ms": [percentile(sorted(p["op_ms"]), 99) for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        "setup_s": [p["setup_s"] for p in passes],
    }
    ops = len(untraced[0]["op_ms"])
    beyond = ops - -(-ops * 99 // 100)
    notes = {
        "op_p50_ms": f"{ops} ops per pass",
        "op_p99_ms": f"{ops} ops per pass, {beyond} beyond",
        "setup_s": "import + input generation",
    }
    return {
        name: (
            statistics.median(per_pass[name]),
            unit,
            f"median of {len(per_pass[name])} passes: "
            + " ".join(f"{v:.4g}" for v in per_pass[name])
            + (f"; {notes[name]}" if name in notes else ""),
        )
        for name, unit in END_TO_END
    }


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {}
    for name, unit in spans.layer_metric_names():
        out[name] = (statistics.median(p["layers"][name] for p in traced), unit, "")
    wall_traced = statistics.median(p["wall_s"] for p in traced)
    wall_plain = statistics.median(p["wall_s"] for p in untraced)
    out["trace_overhead_frac"] = (
        wall_traced / wall_plain - 1,
        "ratio",
        f"traced wall {wall_traced:.3f} s over untraced {wall_plain:.3f} s",
    )
    return out


def main():
    ap = argparse.ArgumentParser(description="plumblat benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"plumbench: no plumblat sources at {PACKAGE}", file=sys.stderr)
        return 2
    # Byte-compile once here so that no pass pays for it inside setup_s.
    compileall.compile_dir(PACKAGE, quiet=1)

    run_start = time.perf_counter()
    passes, durations = [], []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        started = time.perf_counter()
        try:
            passes.append(run_pass(args.workload, args.seed, traced, run_start))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"plumbench: pass {len(passes) + 1} failed: {exc}", file=sys.stderr)
            return 1
        durations.append(time.perf_counter() - started)
        need_traced = args.trace and len(passes) < 2
        elapsed = time.perf_counter() - run_start
        if not need_traced and elapsed + max(durations) > args.seconds:
            break

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and all(p["invariants_ok"] for p in passes)
    metrics = per_layer(passes) if args.trace else end_to_end(passes)

    first = passes[0]
    print(
        f"plumbench {args.workload} seed={args.seed} backend={first['backend']} "
        f"python={first['python']} passes={len(passes)} "
        f"traced={sum(p['traced'] for p in passes)}"
    )
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} {'ratio':<6} {failed}/{attempted} ops")
    for p in passes:
        for err in p["errors"]:
            print(f"  error: {err}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
