"""Write the benchmark's reference results from the library as it stands.

Every case that some seed can draw is computed once and its exact result
stored in ``reference/<workload>.json``.  Run it only when a change is
meant to alter results, from the repository root:

    python3 plumbench/make_reference.py [workload ...]
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main(names):
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        start = time.perf_counter()
        ref = {}
        for op in workloads.build(workloads.reference_cases(workload)):
            rec = workloads.record(op, workloads.call(op))
            if op.case["kind"] == "is_rational":
                rec["certificates"] = workloads.certificate_digest(op.args[0])
            ref[op.case["key"]] = rec
        path = os.path.join(workloads.REFERENCE_DIR, f"{workload}.json")
        lines = [f"{json.dumps(k)}: {json.dumps(ref[k], sort_keys=True)}" for k in sorted(ref)]
        with open(path, "w") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"{workload}: {len(ref)} cases in {time.perf_counter() - start:.1f} s -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
