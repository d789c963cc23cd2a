"""Pin the reference outputs the benchmark's checks compare against.

    python3 bench/capture_reference.py

Run from the root of a checkout of the commit whose outputs define
"correct".  Runs one untraced operation of every variant of
verify-disk-n128 and flow-coupled-n64 and writes bench/reference.json.
flow-heat-n64 is checked against invariants only and needs no reference.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    root = os.getcwd()
    reference = {wl.VERIFY: {}, wl.COUPLED: {}}
    for workload in reference:
        for variant in range(wl.VARIANTS):
            harness = run.Harness(root, workload, variant)
            op = harness.operation(False, deadline=time.monotonic() + run.HARD_LIMIT_S,
                                   check=False)
            if op["failures"] or op["exit_code"] != 0:
                print(f"{workload} variant {variant} failed: {op['failures']}", file=sys.stderr)
                return 1
            if workload == wl.VERIFY:
                with open(os.path.join(harness.workdir, "verify_report.json"),
                          encoding="utf-8") as fh:
                    report = json.load(fh)
                if not report["pass"]:
                    print(f"{workload} variant {variant}: verify verdict is fail",
                          file=sys.stderr)
                    return 1
                reference[workload][str(variant)] = checks.verify_records(report)
            else:
                out = op["outputs"]
                reference[workload][str(variant)] = {
                    "energy": out["energy"], "kernel_ratio": out["kernel_ratio"],
                    "residual_tol": wl.COUPLED_SOLVER["residual_tol"],
                    "iterations": out["iterations"], "termination": out["termination"]}
            print(f"{workload} variant {variant}: wall {op['wall_s']:.2f} s", flush=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
