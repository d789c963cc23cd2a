"""Show that every output check passes on real output and fails on wrong output.

    python3 bench/check_demo.py [--workload NAME ...]

Run from the root of a checkout.  For each workload (default variant)
this runs one operation, confirms its output passes, then feeds the check
deliberately wrong outputs or references, one fault at a time, and
confirms each is reported.  Finally it runs the harness on
verify-disk-n128 against a perturbed reference and confirms the operation
counts as failed.  Exits 1 if a genuine output fails or a fault goes
unnoticed.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _verify_faults(workdir, ref):
    def flipped_pass(rep):
        rep["identities"][5]["pass"] = False
        rep["pass"] = False

    def dropped_record(rep):
        del rep["identities"][-1]

    def moved_defect(rep):
        rep["identities"][6]["defects"][0] *= 1.0 + 1e-5

    bad_ref = copy.deepcopy(ref)
    bad_ref[-1]["defects"][1] *= 1.0 + 1e-5
    return [
        ("exit status 2", 2, None, ref),
        ("record verdict flipped to fail", 0, flipped_pass, ref),
        ("last record missing", 0, dropped_record, ref),
        ("map_equation defect moved by 1e-5 relative", 0, moved_defect, ref),
        ("reference conformal defect perturbed by 1e-5 relative", 0, None, bad_ref),
    ]


def _check_verify_fault(workdir, ref, fault):
    label, code, edit, fault_ref = fault
    scratch = workdir + "-fault"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(workdir, scratch)
    if edit is not None:
        _edit_json(os.path.join(scratch, "verify_report.json"), edit)
    return checks.check_verify(code, scratch, fault_ref)


def _coupled_faults(outputs, ref):
    def with_out(**kw):
        return {**outputs, **kw}

    return [
        ("termination max_iters", with_out(termination="max_iters"), ref),
        ("final residual above tolerance", with_out(combined_residual=0.02), ref),
        ("final energy moved by 1e-5 relative",
         with_out(energy=outputs["energy"] * (1 + 1e-5)), ref),
        ("reference energy perturbed by 1e-5 relative", outputs,
         {**ref, "energy": ref["energy"] * (1 - 1e-5)}),
        ("kernel ratio 1e4 x reference",
         with_out(kernel_ratio=1e4 * ref["kernel_ratio"]), ref),
        ("map off the sphere", with_out(sphere_defect=1e-6), ref),
        ("spinor not tangent", with_out(tangency_defect=1e-4), ref),
    ]


def _heat_energy_rises(scratch):
    path = os.path.join(scratch, "flow_trace.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cols = lines[10].split(",")
    cols[2] = repr(float(lines[9].split(",")[2]) * 1.001)
    lines[10] = ",".join(cols)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _heat_flip_payload_byte(scratch):
    with open(os.path.join(scratch, "psi_final.dhm"), "r+b") as fh:
        fh.seek(-5, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-5, os.SEEK_END)
        fh.write(bytes([byte[0] ^ 0xFF]))


# (label, exit status, edit applied to a copy of the work directory)
HEAT_FAULTS = [
    ("exit status 3 (diverged)", 3, None),
    ("summary says max_iters", 0, lambda d: _edit_json(
        os.path.join(d, "flow_summary.json"), lambda s: s.update(termination="max_iters"))),
    ("energy column rises once", 0, _heat_energy_rises),
    ("psi_final.dhm payload byte flipped", 0, _heat_flip_payload_byte),
    ("phi_final.dhm missing", 0, lambda d: os.remove(os.path.join(d, "phi_final.dhm"))),
]


def _heat_fault(workdir, tol, fault):
    _label, code, edit = fault
    scratch = workdir + "-fault"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(workdir, scratch)
    if edit is not None:
        edit(scratch)
    return checks.check_heat(code, scratch, tol)


def demo(root, workload) -> bool:
    harness = run.Harness(root, workload, 0)
    harness.warm_up()
    op = harness.operation(False, deadline=time.monotonic() + run.HARD_LIMIT_S, check=False)
    ok = True

    def report(label, failures, expect_fail):
        nonlocal ok
        caught = bool(failures)
        good = caught == expect_fail
        ok = ok and good
        verdict = ("caught" if caught else "missed") if expect_fail else (
            "passes" if not caught else "FAILS")
        first = f": {failures[0]}" if failures else ""
        print(f"  [{'ok' if good else 'BAD'}] {label}: {verdict}{first}")

    print(f"{workload} (variant 0, wall {op.get('wall_s', float('nan')):.2f} s)")
    if op["failures"]:
        report("operation ran", op["failures"], False)
        return False
    if workload == wl.VERIFY:
        ref = checks.load_reference()[wl.VERIFY]["0"]
        report("genuine output", checks.check_verify(0, harness.workdir, ref), False)
        for fault in _verify_faults(harness.workdir, ref):
            report(fault[0], _check_verify_fault(harness.workdir, ref, fault), True)
    elif workload == wl.COUPLED:
        ref = checks.load_reference()[wl.COUPLED]["0"]
        outputs = op["outputs"]
        report("genuine output", checks.check_coupled(0, outputs, ref), False)
        for label, out, fault_ref in _coupled_faults(outputs, ref):
            report(label, checks.check_coupled(0, out, fault_ref), True)
    else:
        tol = wl.heat_residual_tol(0)
        report("genuine output", checks.check_heat(0, harness.workdir, tol), False)
        for fault in HEAT_FAULTS:
            report(fault[0], _heat_fault(harness.workdir, tol, fault), True)
    return ok


def harness_counts_failure(root) -> bool:
    """Run the harness itself against a perturbed reference: every operation
    must count as failed and the run as not correct."""
    real = checks.load_reference

    def perturbed():
        ref = real()
        ref[wl.VERIFY]["0"][-1]["defects"][0] *= 1.0 + 1e-5
        return ref

    checks.load_reference = perturbed
    try:
        result = run.run(argparse.Namespace(workload=wl.VERIFY, seed=0, seconds=0, trace=0))
    finally:
        checks.load_reference = real
    ok = (not result["correct"] and result["attempted"] >= 1
          and result["failed"] == result["attempted"])
    print(f"harness with a perturbed verify reference: {json.dumps(result)}")
    print(f"  [{'ok' if ok else 'BAD'}] failed check counted as a failed operation")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="demonstrate the benchmark's output checks")
    ap.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    args = ap.parse_args(argv)
    root = os.getcwd()
    os.environ.update(run.THREAD_PINS)
    sys.path.insert(0, os.path.join(root, "src"))
    results = [demo(root, w) for w in (args.workload or wl.WORKLOADS)]
    if not args.workload or wl.VERIFY in args.workload:
        results.append(harness_counts_failure(root))
    print("all checks behave" if all(results) else "SOME CHECKS MISBEHAVE")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
