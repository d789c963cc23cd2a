"""Output checks, one function per workload.  Each returns a list of
failure messages; an empty list means the operation's output is correct.

References live in bench/reference.json, pinned by
bench/capture_reference.py at the commit that introduced the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
import os

# verify: |defect - reference| <= VERIFY_RTOL |reference| + VERIFY_ATOL.
# The floor sits below the report's machine-level thresholds (1e-12, and
# 1e-13 for the flat Dirac forms), so defects at round-off may move by
# round-off and nothing more.  The relative tolerance leaves room for the
# cancellation in O(h^2) defects assembled from O(h^-2) stencil terms; a
# separable bandlimited_field plus a reordered derivative and tangent
# projection moved no defect by more than 1e-11 relative.
VERIFY_RTOL = 1e-6
VERIFY_ATOL = 1e-13

# flow-coupled-n64: the final energy changes by ~1.6e-7 (relative) between
# the reference stop (residual 8.7e-3) and the converged limit, so 1e-6
# admits any run that stops at the stated residual on the same spinor.
COUPLED_ENERGY_RTOL = 1e-6
# The kernel ratio |B psi| / |psi| after the last refresh may grow by this
# factor over the reference (1.4e-9) and still be ~10^6 below the smallest
# non-kernel singular value of B (~2 pi).
COUPLED_KERNEL_FACTOR = 1e3
SPHERE_TOL = 1e-10      # fields.ON_MANIFOLD_TOL
TANGENCY_TOL = 1e-8     # fields.TANGENCY_TOL

# flow-heat-n64: the acceptance-09 monotonicity gate.
ENERGY_INCREASE_TOL = 1e-12

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, ref, rtol, atol) -> bool:
    return (value is not None and ref is not None
            and abs(value - ref) <= rtol * abs(ref) + atol)


def _close_lists(label, values, refs, failures):
    if len(values) != len(refs):
        failures.append(f"{label}: {len(values)} values, reference has {len(refs)}")
        return
    for i, (v, r) in enumerate(zip(values, refs)):
        if not _close(v, r, VERIFY_RTOL, VERIFY_ATOL):
            failures.append(f"{label}[{i}] = {v!r}, reference {r!r}")


def verify_records(report: dict) -> list[dict]:
    """The parts of a verify report that the reference pins."""
    out = []
    for rec in report["identities"]:
        row = {"id": rec["id"], "pass": rec["pass"], "defects": rec["defects"]}
        for conv, data in sorted(rec.get("conventions", {}).items()):
            row[f"{conv}.action"] = data["action"]
            row[f"{conv}.energy"] = data["energy"]
        out.append(row)
    return out


def check_verify(exit_code: int, workdir: str, ref: list[dict]) -> list[str]:
    failures = []
    if exit_code != 0:
        failures.append(f"dhm verify exited {exit_code}, expected 0")
    path = os.path.join(workdir, "verify_report.json")
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return failures + [f"cannot read verify_report.json: {exc}"]
    if report.get("pass") is not True:
        failures.append("report verdict is not pass")
    rows = verify_records(report)
    ids, ref_ids = [r["id"] for r in rows], [r["id"] for r in ref]
    if ids != ref_ids:
        missing = [i for i in ref_ids if i not in ids]
        extra = [i for i in ids if i not in ref_ids]
        return failures + [f"record ids differ from the reference: missing {missing}, "
                           f"extra {extra}, order {'same' if not missing + extra else 'differs'}"]
    for row, want in zip(rows, ref):
        for key, ref_value in want.items():
            if key == "id":
                continue
            if key == "pass":
                if row["pass"] is not ref_value:
                    failures.append(f"{row['id']}: pass = {row['pass']}, reference {ref_value}")
                continue
            _close_lists(f"{row['id']}.{key}", row.get(key, []), ref_value, failures)
    return failures


def check_coupled(exit_code: int, outputs: dict, ref: dict) -> list[str]:
    failures = []
    if exit_code != 0:
        failures.append(f"operation exited {exit_code}, expected 0")
    if outputs.get("termination") != "converged":
        failures.append(f"termination = {outputs.get('termination')!r}, expected 'converged'")
    residual = outputs.get("combined_residual", math.inf)
    if not residual <= ref["residual_tol"]:
        failures.append(f"final combined residual {residual!r} > {ref['residual_tol']!r}")
    if not _close(outputs.get("energy"), ref["energy"], COUPLED_ENERGY_RTOL, 0.0):
        failures.append(f"final energy {outputs.get('energy')!r}, reference {ref['energy']!r} "
                        f"(rtol {COUPLED_ENERGY_RTOL})")
    ratio = outputs.get("kernel_ratio", math.inf)
    if not 0.0 < ratio <= COUPLED_KERNEL_FACTOR * ref["kernel_ratio"]:
        failures.append(f"kernel ratio {ratio!r} outside (0, {COUPLED_KERNEL_FACTOR:g} x "
                        f"reference {ref['kernel_ratio']!r}]")
    if not outputs.get("sphere_defect", math.inf) <= SPHERE_TOL:
        failures.append(f"map leaves the sphere by {outputs.get('sphere_defect')!r}")
    if not outputs.get("tangency_defect", math.inf) <= TANGENCY_TOL:
        failures.append(f"spinor tangency defect {outputs.get('tangency_defect')!r}")
    return failures


def check_heat(exit_code: int, workdir: str, residual_tol: float) -> list[str]:
    failures = []
    if exit_code != 0:
        failures.append(f"dhm flow exited {exit_code}, expected 0")
    try:
        with open(os.path.join(workdir, "flow_summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(os.path.join(workdir, "flow_trace.csv"), encoding="utf-8", newline="") as fh:
            energies = [float(row["energy"]) for row in csv.DictReader(fh)]
    except (OSError, ValueError, KeyError) as exc:
        return failures + [f"cannot read flow outputs: {exc}"]
    if summary.get("termination") != "converged":
        failures.append(f"flow_summary termination = {summary.get('termination')!r}")
    final = summary.get("final_combined_residual")
    if final is None or not final <= residual_tol:
        failures.append(f"final combined residual {final!r} > {residual_tol!r}")
    if not energies:
        failures.append("flow_trace.csv has no rows")
    for i, (a, b) in enumerate(zip(energies, energies[1:])):
        if b - a > ENERGY_INCREASE_TOL:
            failures.append(f"energy rises from {a!r} to {b!r} at trace row {i + 1}")
            break
    from diracharmonic.fieldio import FieldFileError, read_field
    try:
        phi = read_field(os.path.join(workdir, "phi_final.dhm"))
        read_field(os.path.join(workdir, "psi_final.dhm"), chart=phi.chart)
    except (OSError, ValueError, FieldFileError) as exc:
        return failures + [f"field file does not read back: {exc}"]
    if phi.target.kind != "sphere":
        failures.append("phi_final.dhm does not hold a sphere-valued map")
    return failures
