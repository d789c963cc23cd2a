"""The verify rules at their boundaries, the bochner row's precondition,
the identity calls one verification makes, and the fixed grid of the
self-adjointness row.

``_judge`` is the only code that turns measured defects into a verdict,
so each rule is tested here directly at its edges; the call counts pin
the work the identity table shares between rows."""

import json
import sys
from collections import Counter

import pytest

import diracharmonic as dh
from diracharmonic import cli, fields, identities, verify
from diracharmonic.verify import COND_BUDGET, NEAR_ZERO, UNCOND_BUDGET, _judge

from conftest import random_sphere_pair

H2 = {"rel_h2": COND_BUDGET}
WAIVED = "ratio window waived below 1e-10"
POHOZAEV = {"abs": 1e-2, "improving": True}
CONFORMAL = {"ratio_window": [3.4, 4.6], "unique_winner": True}
SMALL = 2.0**-7   # below the Pohozaev tolerance; 0.75 times it is exact


@pytest.mark.parametrize("budget", [COND_BUDGET, UNCOND_BUDGET])
def test_rel_h2_budget_is_c_h2_on_the_first_grid(budget):
    h = 0.5
    edge = budget * h**2
    assert _judge({"rel_h2": budget}, [edge, edge / 4], h) == (True, 4.0, "")
    above = edge * (1 + 1e-12)
    assert _judge({"rel_h2": budget}, [above, above / 4], h) == (False, 4.0, "")


def test_near_zero_waives_the_ratio_at_1e_10():
    assert NEAR_ZERO == 1e-10
    assert _judge(H2, [1e-10, 1e-10], 1.0) == (True, 1.0, WAIVED)
    assert _judge(H2, [2e-10, 2e-10], 1.0) == (False, 1.0, "")
    # The waiver does not lift the budget.
    assert _judge(H2, [1e-10, 1e-10], 1e-6) == (False, 1.0, WAIVED)


@pytest.mark.parametrize("coarse,passed", [
    (3.4, True), (4.6, True), (3.39, False), (4.61, False), (4.0, True)])
def test_ratio_window_edges(coarse, passed):
    ok, ratio, note = _judge({"rel_h2": 10.0}, [coarse, 1.0], 1.0)
    assert (ok, ratio, note) == (passed, coarse, "")


def test_ratio_reads_the_first_two_grids_only():
    assert _judge(H2, [4.0, 1.0, 100.0], 1.0) == (True, 4.0, "")
    assert _judge(H2, [4.0, 2.0, 0.5], 1.0) == (False, 2.0, "")


@pytest.mark.parametrize("defects", [[0.5], [0.5, 0.0]])
def test_one_grid_or_a_zero_fine_defect_waives_the_ratio(defects):
    assert _judge(H2, defects, 1.0) == (True, None, "")
    assert _judge(H2, defects, 0.01) == (False, None, "")


def test_pohozaev_must_improve_by_0_75():
    assert _judge(POHOZAEV, [SMALL, 0.75 * SMALL], 0.1) == (True, None, "")
    assert _judge(POHOZAEV, [SMALL, 0.76 * SMALL], 0.1) == (False, None, "")
    assert _judge(POHOZAEV, [SMALL], 0.1) == (True, None, "")
    assert _judge(POHOZAEV, [1e-10, 1e-10], 0.1) == (True, None, "")
    assert _judge(POHOZAEV, [2e-10, 2e-10], 0.1) == (False, None, "")
    assert _judge(POHOZAEV, [1e-2, 1e-3], 0.1) == (True, None, "")
    assert _judge(POHOZAEV, [1.01e-2, 1e-3], 0.1) == (False, None, "")


@pytest.mark.parametrize("threshold", [H2, POHOZAEV, {"abs": 1e-12}, {"rel": 1e-11}])
def test_empty_defects_fail(threshold):
    assert _judge(threshold, [], 0.1) == (False, None, "")


@pytest.mark.parametrize("key,tol", [("abs", 1e-12), ("abs", 1e-10), ("rel", 1e-11)])
def test_abs_and_rel_bound_every_defect(key, tol):
    assert _judge({key: tol}, [tol], 0.1) == (True, None, "")
    assert _judge({key: tol}, [tol * 1.001], 0.1) == (False, None, "")
    assert _judge({key: tol}, [tol / 10, tol * 2, tol / 10], 0.1) == (False, None, "")


def _conventions(inverse_fprime, fprime):
    return {name: {"action": list(action), "energy": list(energy)}
            for name, (action, energy) in (("inverse_fprime", inverse_fprime),
                                           ("fprime", fprime))}


SECOND = ([4e-6, 1e-6], [8e-6, 2e-6])   # both ratios 4
FLAT = ([4e-6, 4e-6], [8e-6, 2e-6])     # action ratio 1


@pytest.mark.parametrize("inverse_fprime,fprime,winners,note", [
    pytest.param(FLAT, FLAT, 0, "no unique convention", id="no_winner"),
    pytest.param(SECOND, FLAT, 1, "winner: inverse_fprime (psi scales by |f'|^(+1/2))",
                 id="one_winner"),
    pytest.param(FLAT, SECOND, 1, "winner: fprime (psi scales by |f'|^(-1/2))",
                 id="other_winner"),
    pytest.param(SECOND, SECOND, 2, "no unique convention", id="two_winners"),
    pytest.param(([4e-14, 1e-14], [8e-6, 2e-6]), FLAT, 0, "no unique convention",
                 id="winner_at_most_1e-13"),
])
def test_conformal_needs_exactly_one_second_order_convention(inverse_fprime, fprime,
                                                            winners, note):
    conventions = _conventions(inverse_fprime, fprime)
    passed, ratio, verdict = _judge(CONFORMAL, conventions, 0.1)
    assert (passed, ratio, verdict) == (winners == 1, None, note)
    assert sum(c["second_order"] for c in conventions.values()) == winners
    for entry in conventions.values():
        assert entry["ratios"] == [entry["action"][0] / entry["action"][1],
                                   entry["energy"][0] / entry["energy"][1]]


# The identity calls of one run_verification on the n = 48 disk twistor
# config: el_residual, em_defects and pohozaev_defect serve several rows,
# once per pair; flat_dirac runs once per grid, against the Cauchy-Riemann
# reference.
EXPECTED_CALLS = {
    "el_residual": 2, "em_defects": 2, "weitzenboeck_defect": 2, "bochner_defect": 2,
    "pohozaev_defect": 2, "conformal_invariance_defect": 2, "self_adjointness_defect": 20,
    "bandlimited_field": 110, "flat_dirac": 2, "field_scale": 2,
}
DISK_48 = ("[chart]\ntopology = disk\nn = 48\n\n[scenario]\nkind = twistor_pushforward\n"
           "rational_num = 0,1\npsi0 = 1,0\npsi1 = 0.2,-0.1j\n\n[output]\nseed = 7\n")


def test_verify_calls_each_identity_through_module_globals_once_per_pair(monkeypatch):
    counts = Counter()
    for name in EXPECTED_CALLS:
        original = getattr(verify, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    report = verify.run_verification(dh.parse_config(DISK_48))
    assert len(report["identities"]) == 20
    assert dict(counts) == EXPECTED_CALLS


def test_verify_takes_each_field_scale_once_per_pair(monkeypatch):
    # The bochner row reads the scale the suite holds; no module recomputes it.
    calls = []
    original = dh.field_scale

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("diracharmonic") and getattr(module, "field_scale", None) is original:
            monkeypatch.setattr(module, "field_scale", counted)
    verify.run_verification(dh.parse_config(DISK_48))
    assert len(calls) == 2


def test_verify_makes_56_dirac_evaluations_on_the_disk(monkeypatch):
    # action's and the identities'; the bochner row reads el_residual's instead.
    calls = []
    original = fields.dirac_along_map

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (fields, identities):
        monkeypatch.setattr(module, "dirac_along_map", counted)
    verify.run_verification(dh.parse_config(DISK_48))
    assert len(calls) == 56


# The Bochner identity holds only where D psi = 0: the row is judged only
# when the spinor equation's defect is at most BOCHNER_DIRAC_TOL on every
# grid.  On elliptic_pair at n = 32 that defect is 0.012613 on the first.
ELLIPTIC_32 = "[chart]\nn = 32\n\n[scenario]\nkind = elliptic_pair\n"


@pytest.mark.parametrize("tol,judged", [(0.0127, True), (0.0126, False)])
def test_bochner_is_judged_only_within_the_dirac_tolerance(monkeypatch, tol, judged):
    monkeypatch.setattr(verify, "BOCHNER_DIRAC_TOL", tol)
    report = verify.run_verification(dh.parse_config(ELLIPTIC_32))
    records = {r["id"]: r for r in report["identities"]}
    assert 0.0126 < max(records["spinor_equation"]["defects"]) < 0.0127
    bochner = records["bochner"]
    assert len(bochner["defects"]) == (2 if judged else 0)
    assert bochner["note"].startswith("precondition failed") is not judged
    if not judged:
        assert bochner["pass"] is False


def test_bochner_precondition_names_the_measured_residual():
    _, phi, psi = random_sphere_pair(48, seed=6)
    suite = verify._Suite([(phi, psi)], [48], 0, "stored_fields")
    sup, scale = suite.each(verify._el_norms)[0]["spinor_sup"], suite.scales[0]
    assert verify._bochner_precondition(suite) == (
        f"precondition failed: Dirac residual {sup:.3e} exceeds tolerance 1.0e-02 x scale "
        f"{scale:.3e}; the identity is only valid on solutions")


def test_a_value_error_inside_an_identity_is_no_failed_precondition(monkeypatch):
    def broken(*_args):
        raise ValueError("raised inside the identity")

    monkeypatch.setattr(verify, "bochner_defect", broken)
    cfg = dh.parse_config("[chart]\nn = 16\n\n[scenario]\nkind = constant_spinor\n")
    with pytest.raises(ValueError, match="raised inside the identity"):
        verify.run_verification(cfg)


# dirac_self_adjoint never reads the pair under test, so it runs on one
# fixed torus grid whatever n, the sweep or file mode set.
CI_DISK_48 = "[chart]\ntopology = disk\nn = 48\n\n[scenario]\nkind = twistor_pushforward\n"


def _scenario(text, *flags):
    def argv(tmp_path):
        (tmp_path / "case.cfg").write_text(text)
        return ["--config", str(tmp_path / "case.cfg"), *flags]
    return argv


def _ci_disk_48_files(tmp_path):
    (tmp_path / "disk.cfg").write_text(CI_DISK_48)
    assert cli.main(["exact", "--config", str(tmp_path / "disk.cfg"),
                     "--out", str(tmp_path / "exact")]) == 0
    return ["--phi", str(tmp_path / "exact" / "phi.dhm"),
            "--psi", str(tmp_path / "exact" / "psi.dhm")]


@pytest.mark.parametrize("argv", [
    pytest.param(_scenario("[chart]\nn = 16\n\n[scenario]\nkind = elliptic_pair\n"),
                 id="torus_n16"),
    pytest.param(_scenario(CI_DISK_48, "--resolution-sweep"), id="disk_n48_sweep"),
    pytest.param(_ci_disk_48_files, id="disk_n48_files"),
])
def test_self_adjoint_row_runs_on_its_fixed_grid(argv, tmp_path, monkeypatch, capsys):
    grids = []
    original = verify.self_adjointness_defect

    def recorded(phi, *args):
        grids.append(phi.chart.n)
        return original(phi, *args)

    monkeypatch.setattr(verify, "self_adjointness_defect", recorded)
    code = cli.main(["verify", *argv(tmp_path), "--out", str(tmp_path / "out")])
    assert code in (0, 2), capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    record = next(r for r in report["identities"] if r["id"] == "dirac_self_adjoint")
    assert record["grids"] == [verify.SELF_ADJOINT_GRID]
    assert grids == [verify.SELF_ADJOINT_GRID] * EXPECTED_CALLS["self_adjointness_defect"]
