"""The verify verdict against mutants: one table of (mutant, scenario,
what must fail).

A mutant is one ``src/`` function swapped for a wrong one in every module
that binds it, or one input the verdict ought to reject.  Each row runs
``dhm verify`` in process and collects what failed: the ids of the failing
records, or the code of the field file error that refused the input.  A
row is killed when everything it names is among them.  Known survivors are
strict xfails naming the ROADMAP item that would kill them, so the change
that closes the item flips them; such a row names the record that item
would add.  The table only reads the report: it adds no record to it.
"""

import json
import re
import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic import cli, verify
from diracharmonic.charts import bandlimited_field
from diracharmonic.fields import clifford_frame_contract, curvature_term, project_spinor, tension
from diracharmonic.solutions import twistor_pushforward
from diracharmonic.spinors import FRAME, clifford_mul, flat_dirac

DISK48 = "[chart]\ntopology = disk\nn = 48\n\n[scenario]\nkind = twistor_pushforward\n"
# The same pair with both spinor halves nonzero: under DISK48's default
# psi0 = (1, 0) the top half f^i of every psi^i is exactly 0.
DISK48_PSI1 = DISK48 + "psi1 = 0.2,-0.1j\n"
PERTURBED = "[chart]\nn = 32\nside = {side}\n\n[scenario]\nkind = perturbed_constant\n"


def _everywhere(monkeypatch, real, mutant):
    """Bind ``mutant`` wherever a package module binds ``real``."""
    for name, mod in list(sys.modules.items()):
        if name == "diracharmonic" or name.startswith("diracharmonic."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, mutant)


def _scaled(real, factor):
    def mutant(*args, **kwargs):
        out = real(*args, **kwargs)
        out *= factor
        return out
    return lambda monkeypatch: _everywhere(monkeypatch, real, mutant)


def _flat_dirac_of(form):
    """``form(field, chart)`` with ``flat_dirac``'s signature, bound everywhere."""
    def mutant(field, chart, out=None, work=None):
        d = form(field, chart)
        if out is None:
            return d
        out[...] = d
        return out
    return lambda monkeypatch: _everywhere(monkeypatch, flat_dirac, mutant)


def _e2_sign_flipped(field, chart):
    """e1 . D_x - e2 . D_y: the flat Dirac with its e2 term's sign flipped."""
    return (clifford_mul(FRAME[0], chart.derivative(field, "x"))
            - clifford_mul(FRAME[1], chart.derivative(field, "y")))


def _e2_symmetric(field, chart):
    """e1 . D_x + [[0, 1], [1, 0]] D_y: e2 replaced by a real symmetric
    matrix, which is not skew-adjoint, so D is not self-adjoint."""
    return (clifford_mul(FRAME[0], chart.derivative(field, "x"))
            + chart.derivative(field, "y")[..., ::-1])


def _bottom_sign_flipped(v, s):
    """(w g, +conj(w) f): a Hermitian Clifford action, whose square is
    +|v|^2 and which is not skew-adjoint."""
    out = clifford_mul(v, s)
    out[..., 1] *= -1.0
    return out


def _bottom_unconjugated(dphi, psi_values, out=None, work=None):
    """sigma = (sum_i w^i g^i, -sum_i w^i f^i): ``clifford_frame_contract``
    with its bottom sum's conjugate dropped."""
    w = dphi[..., 0, :] + 1j * dphi[..., 1, :]
    sigma = np.stack([(w * psi_values[..., 1]).sum(axis=-1),
                      -(w * psi_values[..., 0]).sum(axis=-1)], axis=-1)
    if out is None:
        return sigma
    out[...] = sigma
    return out


def _pushforward_plus(extra):
    """``twistor_pushforward`` with ``extra(phi)`` added to its spinor
    values, bound everywhere."""
    def mutant(phi, psi0, psi1):
        psi = twistor_pushforward(phi, psi0, psi1)
        return dh.TwistedSpinorField(psi.chart, psi.target, psi.values + extra(phi))
    return lambda monkeypatch: _everywhere(monkeypatch, twistor_pushforward, mutant)


def _normal_1e9(phi):
    """1e-9 phi (x) (1, 0): normal to S^2, under TANGENCY_TOL."""
    return 1e-9 * phi.values[..., None] * np.array([1.0, 0.0])


def _tangent_noise(phi):
    """0.01 times a projected smooth random spinor: tangent, not critical."""
    rng = np.random.default_rng(3)
    noise = (bandlimited_field(phi.chart, rng, components=(3, 2), kmax=2)
             + 1j * bandlimited_field(phi.chart, rng, components=(3, 2), kmax=2))
    return 0.01 * project_spinor(phi, noise).values


# -- scenarios: each writes its input under tmp_path and returns the verify argv ---

def _config(text):
    def argv(tmp_path):
        (tmp_path / "case.cfg").write_text(text)
        return ["--config", str(tmp_path / "case.cfg")]
    return argv


def _disk48_map_scaled_off_the_sphere(tmp_path):
    """The exact disk pair at n = 48 with every map value times 1 + 2e-9
    under a recomputed CRC: 4e-9 off S^2, inside the reader's 1e-8 sphere
    guess and 40 times ON_MANIFOLD_TOL."""
    (tmp_path / "disk.cfg").write_text(DISK48)
    assert cli.main(["exact", "--config", str(tmp_path / "disk.cfg"),
                     "--out", str(tmp_path / "exact")]) == 0
    phi = dh.read_field(tmp_path / "exact" / "phi.dhm")
    dh.write_field(tmp_path / "phi.dhm", dh.MapField(phi.chart, phi.target,
                                                     phi.values * (1.0 + 2e-9)))
    return ["--phi", str(tmp_path / "phi.dhm"), "--psi", str(tmp_path / "exact" / "psi.dhm")]


def _constant_map_doubler_pair(tmp_path):
    """The constant map (0, 0, 1) on the n = 32 torus with the tangent
    spinor e_x (x) (1, 0) + (-1)^i_x e_y (x) (0, 1): the centred stencils
    read the alternating part as 0, so every derivative of it vanishes."""
    chart = dh.DomainChart.torus(32)
    phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
    vals = np.zeros(chart.shape + (3, 2), dtype=complex)
    vals[..., 0, 0] = 1.0
    vals[..., 1, 1] = (-1.0) ** np.arange(chart.n)  # axis 1 is x
    dh.write_field(tmp_path / "phi.dhm", phi)
    dh.write_field(tmp_path / "psi.dhm", dh.TwistedSpinorField(chart, phi.target, vals))
    return ["--phi", str(tmp_path / "phi.dhm"), "--psi", str(tmp_path / "psi.dhm")]


class Mutant(NamedTuple):
    id: str
    scenario: Callable                  # tmp_path -> verify argv
    must_fail: tuple                    # record ids, or a field file error code
    patch: Callable | None = None       # monkeypatch -> None, installs the mutant
    survives: str = ""                  # why no record kills it yet


_ITEM13 = ("no record compares the coupling with the first variation of the action "
           "(ROADMAP item 13)")
MUTANTS = [
    Mutant("flat_dirac_e2_sign", _config(DISK48),
           ("dirac_frame_vs_cauchy_riemann", "twistor_family", "weitzenboeck",
            "spinor_equation", "normal_splitting", "bochner", "conformal_invariance"),
           patch=_flat_dirac_of(_e2_sign_flipped)),
    Mutant("flat_dirac_e2_symmetric", _config(DISK48),
           ("dirac_self_adjoint", "dirac_frame_vs_cauchy_riemann", "twistor_family",
            "weitzenboeck", "spinor_equation", "normal_splitting", "bochner",
            "conformal_invariance"),
           patch=_flat_dirac_of(_e2_symmetric)),
    Mutant("clifford_mul_bottom_sign", _config(DISK48),
           ("clifford_relations", "clifford_skew_adjoint", "twistor_family", "weitzenboeck"),
           patch=lambda mp: _everywhere(mp, clifford_mul, _bottom_sign_flipped)),
    # Admitted by check_pair, since the normal part is under TANGENCY_TOL.
    Mutant("pushforward_normal_1e-9", _config(DISK48),
           ("pushforward_tangency", "curvature_term_annihilation", "action_reduces_to_dirichlet"),
           patch=_pushforward_plus(_normal_1e9)),
    Mutant("pushforward_tangent_noise", _config(DISK48),
           ("em_symmetry", *(f"pohozaev_r{r}" for r in verify.POHOZAEV_RADII),
            "action_reduces_to_dirichlet", "curvature_term_annihilation", "em_divergence",
            "hopf_holomorphic", "map_equation", "spinor_equation", "bochner"),
           patch=_pushforward_plus(_tangent_noise)),
    # The coupling vanishes on every exact family, so scaling it changes no defect.
    Mutant("curvature_term_negated", _config(DISK48), ("first_variation",),
           patch=_scaled(curvature_term, -1.0), survives=_ITEM13),
    Mutant("curvature_term_doubled", _config(DISK48), ("first_variation",),
           patch=_scaled(curvature_term, 2.0), survives=_ITEM13),
    Mutant("curvature_term_zeroed", _config(DISK48), ("first_variation",),
           patch=_scaled(curvature_term, 0.0), survives=_ITEM13),
    # Only where f^i is nonzero does the dropped conjugate move sigma.
    Mutant("clifford_frame_contract_bottom_unconjugated", _config(DISK48_PSI1),
           ("curvature_term_annihilation", "map_equation", "normal_splitting"),
           patch=lambda mp: _everywhere(mp, clifford_frame_contract, _bottom_unconjugated)),
    Mutant("tension_negated", _config(DISK48), ("first_variation",),
           patch=_scaled(tension, -1.0),
           survives="the map residual's size does not see the sign of the tension; the "
                    "first variation of one discrete energy would (ROADMAP items 12 and 13)"),
    Mutant("constant_map_doubler_pair", _constant_map_doubler_pair, ("spinor_resolution",),
           survives="no record measures the spinor's lattice-doubler power "
                    "(ROADMAP item 15)"),
    Mutant("negative_control_side_1", _config(PERTURBED.format(side=1)),
           ("map_equation", "em_divergence", "hopf_holomorphic")),
    Mutant("negative_control_side_1e6", _config(PERTURBED.format(side="1e6")),
           ("map_equation",),
           survives="defect / field_scale carries a unit of length, so at side 1e6 the "
                    "defects fall below NEAR_ZERO (ROADMAP item 2)"),
    Mutant("off_target_map_file", _disk48_map_scaled_off_the_sphere, ("off_target",)),
]


def _failed(argv, tmp_path, capsys) -> set:
    """What ``dhm verify`` failed on: failing record ids, or the field
    file error code; empty when it passed."""
    out = tmp_path / "out"
    code = cli.main(["verify", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    if code == 1:
        return set(re.findall(r"field file error \[(\w+)\]", err))
    assert code in (0, 2), f"exit {code}\n{err}"
    report = json.loads((out / "verify_report.json").read_text())
    assert report["pass"] == (code == 0)
    return {rec["id"] for rec in report["identities"] if not rec["pass"]}


@pytest.mark.parametrize("mutant", [
    pytest.param(m, id=m.id, marks=[pytest.mark.xfail(reason=m.survives, strict=True,
                                                      raises=AssertionError)]
                 if m.survives else [])
    for m in MUTANTS])
def test_verdict_kills_the_mutant(mutant, tmp_path, capsys, monkeypatch):
    argv = mutant.scenario(tmp_path)
    if mutant.patch is not None:
        mutant.patch(monkeypatch)
    failed = _failed(argv, tmp_path, capsys)
    missed = set(mutant.must_fail) - failed
    assert not missed, f"survives: {sorted(missed)} pass (failed: {sorted(failed)})"


@pytest.mark.parametrize("mutant", [m for m in MUTANTS if m.survives], ids=lambda m: m.id)
def test_a_survivor_fails_no_record(mutant, tmp_path, capsys, monkeypatch):
    """A survivor's xfail is measured, not only owed to a missing record:
    no record of today's report fails on it."""
    argv = mutant.scenario(tmp_path)
    if mutant.patch is not None:
        mutant.patch(monkeypatch)
    assert _failed(argv, tmp_path, capsys) == set()


def test_every_record_has_a_kill():
    """Each record of the report fails on some row that is not a survivor."""
    killed = {rid for m in MUTANTS if not m.survives for rid in m.must_fail}
    assert {row.id for row in verify._ROWS} - killed == set()


def test_the_unmutated_scenarios_pass(tmp_path, capsys):
    """The disk scenarios the src mutants run on pass as they stand, so a
    kill is the mutant's doing."""
    for i, text in enumerate((DISK48, DISK48_PSI1)):
        work = tmp_path / str(i)
        work.mkdir()
        assert _failed(_config(text)(work), work, capsys) == set(), text
