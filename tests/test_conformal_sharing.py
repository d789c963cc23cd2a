"""The conformal check's shared evaluation and the one Dirac operator
along the map: the same bits as the unshared evaluation and as the
residual that also builds the normal defect, with fewer Dirac
evaluations."""

import numpy as np
import pytest

import diracharmonic as dh
import diracharmonic.fields
from diracharmonic.verify import canonical_compact_pair

from conftest import conformal_oracle, disk_twistor_pair, moebius_similarity, random_sphere_pair

CONVENTIONS = ("inverse_fprime", "fprime")


def _verify_maps():
    """The two disk automorphisms of ``dhm verify`` plus a similarity."""
    return [dh.MoebiusMap.disk_automorphism(0.4),
            dh.MoebiusMap.disk_automorphism(0.25 + 0.2j, theta=0.7),
            moebius_similarity(0.8, 0.05)]


def _bits(check):
    return check.convention, check.action_defect.hex(), check.energy_defect.hex()


def _random_pair(target, n=24, seed=5):
    """A smooth map into the target and a tangent spinor along it, plus the
    raw (non-tangent) spinor array it was projected from."""
    chart = dh.DomainChart.torus(n)
    rng = np.random.default_rng(seed)
    K = target.ambient_dim
    base = np.zeros(chart.shape + (K,))
    base[..., -1] = 1.0
    dev = dh.bandlimited_field(chart, rng, components=(K,), kmax=3, amplitude=0.5)
    phi = dh.MapField(chart, target, target.project_point(base + dev))
    raw = (dh.bandlimited_field(chart, rng, components=(K, 2), kmax=2)
           + 1j * dh.bandlimited_field(chart, rng, components=(K, 2), kmax=2))
    return phi, dh.project_spinor(phi, raw), raw


@pytest.fixture(scope="module")
def compact_pair():
    return canonical_compact_pair(64)


def test_shared_table_has_the_bits_of_unshared_checks(compact_pair):
    phi, psi = compact_pair
    maps = _verify_maps()
    table = dh.conformal_checks(phi, psi, maps, CONVENTIONS)
    assert len(table) == len(maps)
    for f, row in zip(maps, table):
        assert [c.convention for c in row] == list(CONVENTIONS)
        for conv, check in zip(CONVENTIONS, row):
            assert _bits(check) == _bits(dh.conformal_invariance_defect(phi, psi, f, conv))
            assert _bits(check) == _bits(conformal_oracle(phi, psi, f, conv))


def test_shared_table_rejects_unknown_convention_before_any_work(compact_pair, monkeypatch):
    phi, psi = compact_pair

    def forbidden(*args, **kwargs):
        raise AssertionError("Dirac evaluated before the conventions were checked")

    monkeypatch.setattr(diracharmonic.fields, "flat_dirac", forbidden)
    with pytest.raises(ValueError, match="unknown lambda convention"):
        dh.conformal_checks(phi, psi, _verify_maps(), ("fprime", "sqrt"))


@pytest.mark.parametrize("target", [dh.Sphere(2), dh.Sphere(3), dh.Flat(3)],
                         ids=["sphere2", "sphere3", "flat3"])
def test_dirac_along_map_has_the_bits_of_el_residual(target):
    phi, psi, _ = _random_pair(target)
    full = dh.el_residual(phi, psi).spinor_residual
    lean = dh.dirac_along_map(phi, psi)
    assert lean.shape == full.shape and lean.dtype == full.dtype
    assert np.array_equal(np.ascontiguousarray(lean).view(np.uint8),
                          np.ascontiguousarray(full).view(np.uint8))


@pytest.mark.parametrize("target", [dh.Sphere(2), dh.Sphere(3)], ids=["sphere2", "sphere3"])
def test_check_pair_rejects_the_raw_spinor_naming_tangency(target):
    phi, psi, raw = _random_pair(target)
    dh.check_pair(phi, psi)
    with pytest.raises(dh.InadmissiblePair, match="violates tangency") as exc:
        dh.check_pair(phi, dh.TwistedSpinorField(phi.chart, target, raw))
    assert exc.value.code == "not_tangent"


@pytest.fixture
def counted_dirac(monkeypatch):
    """Count flat Dirac evaluations; fail on any normal-defect evaluation."""
    calls = []
    real = diracharmonic.fields.flat_dirac

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("normal defect built for a caller that discards it")

    monkeypatch.setattr(diracharmonic.fields, "flat_dirac", counting)
    monkeypatch.setattr(diracharmonic.fields, "clifford_frame_contract", forbidden)
    return calls


def test_two_maps_two_conventions_make_five_dirac_evaluations(compact_pair, counted_dirac):
    phi, psi = compact_pair
    dh.conformal_checks(phi, psi, _verify_maps()[:2], CONVENTIONS)
    # One for the pair itself, one per (map, convention) transformed pair.
    assert len(counted_dirac) == 5
    counted_dirac.clear()
    dh.conformal_invariance_defect(phi, psi, _verify_maps()[0])
    assert len(counted_dirac) == 2


def test_callers_that_discard_the_normal_defect_never_build_it(counted_dirac):
    _, phi, psi = disk_twistor_pair(48)
    dh.action(phi, psi)
    assert len(counted_dirac) == 1
    dh.weitzenboeck_defect(phi, psi)
    assert len(counted_dirac) == 3
    dh.bochner_defect(phi, psi, dh.field_scale(phi, psi))
    assert len(counted_dirac) == 4
    _, phi_r, psi_r = random_sphere_pair(24)
    dh.self_adjointness_defect(phi_r, psi_r, psi_r)
    assert len(counted_dirac) == 6


def test_two_maps_two_conventions_interpolate_once_per_field_and_map(compact_pair, monkeypatch):
    phi, psi = compact_pair
    calls = []
    real = dh.DomainChart.interp

    def counting(self, f, px, py):
        calls.append(np.shape(f)[2:])
        return real(self, f, px, py)

    monkeypatch.setattr(dh.DomainChart, "interp", counting)
    dh.conformal_checks(phi, psi, _verify_maps()[:2], CONVENTIONS)
    # Per map: the map values and the spinor values, shared by both conventions.
    K = phi.target.ambient_dim
    assert calls == [(K,), (K, 2)] * 2
