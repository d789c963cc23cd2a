"""The map step on a frozen zero spinor, and the ambient-axis contractions
the map and spinor steps are built from, against einsum oracles."""

import numpy as np
import pytest

import diracharmonic as dh
import diracharmonic.fields
import diracharmonic.solver
from diracharmonic.fields import clifford_frame_contract
from diracharmonic.targets import ambient_pairing, normal_part

from conftest import clifford_contract_oracle
from test_solver import perturbed_constant


def _random_map(target, n=24, seed=2):
    """Smooth random map into the target: a base point plus a band-limited
    perturbation, projected onto the target."""
    chart = dh.DomainChart.torus(n)
    rng = np.random.default_rng(seed)
    K = target.ambient_dim
    base = np.zeros(chart.shape + (K,))
    base[..., -1] = 1.0
    dev = dh.bandlimited_field(chart, rng, components=(K,), kmax=3, amplitude=0.5)
    return dh.MapField(chart, target, target.project_point(base + dev))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def _rel_err(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


# -- frozen zero spinor ---------------------------------------------------------

@pytest.mark.parametrize("target", [dh.Sphere(2), dh.Flat(3)], ids=["sphere2", "flat3"])
def test_frozen_step_has_the_bits_of_a_zero_spinor_step(target):
    phi = _random_map(target, n=32)
    zero = dh.TwistedSpinorField.zero(phi.chart, target)
    lean, full = phi, phi
    for _ in range(5):
        lean = dh.flow_step(lean, None)
        full = dh.flow_step(full, zero)
        assert np.array_equal(_bits(lean.values), _bits(full.values))
    assert not np.array_equal(lean.values, phi.values)


def test_solve_from_zero_spinor_never_evaluates_the_coupling(monkeypatch):
    def forbidden(phi, psi):
        raise AssertionError("coupling evaluated on a frozen zero spinor")

    monkeypatch.setattr(diracharmonic.solver, "curvature_term", forbidden)
    phi0 = perturbed_constant(32, amplitude=0.3)
    psi0 = dh.TwistedSpinorField.zero(phi0.chart, phi0.target)
    cfg = dh.SolverConfig(max_iters=40, trace_every=20, residual_tol=0.0)
    phi, psi, report = dh.solve(phi0, psi0, cfg)
    assert report.termination == "max_iters"
    assert report.iterations == [0, 20, 40]
    assert psi is psi0
    assert not np.array_equal(phi.values, phi0.values)


def test_frozen_measure_has_the_bits_of_a_zero_spinor_measure(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("spinor term evaluated on a frozen zero spinor")

    states = []
    real_step = diracharmonic.solver.flow_step

    def recording_step(phi, psi, **work):
        moved = real_step(phi, psi, **work)
        # solve steps in place in one grid, so keep a copy of each state.
        states.append(dh.MapField(moved.chart, moved.target, moved.values.copy()))
        return moved

    monkeypatch.setattr(diracharmonic.fields, "dirac_along_map", forbidden)
    monkeypatch.setattr(diracharmonic.fields, "flat_dirac", forbidden)
    monkeypatch.setattr(diracharmonic.fields, "curvature_term", forbidden)
    monkeypatch.setattr(diracharmonic.solver, "curvature_term", forbidden)
    monkeypatch.setattr(diracharmonic.solver, "flow_step", recording_step)
    phi0 = perturbed_constant(32, amplitude=0.3)
    zero = dh.TwistedSpinorField.zero(phi0.chart, phi0.target)
    cfg = dh.SolverConfig(residual_tol=1e-2, trace_every=25)
    _, _, report = dh.solve(phi0, zero, cfg)
    monkeypatch.undo()
    assert report.termination == "converged"
    assert len(report.iterations) >= 3

    recorded = [phi0] + [states[it - 1] for it in report.iterations[1:]]
    for k, phi in enumerate(recorded):
        res = dh.el_residual(phi, zero)
        assert report.map_residual_trace[k] == res.norms["map_sup"]
        assert report.spinor_residual_trace[k] == res.norms["spinor_sup"] == 0.0
        assert report.action_trace[k] == dh.action(phi, zero)
        assert report.energy_trace[k] == dh.energy(phi, zero)


def test_none_spinor_is_the_zero_spinor_everywhere():
    phi = _random_map(dh.Sphere(2), n=24)
    zero = dh.TwistedSpinorField.zero(phi.chart, phi.target)
    lean, full = dh.el_residual(phi, None), dh.el_residual(phi, zero)
    assert lean.norms == full.norms
    for name in ("map_residual", "spinor_residual", "normal_defect"):
        got, ref = getattr(lean, name), getattr(full, name)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    assert dh.action(phi, None) == dh.action(phi, zero)
    assert dh.energy(phi, None) == dh.energy(phi, zero)


# -- contractions against einsum oracles ----------------------------------------

@pytest.mark.parametrize("target", [dh.Sphere(2), dh.Sphere(3), dh.Flat(3)],
                         ids=["sphere2", "sphere3", "flat3"])
def test_clifford_frame_contract_matches_matrix_oracle(target, rng):
    dphi = _random_map(target).gradient()
    shape = dphi.shape[:2] + (target.ambient_dim, 2)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = clifford_frame_contract(dphi, psi)
    ref = clifford_contract_oracle(dphi, psi)
    assert got.shape == ref.shape
    assert _rel_err(got, ref) <= 1e-14


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("tail", [1, 2], ids=["map", "spinor"])
def test_ambient_pairing_and_normal_part_match_einsum(K, tail, rng):
    nu = rng.normal(size=(16, 16, K))
    nu /= np.sqrt((nu**2).sum(axis=-1, keepdims=True))
    shape = (16, 16, K, tail)
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = ambient_pairing(nu, arr)
    assert got.shape == (16, 16, tail)
    assert _rel_err(got, np.einsum("...i,...it->...t", nu, arr)) <= 1e-15
    normal = normal_part(nu, arr)
    ref = np.einsum("...i,...j,...jt->...it", nu, nu, arr)
    assert normal.shape == shape
    assert _rel_err(normal, ref) <= 1e-15
    assert np.array_equal(normal_part(None, arr), np.zeros_like(arr))
