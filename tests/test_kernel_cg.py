"""The preconditioned kernel CG against the plain CG oracle, the
preconditioner's symmetry and positivity, and the CG telemetry."""

import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.charts import as_planes
from diracharmonic.fields import _tangent_project_spinor
from diracharmonic.solver import _DiracKernelOperator, _cg, _inner

from conftest import disk_twistor_pair, plain_cg, random_sphere_pair
from test_solver import perturbed_constant    # the acceptance-09 map


def _perturbed_torus_map(n):
    _, phi, _ = random_sphere_pair(n, seed=3, amp=0.3)
    return phi


def _disk_twistor_map(n):
    _, phi, _ = disk_twistor_pair(n)
    return phi


def _flat_map(n):
    chart = dh.DomainChart.torus(n)
    rng = np.random.default_rng(5)
    vals = dh.bandlimited_field(chart, rng, components=(3,), kmax=2, amplitude=0.4)
    return dh.MapField(chart, dh.Flat(3), vals)


MAPS = [pytest.param(_perturbed_torus_map, id="perturbed_torus"),
        pytest.param(_disk_twistor_map, id="disk_twistor"),
        pytest.param(_flat_map, id="flat3")]


def _random_spinors(phi, seed):
    rng = np.random.default_rng(seed)
    shape = phi.chart.shape + (phi.target.ambient_dim, 2)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _shift(phi):
    return 1e-4 * 4.0 / phi.chart.h**2      # the shift dirac_project uses


@pytest.mark.parametrize("make_map", MAPS)
def test_preconditioned_cg_matches_plain_oracle(make_map):
    phi = make_map(32)
    op = _DiracKernelOperator(phi)
    rhs = op.project(_random_spinors(phi, 1))
    shift = _shift(phi)
    x, its, converged = _cg(op, rhs, shift, 1e-13, 5000)
    ref, ref_its = plain_cg(op, rhs, shift, 1e-13, 5000)
    assert converged and ref_its < 5000
    assert its < ref_its
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("make_map", MAPS)
def test_preconditioner_is_symmetric_positive_definite(make_map):
    phi = make_map(32)
    op = _DiracKernelOperator(phi)
    shift = _shift(phi)
    a, b = _random_spinors(phi, 2), _random_spinors(phi, 3)
    tangent = [op.project(a), op.project(b)]
    normal = [a - tangent[0], b - tangent[1]]
    prod = np.empty_like(a)
    for x, y in (tangent, normal, (tangent[0], normal[1]), (a, b)):
        mx, my = op.precondition(x, shift), op.precondition(y, shift)
        scale = np.linalg.norm(x) * np.linalg.norm(my)
        assert abs(_inner(x, my, prod) - _inner(mx, y, prod)) <= 1e-12 * scale
    for x in tangent + normal + [a]:
        if np.any(x):                             # a flat target has no normal part
            assert _inner(x, op.precondition(x, shift), prod) > 0.0


@pytest.mark.parametrize("make_map", MAPS)
@pytest.mark.parametrize("order", ["planes", "c_order"])
def test_preconditioner_has_the_bits_of_the_allocating_formula(make_map, order):
    phi = make_map(32)
    op = _DiracKernelOperator(phi)
    shift = _shift(phi)
    r = _random_spinors(phi, 4)
    r = as_planes(r) if order == "planes" else r
    # The formula with fresh arrays: fft2/ifft2 over the component planes.
    pr = _tangent_project_spinor(phi, r)
    spectrum = np.fft.fft2(pr.transpose(2, 3, 0, 1))
    spectrum /= op.sigma + shift
    flat = np.fft.ifft2(spectrum).transpose(2, 3, 0, 1)
    ref = _tangent_project_spinor(phi, flat) + (r - pr) / (op.kappa + shift)
    z = np.empty_like(r)
    for got in (op.precondition(r, shift), op.precondition(r, shift, out=z)):
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint8),
                              np.ascontiguousarray(ref).view(np.uint8))


def test_kernel_cg_iterations_per_solve_stay_small():
    projection = dh.dirac_project(perturbed_constant(64), None,
                                  dh.SolverConfig(seed=4, power_iters=4))
    assert len(projection.cg_iterations) == 4
    assert max(projection.cg_iterations) <= 10
    assert projection.cg_unconverged == 0


@pytest.mark.parametrize("cg_max_iters, unconverged", [(1, 6), (600, 0)])
def test_solve_reports_unconverged_cg(cg_max_iters, unconverged):
    cfg = dh.SolverConfig(seed=4, max_iters=20, residual_tol=0.0, reproject_every=10,
                          power_iters=2, trace_every=10, cg_max_iters=cg_max_iters)
    _, _, rep = dh.solve(perturbed_constant(16), None, cfg)
    assert len(rep.cg_iterations) == 3            # initial extraction + 2 refreshes
    assert rep.cg_unconverged == unconverged      # of 3 refreshes x 2 power rounds
