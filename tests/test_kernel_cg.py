"""The kernel operator's preconditioned CG against the plain CG oracle,
the preconditioner's symmetry, positivity and tangent output, the
operator against its ambient form on tangent fields, the tangency of a
solve, the CG telemetry, and the flat Dirac calls a coupled solve makes."""

import numpy as np
import pytest

import diracharmonic as dh
import diracharmonic.solver
from diracharmonic.charts import as_planes
from diracharmonic.fields import _tangent_project_spinor
from diracharmonic.solver import _DiracKernelOperator

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


def _operator(phi):
    return _DiracKernelOperator(phi, 1e-4 * 4.0 / phi.chart.h**2)   # dirac_project's shift


def _precondition(op, r):
    return op.precondition(r, np.empty_like(r))


def _reference_symbol(chart, shift):
    """The shifted symbol of the flat Dirac operator squared, written out
    by hand: (sin^2(2 pi mx / n) + sin^2(2 pi my / n)) / h^2 + shift."""
    s2 = np.sin(2.0 * np.pi * np.arange(chart.n) / chart.n) ** 2
    return (s2[:, None] + s2[None, :]) / chart.h**2 + shift


@pytest.mark.parametrize("make_map", MAPS)
def test_preconditioned_cg_matches_plain_oracle(make_map, monkeypatch):
    monkeypatch.setattr(diracharmonic.solver, "CG_TOL", 1e-13)
    monkeypatch.setattr(diracharmonic.solver, "CG_MAX_ITERS", 5000)
    phi = make_map(32)
    op = _operator(phi)
    rhs = _tangent_project_spinor(phi, _random_spinors(phi, 1))
    x = np.empty_like(rhs)
    its, converged = op.solve(rhs, x)
    ref, ref_its = plain_cg(op, rhs, op.shift, 1e-13, 5000)
    assert converged and ref_its < 5000
    assert its < ref_its
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def _normal_part(phi, x):
    return np.linalg.norm(x - _tangent_project_spinor(phi, x))


@pytest.mark.parametrize("make_map", MAPS)
def test_preconditioner_is_symmetric_positive_definite(make_map):
    phi = make_map(32)
    op = _operator(phi)
    a, b = _random_spinors(phi, 2), _random_spinors(phi, 3)
    tangent = [_tangent_project_spinor(phi, a), _tangent_project_spinor(phi, b)]
    normal = [a - tangent[0], b - tangent[1]]
    # Symmetric and positive on tangent fields, the operator's domain.
    x, y = tangent
    mx, my = _precondition(op, x), _precondition(op, y)
    assert abs(np.vdot(x, my).real - np.vdot(mx, y).real) \
        <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(my)
    for x in tangent:
        assert np.vdot(x, _precondition(op, x)).real > 0.0
    # Tangent output for every input, the projected preconditioned residual;
    # ``a`` is mixed, in C order and component-major.
    for x in tangent + normal + [a, as_planes(a)]:
        mx = _precondition(op, x)
        assert _normal_part(phi, mx) <= 1e-14 * np.linalg.norm(mx)


@pytest.mark.parametrize("make_map", MAPS)
@pytest.mark.parametrize("order", ["planes", "c_order"])
def test_preconditioner_has_the_bits_of_the_allocating_formula(make_map, order):
    phi = make_map(32)
    op = _operator(phi)
    shift = op.shift
    r = _random_spinors(phi, 4)
    r = as_planes(r) if order == "planes" else r
    # The formula with fresh arrays: fft2/ifft2 over the component planes,
    # divided by the shifted symbol of the flat Dirac operator squared.
    spectrum = np.fft.fft2(r.transpose(2, 3, 0, 1))
    spectrum /= _reference_symbol(phi.chart, shift)
    ref = _tangent_project_spinor(phi, np.fft.ifft2(spectrum).transpose(2, 3, 0, 1))
    z = np.empty_like(r)
    got = op.precondition(r, z)
    assert got is z
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint8),
                          np.ascontiguousarray(ref).view(np.uint8))


@pytest.mark.parametrize("n, side", [(8, 1.0), (17, 1.1), (32, 2.2), (100, 1.0), (128, 1.1)])
def test_operator_symbol_has_the_bits_of_the_hand_written_one(n, side):
    # The operator reads its symbol from charts.difference_symbol.
    chart = dh.DomainChart.torus(n, side=side)
    phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
    op = _operator(phi)
    assert np.array_equal(op.symbol.view(np.uint64),
                          _reference_symbol(chart, op.shift).view(np.uint64))


def _ambient_operator(op, x):
    """The operator on the whole ambient spinor space, with the normal
    block kappa (I - P) at kappa = 1: P B B P x + (x - P x)."""
    px = _tangent_project_spinor(op.phi, x)
    bbx = op.b_apply(op.b_apply(px, np.empty_like(px), op.scratch[2:]),
                     np.empty_like(px), op.scratch[2:])
    return bbx + (x - px)


@pytest.mark.parametrize("make_map", MAPS)
def test_operator_equals_the_ambient_operator_on_tangent_fields(make_map):
    phi = make_map(32)
    op = _operator(phi)
    for seed in (5, 6):
        x = _tangent_project_spinor(phi, _random_spinors(phi, seed))
        ref = _ambient_operator(op, x)
        got = op(x, np.empty_like(x))
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("make_map", MAPS)
def test_solve_stays_tangent(make_map):
    phi = make_map(32)
    op = _operator(phi)
    rhs = _tangent_project_spinor(phi, _random_spinors(phi, 7))
    x = np.empty_like(rhs)
    _, converged = op.solve(rhs, x)
    assert converged
    assert _normal_part(phi, x) <= 1e-13 * np.linalg.norm(x)


def test_kernel_cg_iterations_per_solve_stay_small():
    projection = dh.dirac_project(perturbed_constant(64), None,
                                  dh.SolverConfig(seed=4, power_iters=4))
    assert len(projection.cg_iterations) == 4
    assert max(projection.cg_iterations) <= 10
    assert projection.cg_unconverged == 0


@pytest.mark.parametrize("cg_max_iters, unconverged", [(1, 6), (600, 0)])
def test_solve_reports_unconverged_cg(cg_max_iters, unconverged, monkeypatch):
    monkeypatch.setattr(diracharmonic.solver, "CG_MAX_ITERS", cg_max_iters)
    cfg = dh.SolverConfig(seed=4, max_iters=20, residual_tol=0.0, reproject_every=10,
                          power_iters=2, trace_every=10)
    _, _, rep = dh.solve(perturbed_constant(16), None, cfg)
    assert len(rep.cg_iterations) == 3            # initial extraction + 2 refreshes
    assert rep.cg_unconverged == unconverged      # of 3 refreshes x 2 power rounds


def test_solve_makes_two_flat_diracs_per_cg_iteration_and_one_per_refresh(monkeypatch):
    # The counting rule a benchmark derives CG matvecs from: each CG
    # iteration applies B twice, and each kernel refresh applies it once
    # more for its ratio, all through the flat Dirac the solver binds.
    calls = []
    real = diracharmonic.solver.flat_dirac

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(diracharmonic.solver, "flat_dirac", counting)
    cfg = dh.SolverConfig(seed=4, max_iters=20, residual_tol=0.0, reproject_every=10,
                          power_iters=2, trace_every=10)
    _, _, rep = dh.solve(perturbed_constant(16), None, cfg)
    assert len(rep.cg_iterations) == 3
    assert len(calls) == 2 * sum(rep.cg_iterations) + len(rep.cg_iterations)
