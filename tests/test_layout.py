"""Component-major storage of field arrays.

Fields keep their (n, n, *comp) shapes but store each component as one
contiguous n x n plane.  These tests check that every way of building a
field, and every kernel that builds a component axis, returns that
storage, and that the elementwise kernels give the same bits on C-order
inputs.  Sums over component axes or whole fields are plain numpy sums,
whose bits may depend on the storage order (see ``charts``).
"""

import copy

import numpy as np
import pytest

import diracharmonic as dh
import diracharmonic.solver
from diracharmonic.fields import clifford_frame_contract, covariant_derivative
from diracharmonic.spinors import FRAME, clifford_mul
from diracharmonic.targets import ambient_pairing, normal_part
from diracharmonic.verify import _cauchy_riemann_dirac

from conftest import map_pullback

# Sphere(7) has K = 8 ambient components: numpy adds 8 or more contiguous
# terms pairwise, so a pairing that reduced over the ambient axis would
# round by storage order there.
TARGETS = [dh.Sphere(2), dh.Sphere(3), dh.Flat(3), dh.Sphere(7)]
TARGET_IDS = ["sphere2", "sphere3", "flat3", "sphere7"]
TOPOLOGIES = ["torus", "disk"]


def plane_ordered(a, ncomp=None):
    """True when the trailing ``ncomp`` component axes (default: all but
    the two grid axes) are outermost in memory and the rest is C order."""
    ncomp = a.ndim - 2 if ncomp is None else ncomp
    lead = a.ndim - ncomp
    return a.transpose(tuple(range(lead, a.ndim)) + tuple(range(lead))).flags.c_contiguous


def bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(bits(a), bits(b))


def _chart(topology, n=32):
    return dh.DomainChart.torus(n) if topology == "torus" else dh.DomainChart.disk(n)


def _pair(target, topology, n=32, seed=11):
    """A smooth map into the target and a tangent spinor along it, both
    built from C-order arrays."""
    chart = _chart(topology, n)
    rng = np.random.default_rng(seed)
    K = target.ambient_dim
    base = np.zeros(chart.shape + (K,))
    base[..., -1] = 1.0
    dev = dh.bandlimited_field(chart, rng, components=(K,), kmax=2, amplitude=0.5)
    phi = dh.MapField(chart, target, target.project_point(base + dev))
    raw = (dh.bandlimited_field(chart, rng, components=(K, 2), kmax=2)
           + 1j * dh.bandlimited_field(chart, rng, components=(K, 2), kmax=2))
    return phi, dh.project_spinor(phi, raw)


def _c_order(field):
    """A shallow copy of a field whose values are a C-order copy."""
    out = copy.copy(field)
    out.values = np.ascontiguousarray(field.values)
    assert out.values.flags.c_contiguous and not plane_ordered(out.values)
    return out


# -- every way a field is built stores planes ------------------------------------

def test_constructors_store_planes_from_c_order_input():
    chart = _chart("torus")
    sphere = dh.Sphere(2)
    vals = np.zeros(chart.shape + (3,))
    vals[..., 2] = 1.0
    assert vals.flags.c_contiguous
    phi = dh.MapField(chart, sphere, vals, analytic_gradient=np.zeros(chart.shape + (2, 3)))
    assert plane_ordered(phi.values) and plane_ordered(phi.analytic_gradient)
    spin = np.ones(chart.shape + (3, 2), dtype=complex)
    psi = dh.TwistedSpinorField(chart, sphere, spin)
    assert plane_ordered(psi.values)
    assert np.array_equal(phi.values, vals) and np.array_equal(psi.values, spin)


def test_constructors_do_not_copy_planes():
    phi, psi = _pair(dh.Sphere(2), "torus")
    again = dh.MapField(phi.chart, phi.target, phi.values)
    assert again.values is phi.values
    assert dh.TwistedSpinorField(psi.chart, psi.target, psi.values).values is psi.values


def test_zero_and_constant_store_planes():
    chart = _chart("disk")
    for target in TARGETS:
        zero = dh.TwistedSpinorField.zero(chart, target)
        assert plane_ordered(zero.values) and not zero.values.any()
        const = dh.MapField.constant(chart, target, np.arange(target.ambient_dim) + 1.0)
        assert plane_ordered(const.values)


@pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS)
def test_project_spinor_map_pullback_and_flow_step_store_planes(target):
    phi, psi = _pair(target, "disk")
    assert plane_ordered(phi.values) and plane_ordered(psi.values)
    pulled = map_pullback(phi, dh.MoebiusMap.disk_automorphism(0.3))
    assert plane_ordered(pulled.values)
    assert plane_ordered(dh.flow_step(phi, psi).values)
    assert plane_ordered(dh.flow_step(phi, None).values)


def test_read_field_stores_planes(tmp_path):
    phi, psi = _pair(dh.Sphere(2), "torus")
    dh.write_field(tmp_path / "phi.dhm", phi)
    dh.write_field(tmp_path / "psi.dhm", psi)
    phi_r = dh.read_field(tmp_path / "phi.dhm")
    psi_r = dh.read_field(tmp_path / "psi.dhm", chart=phi_r.chart, target=phi_r.target)
    assert plane_ordered(phi_r.values) and plane_ordered(psi_r.values)
    assert same_bits(phi_r.values, phi.values) and same_bits(psi_r.values, psi.values)


@pytest.mark.parametrize("start", ["random", "given"])
def test_dirac_project_stores_planes(start, monkeypatch):
    monkeypatch.setattr(diracharmonic.solver, "CG_MAX_ITERS", 5)
    phi, psi = _pair(dh.Sphere(2), "torus", n=16)
    cfg = dh.SolverConfig(power_iters=1, seed=3)
    out = dh.dirac_project(phi, psi if start == "given" else None, cfg).psi
    assert plane_ordered(out.values)


# -- every kernel that builds a component axis writes planes ----------------------

@pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS)
def test_kernel_outputs_are_plane_ordered(target):
    phi, psi = _pair(target, "torus")
    chart = phi.chart
    dphi = phi.gradient()
    outputs = {
        "gradient": dphi,
        "covariant_derivative": covariant_derivative(phi, psi.values, "x"),
        "flat_dirac": dh.flat_dirac(psi.values, chart),
        "flat_dirac_cauchy_riemann": _cauchy_riemann_dirac(psi.values, chart),
        "dirac_along_map": dh.dirac_along_map(phi, psi),
        "curvature_term": dh.curvature_term(phi, psi),
        "tension": dh.tension(phi),
        "clifford_frame_contract": clifford_frame_contract(dphi, psi.values),
        "clifford_mul_e1": clifford_mul(FRAME[0], psi.values),
        "clifford_mul_e2": clifford_mul(FRAME[1], psi.values),
        "derivative": chart.derivative(psi.values, "y"),
        "laplacian": chart.laplacian(psi.values),
        "interp_grid": chart.interp(psi.values, 0.9 * chart.x, 0.9 * chart.y),
    }
    for name, out in outputs.items():
        assert plane_ordered(out), name
    _, px, py = chart.circle_points(0.3, 40)
    on_circle = chart.interp(psi.values, px, py)
    assert on_circle.shape == (40, target.ambient_dim, 2)
    assert plane_ordered(on_circle, ncomp=2)


# -- the same bits on either storage order ----------------------------------------

@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS)
def test_kernels_give_the_same_bits_on_c_order_inputs(target, topology):
    phi, psi = _pair(target, topology)
    phi_c, psi_c = _c_order(phi), _c_order(psi)
    chart = phi.chart
    nu, nu_c = phi.values, phi_c.values
    for form in (dh.flat_dirac, _cauchy_riemann_dirac):
        assert same_bits(form(psi.values, chart), form(psi_c.values, chart)), form.__name__
    for arr, arr_c in ((phi.values, phi_c.values), (psi.values, psi_c.values)):
        for axis in ("x", "y"):
            assert same_bits(chart.derivative(arr, axis), chart.derivative(arr_c, axis))
        assert same_bits(chart.laplacian(arr), chart.laplacian(arr_c))
    assert same_bits(ambient_pairing(nu, psi.values), ambient_pairing(nu_c, psi_c.values))
    assert same_bits(normal_part(nu, psi.values), normal_part(nu_c, psi_c.values))
    _, px, py = chart.circle_points(0.3, 40)
    for qx, qy in ((0.9 * chart.x, 0.9 * chart.y), (px, py)):
        for arr, arr_c in ((phi.values, phi_c.values), (psi.values, psi_c.values)):
            assert same_bits(chart.interp(arr, qx, qy), chart.interp(arr_c, qx, qy))
    assert same_bits(dh.curvature_term(phi, psi), dh.curvature_term(phi_c, psi_c))
    assert same_bits(dh.tension(phi), dh.tension(phi_c))
