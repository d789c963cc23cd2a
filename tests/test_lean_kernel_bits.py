"""The identity kernels that hold few spinor grids at once give the bits of
their straightforward forms.

Each reference below forms every intermediate as a whole grid: the normal
part beside the field it is taken from, both e_a . psi for the whole
tensor, R(X, Y) S from two full outer products, a zero curvature grid on
flat targets, the raw spinor of the compact pair as a sum of two complex
grids.  The kernels run the same elementwise operations in the same order
on fewer live grids, so every returned float and array agrees under ==.
"""

import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic import fields, identities
from diracharmonic.charts import DomainChart, bandlimited_field
from diracharmonic.spinors import FRAME, clifford_mul, flat_dirac, re_pairing, spinor_norm2
from diracharmonic.targets import Sphere, ambient_pairing, normal_part
from diracharmonic.verify import canonical_compact_pair


# -- the straightforward forms -------------------------------------------------

def ref_tangent_project(phi, arr):
    normal = normal_part(phi.target.normal(phi.values), arr)
    return np.subtract(arr, normal, out=normal)


def ref_covariant_derivative(phi, values, axis):
    d = phi.chart.derivative(values, axis)
    d -= normal_part(phi.target.normal(phi.values), d)
    return d


def ref_dirac_along_map(phi, psi):
    return ref_tangent_project(phi, flat_dirac(psi.values, phi.chart))


def ref_energy_momentum(phi, psi):
    d = phi.gradient()
    T = np.zeros(phi.chart.shape + (2, 2))
    dirichlet = (d**2).sum(axis=(-2, -1))
    for a in range(2):
        for b in range(2):
            T[..., a, b] = 2.0 * (d[..., a, :] * d[..., b, :]).sum(axis=-1)
            if a == b:
                T[..., a, b] -= dirichlet
    e_psi = [clifford_mul(e_a, psi.values) for e_a in FRAME]
    for b, axis in enumerate(("x", "y")):
        grad_b = ref_covariant_derivative(phi, psi.values, axis)
        for a in range(2):
            T[..., a, b] -= re_pairing(e_psi[a], grad_b, axis=(-2, -1))
    return T


def ref_em_defects(phi, psi):
    chart = phi.chart
    mask = chart.interior_mask
    T = ref_energy_momentum(phi, psi)
    div = np.zeros(chart.shape + (2,))
    for b in range(2):
        div[..., b] = chart.derivative(T[..., 0, b], "x") + chart.derivative(T[..., 1, b], "y")
    mag = np.sqrt((div**2).sum(axis=-1))
    div_l2 = float(np.sqrt(chart.integrate(mag**2, region=mask)))
    symmetry = float(np.abs(T[..., 0, 1] - T[..., 1, 0])[mask].max())
    hopf = T[..., 0, 0] - 1j * T[..., 0, 1]
    dbar = 0.5 * (chart.derivative(hopf, "x") + 1j * chart.derivative(hopf, "y"))
    return symmetry, div_l2, float(np.abs(dbar)[mask].max())


def ref_curvature_on_spinor(phi, X, Y, S):
    if phi.target.normal(phi.values) is None:
        return np.zeros(S.shape, S.dtype)
    ys = ambient_pairing(Y, S)
    xs = ambient_pairing(X, S)
    return X[..., :, None] * ys[..., None, :] - Y[..., :, None] * xs[..., None, :]


def ref_weitzenboeck_defect(phi, psi):
    chart = phi.chart
    rhs = np.zeros_like(psi.values)
    for axis in ("x", "y"):
        rhs -= ref_covariant_derivative(phi, ref_covariant_derivative(phi, psi.values, axis),
                                        axis)
    d = phi.gradient()
    rhs += ref_curvature_on_spinor(phi, d[..., 0, :], d[..., 1, :],
                                   clifford_mul(FRAME[0], clifford_mul(FRAME[1], psi.values)))
    inner = dh.TwistedSpinorField(chart, phi.target, ref_dirac_along_map(phi, psi))
    lhs = ref_dirac_along_map(phi, inner)
    gap = np.sqrt(spinor_norm2(lhs - rhs, axis=(-2, -1)))
    return float(gap[chart.interior_mask].max())


def ref_bochner_defect(phi, psi):
    chart = phi.chart
    lhs = 0.5 * chart.laplacian(psi.norm2_density())
    rhs = spinor_norm2(ref_covariant_derivative(phi, psi.values, "x"), axis=(-2, -1))
    rhs += spinor_norm2(ref_covariant_derivative(phi, psi.values, "y"), axis=(-2, -1))
    d = phi.gradient()
    e_psi = [clifford_mul(e_a, psi.values) for e_a in FRAME]
    for a, b in ((0, 1), (1, 0)):
        r_on = ref_curvature_on_spinor(phi, d[..., a, :], d[..., b, :], e_psi[b])
        rhs = rhs - 0.5 * re_pairing(e_psi[a], r_on, axis=(-2, -1))
    return float(np.abs(lhs - rhs)[chart.interior_mask].max())


def ref_el_residual(phi, psi):
    mask = phi.chart.interior_mask
    nu = phi.target.normal(phi.values)
    sigma = None if nu is None else dh.charts.empty_planes(phi.chart.shape + (2,), np.complex128)
    map_res = fields.tension(phi) - fields.curvature_term(phi, psi, work=(None, sigma, None))
    spin_res = flat_dirac(psi.values, phi.chart)
    normal = normal_part(nu, spin_res)
    spin_res -= normal
    if nu is not None:
        normal = normal - (-nu[..., :, None] * sigma[..., None, :])
    def sup(mag2):
        return float(np.sqrt(mag2)[mask].max())

    norms = {"map_sup": sup((map_res**2).sum(axis=-1)),
             "spinor_sup": sup(spinor_norm2(spin_res).sum(axis=-1)),
             "normal_sup": sup(spinor_norm2(normal).sum(axis=-1))}
    return map_res, spin_res, normal, norms


def ref_canonical_compact_pair(n, seed=7):
    chart = DomainChart.disk(n)
    rng = np.random.default_rng(seed)
    r2 = (chart.x**2 + chart.y**2) / 0.5**2
    bump = np.where(r2 < 1, (1.0 - np.minimum(r2, 1.0)) ** 4, 0.0)
    sphere = Sphere(2)
    base = np.zeros(chart.shape + (3,))
    base[..., 2] = 1.0
    dev = bandlimited_field(chart, rng, components=(3,), kmax=1, amplitude=0.4)
    phi = dh.MapField(chart, sphere, sphere.project_point(base + bump[..., None] * dev))
    sdev = (bandlimited_field(chart, rng, components=(3, 2), kmax=1, amplitude=2.0)
            + 1j * bandlimited_field(chart, rng, components=(3, 2), kmax=1, amplitude=2.0))
    psi = dh.TwistedSpinorField(chart, sphere,
                                ref_tangent_project(phi, bump[..., None, None] * sdev))
    return phi, psi


# -- the pairs -------------------------------------------------------------------

def _config_pair(text):
    return dh.build_pair(dh.parse_config(text))


def _perturbed_with_spinor():
    phi, _ = _config_pair("[chart]\nn = 32\n\n[scenario]\nkind = perturbed_constant\n")
    rng = np.random.default_rng(11)
    raw = (rng.normal(size=phi.values.shape + (2,))
           + 1j * rng.normal(size=phi.values.shape + (2,)))
    return phi, dh.project_spinor(phi, raw)


PAIRS = {
    "disk_twistor": lambda: _config_pair(
        "[chart]\ntopology = disk\nn = 48\n\n[scenario]\nkind = twistor_pushforward\n"
        "psi1 = 0.2,-0.1j\n"),
    "elliptic": lambda: _config_pair("[chart]\nn = 32\n\n[scenario]\nkind = elliptic_pair\n"),
    "perturbed_random_spinor": _perturbed_with_spinor,
    "s3_constant_spinor": lambda: _config_pair(
        "[chart]\nn = 32\n\n[target]\nkind = sphere\ndim = 3\n\n[scenario]\n"
        "kind = constant_spinor\nbase_point = 0,0,0,1\nspinor_direction = 1,0,0,0\n"),
    "flat_r3": lambda: _config_pair(
        "[chart]\nn = 32\n\n[target]\nkind = flat\ndim = 3\n\n[scenario]\n"
        "kind = constant_spinor\nspinor_direction = 0,0,1\n"),
}


@pytest.fixture(scope="module", params=sorted(PAIRS))
def pair(request):
    return PAIRS[request.param]()


def _same(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)


# -- the tests ---------------------------------------------------------------------

def test_tangent_projection_in_place(pair):
    phi, psi = pair
    rng = np.random.default_rng(3)
    raw = rng.normal(size=psi.values.shape) + 1j * rng.normal(size=psi.values.shape)
    arr = dh.charts.as_planes(raw.copy())
    _same(fields._tangent_project_spinor(phi, arr, out=arr), ref_tangent_project(phi, raw))


@pytest.mark.parametrize("axis", ["x", "y"])
def test_covariant_derivative(pair, axis):
    phi, psi = pair
    _same(fields.covariant_derivative(phi, psi.values, axis),
          ref_covariant_derivative(phi, psi.values, axis))


def test_dirac_along_map(pair):
    phi, psi = pair
    _same(fields.dirac_along_map(phi, psi), ref_dirac_along_map(phi, psi))


def test_energy_momentum_and_its_defects(pair):
    phi, psi = pair
    _same(identities.energy_momentum(phi, psi), ref_energy_momentum(phi, psi))
    assert identities.em_defects(phi, psi) == ref_em_defects(phi, psi)


def test_bochner_defect(pair):
    assert identities.bochner_defect(*pair) == ref_bochner_defect(*pair)


def test_weitzenboeck_defect(pair):
    assert identities.weitzenboeck_defect(*pair) == ref_weitzenboeck_defect(*pair)


def test_el_residual(pair):
    res = fields.el_residual(*pair)
    map_res, spin_res, normal, norms = ref_el_residual(*pair)
    _same(res.map_residual, map_res)
    _same(res.spinor_residual, spin_res)
    _same(res.normal_defect, normal)
    assert res.norms == norms


@pytest.mark.parametrize("n", [48, 64])
def test_canonical_compact_pair(n):
    (phi, psi), (ref_phi, ref_psi) = canonical_compact_pair(n), ref_canonical_compact_pair(n)
    _same(phi.values, ref_phi.values)
    _same(psi.values, ref_psi.values)
