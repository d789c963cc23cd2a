import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.charts import as_planes
from diracharmonic.fields import clifford_frame_contract
from diracharmonic.spinors import FRAME
from diracharmonic.verify import _cauchy_riemann_dirac
from conftest import E1, E2, assert_second_order, disk_twistor_pair, fd5_derivative


def bump(chart, width=0.22):
    r2 = (chart.x**2 + chart.y**2) / width**2
    return np.where(r2 < 1, np.exp(-r2 / np.maximum(1e-300, 1.0 - r2)), 0.0)


class TestCliffordAction:
    def test_e1_on_basis_spinor(self):
        # Matrix values of the frame action on (1, 0).
        assert np.allclose(dh.clifford_mul((1, 0), dh.spinor(1, 0)), [0, -1])

    def test_e2_on_basis_spinor(self):
        assert np.allclose(dh.clifford_mul((0, 1), dh.spinor(1, 0)), [0, 1j])

    def test_unit_vector_squares_to_minus_one(self):
        s = dh.spinor(0.3 + 0.1j, -2j)
        twice = dh.clifford_mul((1, 0), dh.clifford_mul((1, 0), s))
        assert np.abs(twice + s).max() < 1e-15

    def test_clifford_relations_randomized(self, rng):
        for _ in range(200):
            v = rng.normal(size=2)
            w = rng.normal(size=2)
            s = rng.normal(size=2) + 1j * rng.normal(size=2)
            lhs = (dh.clifford_mul(v, dh.clifford_mul(w, s))
                   + dh.clifford_mul(w, dh.clifford_mul(v, s)))
            rhs = -2.0 * (v @ w) * s
            scale = max(1.0, np.abs(rhs).max())
            assert np.abs(lhs - rhs).max() / scale < 1e-12

    def test_skew_adjoint_for_real_vectors(self, rng):
        for _ in range(100):
            v = rng.normal(size=2)
            s = rng.normal(size=2) + 1j * rng.normal(size=2)
            t = rng.normal(size=2) + 1j * rng.normal(size=2)
            lhs = dh.re_pairing(dh.clifford_mul(v, s), t)
            rhs = -dh.re_pairing(s, dh.clifford_mul(v, t))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_isometry_of_unit_vectors(self, rng):
        for _ in range(50):
            theta = rng.uniform(0, 2 * np.pi)
            v = (np.cos(theta), np.sin(theta))
            s = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert np.isclose(dh.spinor_norm2(dh.clifford_mul(v, s)), dh.spinor_norm2(s))


# -- every Clifford product is clifford_mul's -----------------------------------------
# The fused kernels and the twistor family against the one action, on random
# twisted grids whose small-integer half meets exact zeros of both signs.

def _twisted_grids(n=16, K=3, seed=21):
    rng = np.random.default_rng(seed)
    shape = (n, n, K, 2)
    noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ints = (rng.integers(-1, 2, size=shape) + 1j * rng.integers(-1, 2, size=shape)
            ) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return [noise, ints]


def _order(a, order):
    return as_planes(a) if order == "planes" else np.ascontiguousarray(a)


@pytest.mark.parametrize("order", ["planes", "c_order"])
def test_clifford_mul_at_frame_is_the_matrix_action(order):
    for s in _twisted_grids():
        s = _order(s, order)
        for e_a, matrix in zip(FRAME, (E1, E2)):
            assert (dh.clifford_mul(e_a, s) == np.einsum("st,...t->...s", matrix, s)).all()


def _closed_form_twistor(chart, psi0, psi1):
    """(f0 + z q, g0 - zbar p) for Psi1 = (p, q): Psi0 + x . Psi1 written out."""
    psi0 = np.asarray(psi0, dtype=np.complex128)
    psi1 = np.asarray(psi1, dtype=np.complex128)
    out = np.empty(chart.shape + (2,), dtype=np.complex128)
    out[..., 0] = psi0[0] + chart.z * psi1[1]
    out[..., 1] = psi0[1] - np.conj(chart.z) * psi1[0]
    return out


@pytest.mark.parametrize("make_chart", [
    pytest.param(lambda: dh.DomainChart.torus(64, side=1.0, window=0.5), id="torus-window"),
    pytest.param(lambda: dh.DomainChart.disk(64, side=2.2), id="disk")])
def test_twistor_field_has_the_bits_of_the_closed_form(make_chart, rng):
    # The torus has a node column at x = 0.  Where x . Psi1 meets an exact
    # zero (at x = 0, or from a zero half of Psi1) it may be +0 where the
    # closed form's -conj(z) p is -0, so the bits match while Psi0's second
    # half has no -0.0 part to carry that sign, and the values always do.
    chart = make_chart()
    plain = [(1.0, 0.0), (1.0, 0.5j), (0.3, 0.1j), (0.0, 0.0)]
    plain += [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
    negative_zero = [(0.2, -0.1j), (-0.0, -1j)]
    for k, psi0 in enumerate(plain + negative_zero):
        for psi1 in plain + negative_zero:
            got = dh.twistor_field(chart, psi0, psi1)
            ref = _closed_form_twistor(chart, psi0, psi1)
            assert (got == ref).all()
            assert k >= len(plain) or got.tobytes() == ref.tobytes()


def test_clifford_frame_contract_has_the_bits_of_clifford_mul():
    # Bit for bit on fields without exact zeros; where products meet exact
    # zeros of both signs, the sum of negated products and the negated sum
    # may differ in a zero's sign only.
    _, phi, psi = disk_twistor_pair(32)
    rng = np.random.default_rng(22)
    noise, ints = (as_planes(s) for s in _twisted_grids())
    rand_dphi = as_planes(rng.normal(size=(16, 16, 2, 3)))
    for dphi, psi_values, exact in ((phi.gradient(), psi.values, True),
                                    (rand_dphi, noise, True), (rand_dphi, ints, False)):
        ref = sum(dh.clifford_mul((dphi[..., 0, i], dphi[..., 1, i]), psi_values[..., i, :])
                  for i in range(dphi.shape[-1]))
        got = clifford_frame_contract(dphi, psi_values)
        assert (got == ref).all()
        assert not exact or got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("order", ["planes", "c_order"])
@pytest.mark.parametrize("make_chart", [
    pytest.param(lambda: dh.DomainChart.torus(16, side=1.1), id="torus"),
    pytest.param(lambda: dh.DomainChart.disk(16, side=2.2), id="disk")])
def test_flat_dirac_is_clifford_mul_on_the_derivatives(make_chart, order):
    chart = make_chart()
    for field in _twisted_grids(chart.n):
        field = _order(field, order)
        ref = (dh.clifford_mul(FRAME[0], chart.derivative(field, "x"))
               + dh.clifford_mul(FRAME[1], chart.derivative(field, "y")))
        assert (dh.flat_dirac(field, chart) == ref).all()


@pytest.mark.parametrize("axis", [-1, (-2, -1), None], ids=["spinor", "twisted", "grid"])
def test_pairing_and_norm_match_vdot(rng, axis):
    shape = (5, 4, 3, 2)                        # a small twisted spinor grid
    s, t = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    kept = {-1: shape[:3], (-2, -1): shape[:2], None: ()}[axis]
    ref_pair = np.array([np.vdot(s[i], t[i]).real for i in np.ndindex(kept)]).reshape(kept)
    ref_norm = np.array([np.vdot(s[i], s[i]).real for i in np.ndindex(kept)]).reshape(kept)
    np.testing.assert_allclose(dh.re_pairing(s, t, axis=axis), ref_pair, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(dh.spinor_norm2(s, axis=axis), ref_norm, rtol=1e-14)
    # Through work and out arrays: the same bits, the products left in ``work``.
    work, out = np.empty_like(s), np.empty(kept)
    assert dh.re_pairing(s, t, axis=axis, out=out, work=work) is out
    assert np.array_equal(out, dh.re_pairing(s, t, axis=axis))
    assert np.array_equal(work, np.conj(s) * t)


class TestFlatDirac:
    def test_constant_field_maps_to_zero(self):
        chart = dh.DomainChart.torus(32)
        fld = np.zeros(chart.shape + (2,), dtype=complex)
        fld[:] = [1.0, 1.0 + 1.0j]
        assert np.abs(dh.flat_dirac(fld, chart)).max() == 0.0

    def test_forms_agree_to_machine(self, rng):
        chart = dh.DomainChart.torus(48)
        fld = (dh.bandlimited_field(chart, rng, components=(2,), kmax=3)
               + 1j * dh.bandlimited_field(chart, rng, components=(2,), kmax=3))
        # The frame form against verify's Cauchy-Riemann reference.
        d1 = dh.flat_dirac(fld, chart)
        d2 = _cauchy_riemann_dirac(fld, chart)
        scale = np.sqrt(dh.spinor_norm2(d1)).max()
        assert np.abs(d1 - d2).max() <= 1e-13 * scale

    @pytest.mark.parametrize("component,expected", [(1, (2.0, 0.0)), (0, (0.0, -2.0))])
    def test_windowed_antiholomorphic_and_holomorphic_fields(self, component, expected):
        # g = w(z) zbar gives dirac (2, 0) at the window center; f = w(z) z
        # gives (0, -2).  Cross-checked against an independent 1D five-point
        # derivative oracle below.
        errs = []
        for n in (64, 128):
            chart = dh.DomainChart.torus(n, side=1.0, window=0.5)
            fld = np.zeros(chart.shape + (2,), dtype=complex)
            base = chart.z if component == 0 else np.conj(chart.z)
            fld[..., component] = bump(chart) * base
            out = dh.flat_dirac(fld, chart)
            iy = ix = n // 2  # node at the origin
            assert abs(chart.z[iy, ix]) < 1e-12
            errs.append(np.abs(out[iy, ix] - np.array(expected)).max())
        assert_second_order(*errs)

    def test_center_value_matches_independent_oracle(self):
        n = 64
        chart = dh.DomainChart.torus(n, side=1.0, window=0.5)
        g = bump(chart) * np.conj(chart.z)
        iy = ix = n // 2
        h = chart.h
        dx = fd5_derivative(g[iy, ix - 2:ix + 3], h)
        dy = fd5_derivative(g[iy - 2:iy + 3, ix], h)
        dzbar = 0.5 * (dx + 1j * dy)
        assert abs(2.0 * dzbar - 2.0) < 5e-4
        fld = np.zeros(chart.shape + (2,), dtype=complex)
        fld[..., 1] = g
        out = dh.flat_dirac(fld, chart)[iy, ix]
        # The production stencil is second order; the oracle fourth order, so
        # their gap is the production truncation error itself.
        assert abs(out[0] - 2.0 * dzbar) < 2.5e-2


class TestTwistor:
    def test_constant_spinor_is_twistor(self):
        chart = dh.DomainChart.torus(16)
        out = dh.twistor_field(chart, dh.spinor(1, 0), dh.spinor(0, 0))
        assert (out == dh.spinor(1, 0)).all()

    def test_linear_part_uses_clifford_action(self, rng):
        chart = dh.DomainChart.torus(16)
        p1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        out = dh.twistor_field(chart, dh.spinor(0, 0), p1)
        np.testing.assert_allclose(out, dh.clifford_mul((chart.x, chart.y), p1),
                                   rtol=0, atol=1e-15)

    def test_dirac_of_twistor_is_minus_two_psi1(self, rng):
        chart = dh.DomainChart.torus(64, side=1.0, window=0.5)
        p1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        fld = dh.twistor_field(chart, rng.normal(size=2) + 0j, p1)
        slashed = dh.flat_dirac(fld, chart)
        gap = np.abs(slashed[chart.interior_mask] + 2.0 * p1).max()
        assert gap < 1e-10

    def test_twistor_defect_on_family_is_machine_zero(self, rng):
        chart = dh.DomainChart.torus(64, side=1.0, window=0.5)
        for _ in range(5):
            p0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            p1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            fld = dh.twistor_field(chart, p0, p1)
            assert dh.twistor_defect(fld, chart) <= 1e-10

    def test_nonaffine_field_has_positive_defect(self):
        chart = dh.DomainChart.torus(64, side=1.0, window=0.5)
        fld = np.zeros(chart.shape + (2,), dtype=complex)
        fld[..., 0] = chart.x**2
        assert dh.twistor_defect(fld, chart) > 1e-3

    def test_zero_field_has_zero_defect(self):
        chart = dh.DomainChart.torus(32, side=1.0, window=0.5)
        assert dh.twistor_defect(np.zeros(chart.shape + (2,), dtype=complex), chart) == 0.0

    def test_flat_family_has_complex_dimension_four(self):
        # Gram matrix of the four basis twistor fields has full rank: the
        # affine family measured on the grid is four-complex-dimensional.
        chart = dh.DomainChart.torus(32, side=1.0, window=0.5)
        basis = []
        for which in range(4):
            p0 = np.zeros(2, dtype=complex)
            p1 = np.zeros(2, dtype=complex)
            (p0 if which < 2 else p1)[which % 2] = 1.0
            basis.append(dh.twistor_field(chart, p0, p1).ravel())
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        svals = np.linalg.svd(gram, compute_uv=False)
        assert svals.min() > 1e-6 * svals.max()
