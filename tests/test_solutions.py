import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.solutions import _pair_wirtinger

from conftest import (_stereo_tangent, assert_second_order, conformality_defect, elliptic_pair,
                      harmonic_wrap_gradient, inverted_chart, sphere_dirichlet_energy,
                      torus_deg1_pair)


class TestInverseStereographic:
    def test_south_pole(self):
        assert np.allclose(dh.stereo_pair(0.0, 1), [0, 0, -1])

    def test_unit_point(self):
        assert np.allclose(dh.stereo_pair(1.0, 1), [1, 0, 0])

    def test_unit_norm_on_random_inputs(self, rng):
        z = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        z *= np.exp(rng.uniform(-8, 8, size=1000))  # huge dynamic range
        pts = dh.stereo_pair(z, 1)
        assert np.abs((pts**2).sum(axis=-1) - 1.0).max() <= 1e-14

    def test_pole_goes_north(self):
        assert np.allclose(dh.stereo_pair(np.array(1.0 + 0j), np.array(0.0j)), [0, 0, 1])


class TestRationalMap:
    def test_degree(self):
        assert dh.RationalMap([0, 1]).degree == 1
        assert dh.RationalMap([0, 0, 1]).degree == 2
        assert dh.RationalMap([1, 1], [1, -1]).degree == 1

    def test_common_root_rejected(self):
        with pytest.raises(ValueError):
            dh.RationalMap([-1, 1], [-1, 1])  # (z-1)/(z-1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            dh.RationalMap([1], [0])

    def test_inverted_chart_identity(self, rng):
        rm = dh.RationalMap([0.3, 1, 0.2j], [1, -0.4])
        inv = inverted_chart(rm)
        w = 0.5 * (rng.normal(size=20) + 1j * rng.normal(size=20))
        w = w[np.abs(w) > 0.05]
        p, q = inv.pair(np.conj(w))
        lhs = p / q
        p, q = rm.pair(1.0 / np.conj(w))
        rhs = p / q
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


class TestConformalMapField:
    def test_constant_map(self):
        chart = dh.DomainChart.torus(32)
        phi = dh.conformal_map_field(dh.RationalMap([0.5 + 0.2j]), chart)
        assert np.abs(phi.analytic_gradient).max() == 0.0
        d = phi.values - phi.values[0, 0]
        assert np.abs(d).max() == 0.0

    def test_degree_one_tension_second_order(self):
        sups = []
        for n in (64, 128):
            chart, phi, _ = torus_deg1_pair(n)
            sups.append(np.abs(dh.tension(phi))[chart.interior_mask].max())
        assert_second_order(*sups)

    def test_conformality_defect_machine_zero_analytic(self):
        chart, phi, _ = torus_deg1_pair(64)
        assert np.abs(conformality_defect(phi, analytic=True)).max() < 1e-13

    def test_conformality_defect_second_order_stencil(self):
        sups = []
        for n in (64, 128):
            chart, phi, _ = torus_deg1_pair(n)
            cd = conformality_defect(phi, analytic=False)
            sups.append(np.abs(cd)[chart.interior_mask].max())
        assert_second_order(*sups)

    def test_branched_map_conformal_away_from_branch_point(self):
        # R(z) = z^2 branches at 0; exclude a 4h ball and the defect is
        # still machine-zero analytically and O(h^2) via stencils.
        chart = dh.DomainChart.torus(96, side=1.0, window=0.5)
        phi = dh.conformal_map_field(dh.RationalMap([0, 0, 1]), chart)
        cd_a = conformality_defect(phi, analytic=True)
        assert np.abs(cd_a).max() < 1e-13
        mask = chart.interior_mask & (np.abs(chart.z) > 4 * chart.h)
        cd_s = conformality_defect(phi, analytic=False)
        assert np.abs(cd_s[mask]).max() < 0.3

    def test_pole_on_grid_is_harmless(self):
        # R(z) = 1/z has a pole at the origin; values stay unit and the
        # gradient stays finite through the projective formulas.
        chart = dh.DomainChart.torus(64, side=1.0, window=0.5)
        phi = dh.conformal_map_field(dh.RationalMap([1], [0, 1]), chart)
        assert np.isfinite(phi.values).all()
        assert np.isfinite(phi.analytic_gradient).all()
        assert np.abs((phi.values**2).sum(-1) - 1.0).max() < 1e-12

    def test_wirtinger_gradient_matches_chart_oracle(self, rng):
        # Off poles, the projective gradient equals the stereographic
        # chart-rule gradient.
        z = 0.4 * (rng.normal(size=30) + 1j * rng.normal(size=30))
        rm = dh.RationalMap([0.1, 1, 0.3], [1, 0.2])
        p, q = rm.pair(z)
        dp, dq = rm.derivative_pair(z)
        wirt = _pair_wirtinger(p, q, dp, dq)
        w = p / q
        dw = (dp * q - p * dq) / q**2
        for direction in (1.0, 1j):
            produced = 2.0 * (wirt * direction).real
            oracle = _stereo_tangent(w, dw * direction)
            assert np.abs(produced - oracle).max() < 1e-12


class TestTwistorPushforward:
    def test_zero_twistor_gives_zero_spinor(self):
        chart, phi, _ = torus_deg1_pair(32)
        psi = dh.twistor_pushforward(phi, dh.spinor(0, 0), dh.spinor(0, 0))
        assert np.abs(psi.values).max() == 0.0

    def test_constant_map_kills_pushforward(self):
        chart = dh.DomainChart.torus(32)
        phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
        psi = dh.twistor_pushforward(phi, dh.spinor(1, 0), dh.spinor(0.3, 0.4))
        assert np.abs(psi.values).max() == 0.0

    def test_tangency_is_algebraic(self):
        for n in (32, 64, 128):
            _, phi, psi = torus_deg1_pair(n)
            assert dh.tangency_defect(phi, psi) <= 1e-12

    def test_residuals_second_order_and_curvature_annihilated(self):
        norms = []
        for n in (64, 128):
            chart, phi, psi = torus_deg1_pair(n)
            res = dh.el_residual(phi, psi)
            norms.append(res.norms)
            scale = dh.field_scale(phi, psi)
            assert np.abs(dh.curvature_term(phi, psi)).max() <= 1e-10 * scale
        assert_second_order(norms[0]["map_sup"], norms[1]["map_sup"])
        assert_second_order(norms[0]["spinor_sup"], norms[1]["spinor_sup"])

    def test_non_twistor_spinor_fails_the_equation(self):
        # Replace the twistor with a quadratic-profile spinor: the Dirac
        # residual stays bounded away from zero under refinement.
        sups = []
        for n in (48, 96):
            chart, phi, _ = torus_deg1_pair(n)
            Psi = np.zeros(chart.shape + (2,), dtype=complex)
            Psi[..., 0] = chart.x**2
            e1Psi, e2Psi = (dh.clifford_mul(e_a, Psi) for e_a in dh.spinors.FRAME)
            d = phi.analytic_gradient
            vals = (d[..., 0, :, None] * e1Psi[..., None, :]
                    + d[..., 1, :, None] * e2Psi[..., None, :])
            psi = dh.TwistedSpinorField(chart, phi.target, vals)
            spin = dh.dirac_along_map(phi, psi)
            sups.append(np.sqrt(dh.spinor_norm2(spin).sum(-1))[chart.interior_mask].max())
        assert min(sups) > 0.05
        assert sups[0] / sups[1] < 2.0  # not vanishing at stencil order


class TestTrivialPairs:
    def test_harmonic_wrap_family(self):
        chart = dh.DomainChart.torus(64)
        phi = dh.harmonic_wrap(chart, winding=2)
        psi = dh.TwistedSpinorField.zero(chart, phi.target)
        res = dh.el_residual(phi, psi)
        assert res.norms["map_sup"] < 1e-9
        # The closed form has |dphi|^2 = k^2 with k = 2 pi winding; the
        # stencil gradient meets it within the centred difference's
        # relative error (k h)^2 / 6.
        k = 2 * np.pi * 2
        d = harmonic_wrap_gradient(chart, winding=2)
        assert np.abs((d**2).sum(axis=(-2, -1)) - k**2).max() < 1e-10
        assert np.abs(phi.gradient() - d).max() <= k * (k * chart.h) ** 2 / 6

    def test_constant_pair_machine_zero(self):
        chart = dh.DomainChart.torus(48)
        phi, psi = dh.constant_spinor_pair(chart, dh.Sphere(2), base_point=(0, 1, 0),
                                           spinor_direction=(0, 0, 1.0),
                                           spinor_components=(0.5, 0.5j))
        res = dh.el_residual(phi, psi)
        assert res.norms["map_sup"] <= 1e-12
        assert res.norms["spinor_sup"] <= 1e-12

    def test_twistor_spinor_on_constant_map_is_negative_control(self):
        # D(projected twistor) = -2 projected Psi1: nonzero unless the
        # tangent part of Psi1 vanishes.
        chart = dh.DomainChart.torus(64, side=1.0, window=0.5)
        phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
        p1 = dh.spinor(0.5, -0.25j)
        raw = np.zeros(chart.shape + (3, 2), dtype=complex)
        raw[..., 0, :] = dh.twistor_field(chart, dh.spinor(1, 0), p1)
        psi = dh.project_spinor(phi, raw)
        spin = dh.dirac_along_map(phi, psi)
        expected = np.zeros(chart.shape + (3, 2), dtype=complex)
        expected[..., 0, :] = -2.0 * np.asarray(p1)
        gap = np.abs(spin - expected)[chart.interior_mask].max()
        assert gap < 1e-10
        assert np.sqrt(dh.spinor_norm2(spin).sum(-1)).max() > 0.5


class TestEllipticFamily:
    def test_needs_torus(self):
        with pytest.raises(ValueError):
            dh.elliptic_conformal_field(dh.DomainChart.disk(32))

    def test_unit_norm_and_energy(self):
        chart = dh.DomainChart.torus(128)
        phi = dh.elliptic_conformal_field(chart, scale=0.7)
        assert np.abs((phi.values**2).sum(-1) - 1.0).max() < 1e-12
        E = chart.integrate((phi.analytic_gradient ** 2).sum(axis=(-2, -1)))
        assert abs(E - 16 * np.pi) < 1e-6  # degree-2 conformal map

    def test_coupled_residuals_second_order(self):
        norms = []
        for n in (64, 128):
            _, phi, psi = elliptic_pair(n)
            res = dh.el_residual(phi, psi)
            norms.append(res.norms)
        assert_second_order(norms[0]["map_sup"], norms[1]["map_sup"])
        assert_second_order(norms[0]["spinor_sup"], norms[1]["spinor_sup"])

    def test_degree_two_whole_sphere_energy(self):
        E = sphere_dirichlet_energy(dh.RationalMap([0, 0, 1]))
        assert abs(E - 16 * np.pi) / (16 * np.pi) < 0.01
