import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.fields import covariant_derivative
from diracharmonic.verify import canonical_compact_pair

from conftest import (_stereo_tangent, assert_second_order, conformality_defect,
                      disk_twistor_pair, elliptic_pair, hopf_oracle, moebius_identity,
                      moebius_similarity, random_sphere_pair, torus_deg1_pair)


def _divergence(chart, T):
    """sum_a D_a T_ab per b, shape (n, n, 2): the field whose interior L2
    norm ``em_defects`` reports."""
    return np.stack([chart.derivative(T[..., 0, b], "x") + chart.derivative(T[..., 1, b], "y")
                     for b in range(2)], axis=-1)


def _hopf(T):
    """The (2,0) part T_11 - i T_12 of the energy-momentum tensor."""
    return T[..., 0, 0] - 1j * T[..., 0, 1]


def _dbar_sup(chart, f):
    dbar = 0.5 * (chart.derivative(f, "x") + 1j * chart.derivative(f, "y"))
    return np.abs(dbar)[chart.interior_mask].max()


class TestEnergyMomentum:
    def test_vanishes_for_constant_pair(self):
        chart = dh.DomainChart.torus(32)
        phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
        psi = dh.TwistedSpinorField.zero(chart, phi.target)
        T = dh.energy_momentum(phi, psi)
        assert T.shape == chart.shape + (2, 2)
        assert np.abs(T).max() == 0.0
        assert dh.em_defects(phi, psi) == (0.0, 0.0, 0.0)

    def test_symmetry_on_exact_solutions(self):
        for n in (64, 128):
            chart, phi, psi = torus_deg1_pair(n)
            assert dh.em_defects(phi, psi)[0] <= 1e-10 * dh.field_scale(phi, psi)

    @pytest.mark.parametrize("build", [lambda: torus_deg1_pair(48),
                                       lambda: disk_twistor_pair(48),
                                       lambda: random_sphere_pair(48)],
                             ids=["torus_deg1", "disk_twistor", "random_sphere"])
    def test_defects_are_read_off_the_tensor(self, build):
        # Symmetry sup, divergence L2 and dbar sup, all over the interior.
        chart, phi, psi = build()
        T = dh.energy_momentum(phi, psi)
        m = chart.interior_mask
        mag = np.sqrt((_divergence(chart, T) ** 2).sum(axis=-1))
        want = (np.abs(T[..., 0, 1] - T[..., 1, 0])[m].max(),
                np.sqrt((mag[m] ** 2).sum() * chart.h**2),
                _dbar_sup(chart, _hopf(T)))
        got = dh.em_defects(phi, psi)
        assert all(type(v) is float for v in got)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_conformal_map_part_trace_free(self):
        # Pure map part of a conformal field: T11 = -T22 and T12 = 0 at
        # stencil order.
        gaps = []
        for n in (64, 128):
            chart, phi, _ = torus_deg1_pair(n)
            psi0 = dh.TwistedSpinorField.zero(chart, phi.target)
            T = dh.energy_momentum(phi, psi0)
            m = chart.interior_mask
            t11 = T[..., 0, 0]
            t22 = T[..., 1, 1]
            t12 = T[..., 0, 1]
            gaps.append(max(np.abs(t11 + t22)[m].max(), np.abs(t12)[m].max()))
        assert_second_order(*gaps)

    def test_divergence_second_order_on_solutions(self):
        l2s, sups = [], []
        for n in (64, 128):
            chart, phi, psi = torus_deg1_pair(n)
            l2s.append(dh.em_defects(phi, psi)[1])
            mag = np.sqrt((_divergence(chart, dh.energy_momentum(phi, psi)) ** 2).sum(axis=-1))
            sups.append(mag[chart.interior_mask].max())
        assert_second_order(*l2s)
        assert sups[0] / sups[1] > 1.7  # sup decays at least first order

    def test_negative_control_dominates(self):
        _, phi, psi = torus_deg1_pair(64)
        good_sym, good, _ = dh.em_defects(phi, psi)

        _, phi_r, psi_r = random_sphere_pair(64, seed=8)
        bad_sym, bad, _ = dh.em_defects(phi_r, psi_r)
        assert bad > 100 * good
        assert bad_sym > 100 * max(good_sym, 1e-14)


class TestHopfDifferential:
    def test_map_part_machine_zero_for_conformal_analytic(self):
        # The map part of T, from the exact gradient.
        _, phi, _ = torus_deg1_pair(64)
        assert np.abs(conformality_defect(phi, analytic=True)).max() <= 1e-10

    @pytest.mark.parametrize("build", [lambda: disk_twistor_pair(64),
                                       lambda: elliptic_pair(32),
                                       lambda: random_sphere_pair(48)],
                             ids=["disk_twistor", "elliptic", "random_sphere"])
    def test_is_the_2_0_part_of_the_energy_momentum_tensor(self, build):
        # Read off T, the coefficient matches the explicit formula to round-off.
        _, phi, psi = build()
        T = dh.energy_momentum(phi, psi)
        assert np.abs(_hopf(T) - hopf_oracle(phi, psi)).max() <= 1e-13 * np.abs(T).max()

    def test_geodesic_wrap_gives_constant_coefficient(self):
        # (cos 2 pi x, sin 2 pi x, 0): |phi_x|^2 = 4 pi^2, phi_y = 0.
        gaps = []
        for n in (64, 128):
            chart = dh.DomainChart.torus(n)
            phi = dh.harmonic_wrap(chart)
            psi0 = dh.TwistedSpinorField.zero(chart, phi.target)
            hopf = _hopf(dh.energy_momentum(phi, psi0))
            gaps.append(np.abs(hopf - 4 * np.pi**2).max())
        assert gaps[0] < 0.3
        assert_second_order(*gaps)

    def test_dbar_defect_second_order_on_solutions(self):
        vals = []
        for n in (64, 128):
            chart, phi, psi = torus_deg1_pair(n)
            vals.append(dh.em_defects(phi, psi)[2])
        assert_second_order(*vals)

    def test_dbar_defect_bounded_away_for_random_fields(self):
        vals = []
        for n in (48, 96):
            chart, phi, psi = random_sphere_pair(n, seed=4)
            vals.append(dh.em_defects(phi, psi)[2])
        assert min(vals) > 1.0
        assert vals[0] / vals[1] < 2.0

    def test_trace_identity_on_circles(self):
        # Re[z^2 T] = r^2 |phi_r|^2 - |phi_theta|^2 - (psi, e_th grad_th psi)
        gaps = []
        for n in (64, 128):
            chart, phi, psi = disk_twistor_pair(n)
            hopf = _hopf(dh.energy_momentum(phi, psi))
            r = 0.5
            n_theta = 4 * chart.n
            theta, px, py = chart.circle_points(r, n_theta)
            ct, st = np.cos(theta), np.sin(theta)
            z2T = chart.interp(hopf, px, py) * (px + 1j * py) ** 2
            d = phi.gradient()
            dx = chart.interp(d[..., 0, :], px, py)
            dy = chart.interp(d[..., 1, :], px, py)
            phi_r = ct[:, None] * dx + st[:, None] * dy
            phi_t = -st[:, None] * dx + ct[:, None] * dy
            gx = chart.interp(covariant_derivative(phi, psi.values, "x"), px, py)
            gy = chart.interp(covariant_derivative(phi, psi.values, "y"), px, py)
            grad_t = -st[:, None, None] * gx + ct[:, None, None] * gy
            psi_v = chart.interp(psi.values, px, py)
            et_gt = dh.clifford_mul((-st[:, None], ct[:, None]), grad_t)
            spin_t = np.real(np.conj(psi_v) * et_gt).sum(axis=(-2, -1))
            rhs = r**2 * ((phi_r**2).sum(-1) - (phi_t**2).sum(-1) - spin_t)
            gaps.append(np.abs(np.real(z2T) - rhs).max())
        assert_second_order(*gaps)


class TestWeitzenboeck:
    def test_zero_for_constant_pair(self):
        chart = dh.DomainChart.torus(32)
        phi, psi = dh.constant_spinor_pair(chart, dh.Sphere(2), (0, 0, 1), (1, 0, 0), (1, 0))
        assert dh.weitzenboeck_defect(phi, psi) < 1e-13

    def test_second_order_on_random_pairs(self):
        vals = [dh.weitzenboeck_defect(*random_sphere_pair(n, seed=3)[1:])
                for n in (48, 96)]
        assert_second_order(*vals)

    def test_flat_target_reduces_to_lichnerowicz(self, rng):
        # Dirac squared equals minus the (wide) Laplacian componentwise.
        chart = dh.DomainChart.torus(48)
        flat = dh.Flat(3)
        phi = dh.MapField(chart, flat,
                          dh.bandlimited_field(chart, rng, components=(3,), kmax=2))
        psi = dh.TwistedSpinorField(
            chart, flat, dh.bandlimited_field(chart, rng, components=(3, 2), kmax=2)
            + 1j * dh.bandlimited_field(chart, rng, components=(3, 2), kmax=2))
        assert dh.weitzenboeck_defect(phi, psi) < 1e-12


class TestBochner:
    def test_zero_for_constant_pair(self):
        chart = dh.DomainChart.torus(32)
        phi, psi = dh.constant_spinor_pair(chart, dh.Sphere(2), (0, 0, 1), (1, 0, 0), (1, 0))
        assert dh.bochner_defect(phi, psi, dh.field_scale(phi, psi)) < 1e-12

    def test_second_order_on_exact_solutions(self):
        vals = []
        for n in (64, 128):
            _, phi, psi = torus_deg1_pair(n)
            vals.append(dh.bochner_defect(phi, psi, dh.field_scale(phi, psi)))
        assert_second_order(*vals)

    def test_flat_harmonic_spinor_reduction(self):
        # Flat target with a constant spinor: (1/2) lap |psi|^2 = |grad psi|^2
        # holds to machine because both sides vanish; a z-linear twistor
        # profile with the window mask checks the nontrivial balance.
        gaps = []
        for n in (64, 128):
            chart = dh.DomainChart.torus(n, side=1.0, window=0.5)
            flat = dh.Flat(1)
            phi = dh.MapField(chart, flat, np.zeros(chart.shape + (1,)))
            vals = dh.twistor_field(chart, dh.spinor(0.3, -1j), dh.spinor(0.2, 0.1))
            psi = dh.TwistedSpinorField(chart, flat, vals[..., None, :])
            # A scale 1000 times the field scale: a Dirac bound of 10 x scale.
            gaps.append(dh.bochner_defect(phi, psi, 1e3 * dh.field_scale(phi, psi)))
        assert gaps[1] < 1e-9  # affine fields: centered stencils are exact

    def test_precondition_error_names_measured_residual(self):
        chart, phi, psi = random_sphere_pair(48, seed=6)
        with pytest.raises(ValueError, match=r"Dirac residual [0-9.e+-]+ exceeds"):
            dh.bochner_defect(phi, psi, 1e-4 * dh.field_scale(phi, psi))


class TestPohozaev:
    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
    def test_second_order_on_exact_solutions(self, r):
        rels = []
        for n in (64, 128):
            chart, phi, psi = disk_twistor_pair(n)
            rels.append(dh.pohozaev_defect(phi, psi, r))
        assert rels[0] < 1e-2
        assert rels[1] < rels[0] * 0.75

    def test_torus_chart_rejected(self):
        _, phi, psi = torus_deg1_pair(32)
        with pytest.raises(ValueError, match="disk chart"):
            dh.pohozaev_defect(phi, psi, 0.25)

    def test_rotationally_symmetric_harmonic_map(self):
        chart, phi, _ = disk_twistor_pair(128)
        psi0 = dh.TwistedSpinorField.zero(chart, phi.target)
        assert dh.pohozaev_defect(phi, psi0, 0.5) < 1e-4

    def test_radius_validation(self):
        chart, phi, psi = disk_twistor_pair(64)
        with pytest.raises(ValueError):
            dh.pohozaev_defect(phi, psi, 0.999)

    def test_negative_control(self):
        chart = dh.DomainChart.disk(96)
        rng = np.random.default_rng(3)
        sphere = dh.Sphere(2)
        base = np.zeros(chart.shape + (3,))
        base[..., 2] = 1.0
        dev = dh.bandlimited_field(chart, rng, components=(3,), kmax=2, amplitude=0.8)
        phi = dh.MapField(chart, sphere, sphere.project_point(base + dev))
        psi = dh.project_spinor(phi, dh.bandlimited_field(chart, rng, components=(3, 2), kmax=2)
                                + 1j * dh.bandlimited_field(chart, rng, components=(3, 2), kmax=2))
        assert dh.pohozaev_defect(phi, psi, 0.5) > 1e-2


class TestConformalInvariance:
    def test_identity_map_is_exact(self):
        phi, psi = canonical_compact_pair(64)
        for action_defect, energy_defect in dh.conformal_invariance_defect(
                phi, psi, [moebius_identity()]).values():
            assert action_defect < 1e-14
            assert energy_defect < 1e-14

    def test_exactly_one_convention_is_second_order(self):
        maps = [dh.MoebiusMap.disk_automorphism(0.4),
                dh.MoebiusMap.disk_automorphism(0.25 + 0.2j, theta=0.7),
                moebius_similarity(0.8, 0.05),
                moebius_similarity(2.0)]
        for f in maps:
            # Per grid 64, 128: (action, energy) per convention.
            checks = [dh.conformal_invariance_defect(*canonical_compact_pair(n), [f])
                      for n in (64, 128)]
            win = [grid["inverse_fprime"] for grid in checks]
            assert_second_order(win[0][0], win[1][0])
            assert_second_order(win[0][1], win[1][1])
            lose = [grid["fprime"] for grid in checks]
            ratio = lose[0][0] / lose[1][0]
            assert ratio < 2.5
            assert lose[1][0] > 3 * win[1][0]


class TestDecayDiagnostics:
    def test_constant_pair_all_zero(self):
        chart = dh.DomainChart.disk(64)
        phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
        psi = dh.TwistedSpinorField.zero(chart, phi.target)
        prof = dh.decay_profile(phi, psi)
        for key in ("dphi_weighted", "psi_weighted", "grad_psi_weighted",
                    "annulus_energy", "growth"):
            assert np.abs(prof[key]).max() == 0.0

    def test_bounded_columns_for_exact_solution(self):
        chart, phi, psi = disk_twistor_pair(96)
        prof = dh.decay_profile(phi, psi)
        assert prof["dphi_weighted"].max() < 10.0
        assert prof["psi_weighted"].max() < 10.0

    def test_growth_function_monotone(self):
        chart, phi, psi = disk_twistor_pair(96)
        g = dh.decay_profile(phi, psi)["growth"]
        assert (np.diff(g) >= -1e-13).all()

    def test_needs_disk(self):
        chart, phi, psi = elliptic_pair(32)
        with pytest.raises(ValueError):
            dh.decay_profile(phi, psi)

    def test_default_radii_need_11h_below_1(self):
        # The radii 6h .. 1 - 5h increase only when 11 * 2.2 / n < 1: n >= 25.
        chart, phi, psi = disk_twistor_pair(24)
        with pytest.raises(ValueError, match="n >= 25"):
            dh.decay_profile(phi, psi)
        chart, phi, psi = disk_twistor_pair(25)
        assert (np.diff(dh.decay_profile(phi, psi)["r"]) > 0).all()

    def test_gradient_column_is_the_covariant_gradient(self):
        chart, phi, psi = disk_twistor_pair(48)
        prof = dh.decay_profile(phi, psi)
        gmag = np.sqrt(sum((np.abs(covariant_derivative(phi, psi.values, axis)) ** 2)
                           .sum(axis=(-2, -1)) for axis in ("x", "y")))
        for r, got in zip(prof["r"], prof["grad_psi_weighted"]):
            _, px, py = chart.circle_points(r, 4 * chart.n)
            want = chart.interp(gmag, px, py).max() * r**1.5
            assert abs(got - want) <= 1e-12 * want


class TestChartFixture:
    """Stereographic half-sphere chart: the Christoffel form of the twisted
    derivative must agree with the extrinsic tangential projection."""

    def _fixture(self, n):
        chart = dh.DomainChart.torus(n)
        c1 = 0.25 * np.sin(2 * np.pi * chart.x) + 0.1 * np.cos(2 * np.pi * chart.y)
        c2 = 0.2 * np.sin(2 * np.pi * (chart.x + chart.y))
        w = c1 + 1j * c2
        jac = np.stack([_stereo_tangent(w, np.ones_like(w)),
                        _stereo_tangent(w, 1j * np.ones_like(w))], axis=-2)
        phi = dh.MapField(chart, dh.Sphere(2), dh.stereo_pair(w, 1))
        rng = np.random.default_rng(9)
        coeff = (dh.bandlimited_field(chart, rng, components=(2, 2), kmax=2)
                 + 1j * dh.bandlimited_field(chart, rng, components=(2, 2), kmax=2))
        psi_vals = (jac[..., :, :, None] * coeff[..., :, None, :]).sum(axis=-3)
        psi = dh.TwistedSpinorField(chart, phi.target, psi_vals)
        return chart, phi, psi, (c1, c2), jac, coeff

    def test_gamma_form_matches_extrinsic_derivative(self):
        gaps = []
        for n in (48, 96):
            chart, phi, psi, (c1, c2), jac, coeff = self._fixture(n)
            grad_ext = [covariant_derivative(phi, psi.values, axis) for axis in ("x", "y")]

            # Conformal-factor Christoffels of the stereographic metric.
            denom = 1.0 + c1**2 + c2**2
            dlog = np.stack([-2.0 * c1 / denom, -2.0 * c2 / denom], axis=-1)
            dc = np.stack(
                [np.stack([chart.derivative(c1, ax), chart.derivative(c2, ax)], -1)
                 for ax in ("x", "y")], axis=-2)
            dcoeff = np.stack([chart.derivative(coeff, "x"),
                               chart.derivative(coeff, "y")], axis=-3)
            gap_n = 0.0
            for alpha in range(2):
                gamma_term = np.zeros(chart.shape + (2, 2), dtype=complex)
                for i in range(2):
                    for j in range(2):
                        for k in range(2):
                            gamma = ((i == j) * dlog[..., k] + (i == k) * dlog[..., j]
                                     - (j == k) * dlog[..., i])
                            gamma_term[..., i, :] += (gamma * dc[..., alpha, j])[..., None] \
                                * coeff[..., k, :]
                intrinsic = dcoeff[..., alpha, :, :] + gamma_term
                ambient = (jac[..., :, :, None] * intrinsic[..., :, None, :]).sum(axis=-3)
                gap_n = max(gap_n, np.abs(ambient - grad_ext[alpha]).max())
            gaps.append(gap_n)
        assert_second_order(*gaps)
