import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.fields import dirichlet_density

from conftest import (_stereo_tangent, assert_second_order, elliptic_pair,
                      random_sphere_pair, sphere_dirichlet_energy, torus_deg1_pair)


class TestFieldTypes:
    def test_shape_validation(self):
        chart = dh.DomainChart.torus(16)
        with pytest.raises(ValueError):
            dh.MapField(chart, dh.Sphere(2), np.zeros((16, 16, 4)))
        with pytest.raises(ValueError):
            dh.TwistedSpinorField(chart, dh.Sphere(2), np.zeros((16, 16, 3)))

    @pytest.mark.parametrize("target,point,message", [
        (dh.Sphere(2), (0.0, 1.0), "base point needs 3 components, got 2"),
        (dh.Flat(4), (0.0, 0.0, 1.0), "base point needs 4 components, got 3"),
    ])
    def test_constant_names_a_wrong_length_base_point(self, target, point, message):
        with pytest.raises(ValueError, match=message):
            dh.MapField.constant(dh.DomainChart.torus(16), target, point)

    def test_project_spinor_enforces_tangency(self, rng):
        _, phi, _ = random_sphere_pair(24)
        raw = rng.normal(size=phi.chart.shape + (3, 2)) + 0j
        psi = dh.project_spinor(phi, raw)
        assert dh.tangency_defect(phi, psi) < 1e-12


class TestTension:
    def test_constant_map(self):
        chart = dh.DomainChart.torus(32)
        phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 1, 0))
        assert np.abs(dh.tension(phi)).max() == 0.0

    def test_geodesic_wrap_is_discrete_harmonic(self):
        chart = dh.DomainChart.torus(64)
        phi = dh.harmonic_wrap(chart)
        assert np.abs(dh.tension(phi)).max() < 1e-10

    def test_conformal_map_harmonic_at_second_order(self):
        sups = []
        for n in (64, 128):
            chart, phi, _ = torus_deg1_pair(n)
            sups.append(np.abs(dh.tension(phi))[chart.interior_mask].max())
        assert_second_order(*sups)

    def test_projection_form_matches_extrinsic_form(self):
        # tau = tangential lap(phi) agrees with lap(phi) + |dphi|^2 phi at
        # second order on smooth sphere maps.
        gaps = []
        for n in (48, 96):
            chart, phi, _ = random_sphere_pair(n, amp=0.5)
            lap = chart.laplacian(phi.values)
            d = phi.gradient()
            extr = lap + (d**2).sum(axis=(-2, -1))[..., None] * phi.values
            gaps.append(np.abs(dh.tension(phi) - extr).max())
        assert_second_order(*gaps)


class TestDiracAlongMap:
    def test_constant_pair_is_exactly_flat(self):
        chart = dh.DomainChart.torus(32)
        phi, psi = dh.constant_spinor_pair(chart, dh.Sphere(2), (0, 0, 1), (1, 0, 0), (1, 0))
        assert np.abs(dh.dirac_along_map(phi, psi)).max() == 0.0
        assert np.abs(dh.el_residual(phi, psi).normal_defect).max() < 1e-14

    def test_pushforward_residual_second_order(self):
        sups = []
        for n in (64, 128):
            chart, phi, psi = torus_deg1_pair(n)
            spin = dh.dirac_along_map(phi, psi)
            sups.append(np.sqrt(dh.spinor_norm2(spin).sum(-1))[chart.interior_mask].max())
        assert_second_order(*sups)

    def test_normal_defect_second_order_on_generic_fields(self):
        sups = []
        for n in (48, 96):
            chart, phi, psi = random_sphere_pair(n)
            defect = dh.el_residual(phi, psi).normal_defect
            sups.append(np.sqrt(dh.spinor_norm2(defect).sum(-1)).max())
        assert_second_order(*sups)


class TestCheckPair:
    def test_overflowing_energy_is_rejected_naming_it(self, recwarn):
        # A tangent spinor of finite values whose |psi|^2 overflows.
        _, phi, psi = elliptic_pair(16)
        huge = dh.TwistedSpinorField(phi.chart, phi.target, psi.values * 1e300)
        assert np.isfinite(huge.values).all()
        with pytest.raises(dh.InadmissiblePair, match="energy overflows") as exc:
            dh.check_pair(phi, huge)
        assert exc.value.code == "bad_values"
        assert not recwarn.list  # the error is the one report

    def test_normal_spinor_is_rejected_naming_tangency(self):
        chart = dh.DomainChart.torus(24)
        phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
        bad = np.zeros(chart.shape + (3, 2), dtype=complex)
        bad[..., 2, 0] = 1.0  # purely normal component
        with pytest.raises(ValueError, match="violates tangency") as exc:
            dh.check_pair(phi, dh.TwistedSpinorField(chart, phi.target, bad))
        assert exc.value.code == "not_tangent"

    def test_non_finite_value_is_rejected(self):
        chart = dh.DomainChart.torus(16)
        phi, psi = dh.constant_spinor_pair(chart, dh.Sphere(2), (0, 0, 1), (1, 0, 0), (1, 0))
        psi.values[3, 4, 0, 1] = np.nan
        with pytest.raises(dh.InadmissiblePair, match="non-finite value") as exc:
            dh.check_pair(phi, psi)
        assert exc.value.code == "bad_values"

    @pytest.mark.parametrize("dim", [2, 3])
    def test_map_off_the_sphere_is_rejected_naming_it(self, dim):
        chart = dh.DomainChart.torus(16)
        vals = np.zeros(chart.shape + (dim + 1,))
        vals[..., -1] = 1.0 + 2e-9
        phi = dh.MapField(chart, dh.Sphere(dim), vals)
        with pytest.raises(dh.InadmissiblePair, match=r"leaves the target by 4\.000e-09 "
                           r"\(tol 1\.0e-10\)") as exc:
            dh.check_pair(phi, dh.TwistedSpinorField.zero(chart, phi.target))
        assert exc.value.code == "off_target"
        # The same values as a flat map: no target to leave.
        flat = dh.MapField(chart, dh.Flat(dim + 1), vals)
        dh.check_pair(flat, dh.TwistedSpinorField.zero(chart, flat.target))

    def test_off_target_is_judged_before_tangency(self):
        chart = dh.DomainChart.torus(16)
        vals = np.zeros(chart.shape + (3,))
        vals[..., 2] = 2.0
        bad = np.zeros(chart.shape + (3, 2), dtype=complex)
        bad[..., 2, 0] = 1.0  # normal as well
        phi = dh.MapField(chart, dh.Sphere(2), vals)
        with pytest.raises(dh.InadmissiblePair) as exc:
            dh.check_pair(phi, dh.TwistedSpinorField(chart, phi.target, bad))
        assert exc.value.code == "off_target"

    @pytest.mark.parametrize("text", [
        "[chart]\ntopology = disk\n\n[scenario]\nkind = twistor_pushforward\n",
        "[scenario]\nkind = twistor_pushforward\nrational_num = 0,0,1\npsi1 = 0.2,-0.1j\n",
        "[scenario]\nkind = elliptic_pair\n",
        "[scenario]\nkind = harmonic_wrap\nwinding = 2\n",
        "[scenario]\nkind = constant_spinor\n",
        "[target]\nkind = flat\ndim = 3\n\n[scenario]\nkind = constant_spinor\n",
        "[target]\ndim = 3\n\n[scenario]\nkind = constant_spinor\nbase_point = 0,0,0,1\n"
        "spinor_direction = 1,0,0,0\n",
        "[scenario]\nkind = perturbed_constant\n",
    ], ids=["twistor_disk", "twistor_deg2", "elliptic", "wrap2", "constant", "flat3", "sphere3",
            "perturbed"])
    def test_every_scenario_pair_is_admissible(self, text):
        phi, psi = dh.build_pair(dh.parse_config("[chart]\nn = 16\n" + text))
        assert dh.check_pair(phi, psi) is None


class TestCurvatureTerm:
    def test_flat_target_zero(self, rng):
        chart = dh.DomainChart.torus(24)
        flat = dh.Flat(3)
        phi = dh.MapField(chart, flat, rng.normal(size=chart.shape + (3,)))
        psi = dh.TwistedSpinorField(chart, flat,
                                    rng.normal(size=chart.shape + (3, 2)) + 0j)
        assert np.abs(dh.curvature_term(phi, psi)).max() == 0.0

    def test_pushforward_annihilation_independent_of_h(self):
        for n in (32, 64, 128):
            chart, phi, psi = torus_deg1_pair(n)
            scale = dh.field_scale(phi, psi)
            assert np.abs(dh.curvature_term(phi, psi)).max() <= 1e-10 * scale

    def test_orthogonal_to_the_map(self):
        chart, phi, psi = random_sphere_pair(48)
        ct = dh.curvature_term(phi, psi)
        pairing = (ct * phi.values).sum(axis=-1)
        assert np.abs(pairing).max() <= 1e-10 * dh.field_scale(phi, psi)

    def test_extrinsic_matches_intrinsic_chart_contraction(self):
        # Express everything in the stereographic chart of the sphere and
        # contract with the chart curvature tensor of constant curvature 1;
        # mapping back must reproduce the production ambient evaluation.
        chart = dh.DomainChart.torus(48)
        rng = np.random.default_rng(5)
        c1 = 0.25 * np.sin(2 * np.pi * chart.x) + 0.1 * np.cos(2 * np.pi * chart.y)
        c2 = 0.2 * np.sin(2 * np.pi * (chart.x + chart.y))
        w = c1 + 1j * c2
        phi_vals = dh.stereo_pair(w, 1)
        jac = np.stack([_stereo_tangent(w, np.ones_like(w)),
                        _stereo_tangent(w, 1j * np.ones_like(w))], axis=-2)
        phi = dh.MapField(chart, dh.Sphere(2), phi_vals)
        coeff = (dh.bandlimited_field(chart, rng, components=(2, 2), kmax=2)
                 + 1j * dh.bandlimited_field(chart, rng, components=(2, 2), kmax=2))
        psi_vals = (jac[..., :, :, None] * coeff[..., :, None, :]).sum(axis=-3)
        psi = dh.project_spinor(phi, psi_vals)

        lam2 = (2.0 / (1.0 + c1**2 + c2**2)) ** 2
        dc = np.stack([np.stack([chart.derivative(c1, "x"), chart.derivative(c2, "x")], -1),
                       np.stack([chart.derivative(c1, "y"), chart.derivative(c2, "y")], -1)],
                      axis=-2)
        frame = dh.spinors.FRAME
        sigma_chart = np.zeros(chart.shape + (2,), dtype=complex)
        for a in range(2):
            for b in range(2):
                sigma_chart += dc[..., a, b, None] * dh.clifford_mul(frame[a], coeff[..., b, :])
        intr = np.zeros(chart.shape + (2,))
        for m in range(2):
            intr[..., m] = lam2 * np.real(
                np.conj(coeff[..., m, :]) * sigma_chart).sum(axis=-1)
        intrinsic_ambient = (jac * intr[..., :, None]).sum(axis=-2)

        produced = dh.curvature_term(phi, psi)
        gap = np.abs(produced - intrinsic_ambient).max()
        scale = np.abs(produced).max() + 1e-30
        assert gap <= 2e-2 * scale  # O(h^2): different discrete gradients


class TestELResidual:
    def test_harmonic_map_family(self):
        chart = dh.DomainChart.torus(64)
        phi = dh.harmonic_wrap(chart)
        psi = dh.TwistedSpinorField.zero(chart, phi.target)
        res = dh.el_residual(phi, psi)
        assert res.norms["map_sup"] < 1e-10
        assert res.norms["spinor_sup"] == 0.0

    def test_constant_spinor_family(self):
        chart = dh.DomainChart.torus(64)
        phi, psi = dh.constant_spinor_pair(chart, dh.Sphere(2), (0, 0, 1), (1, 0, 0), (1, 0))
        res = dh.el_residual(phi, psi)
        assert res.norms["map_sup"] <= 1e-12
        assert res.norms["spinor_sup"] <= 1e-12

    def test_pushforward_family_second_order(self):
        norms = []
        for n in (64, 128):
            _, phi, psi = torus_deg1_pair(n)
            res = dh.el_residual(phi, psi)
            norms.append(res.norms)
        for key in ("map_sup", "spinor_sup", "normal_sup"):
            assert_second_order(norms[0][key], norms[1][key])

    def test_residual_fields_are_tangent(self):
        _, phi, psi = elliptic_pair(48)
        res = dh.el_residual(phi, psi)
        normal_part = (res.map_residual * phi.values).sum(axis=-1)
        assert np.abs(normal_part).max() < 1e-10
        pair = (phi.values[..., :, None] * res.spinor_residual).sum(axis=-2)
        assert np.abs(pair).max() < 1e-10


class TestActionEnergy:
    def test_zero_for_constant_map_zero_spinor(self):
        chart = dh.DomainChart.torus(32)
        phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
        psi = dh.TwistedSpinorField.zero(chart, phi.target)
        assert dh.action(phi, psi) == 0.0
        assert dh.energy(phi, psi) == 0.0

    def test_action_reduces_to_dirichlet_on_solutions(self):
        gaps = []
        for n in (64, 128):
            chart, phi, psi = torus_deg1_pair(n)
            m = chart.interior_mask
            a = dh.action(phi, psi, region=m)
            d = chart.integrate(dirichlet_density(phi), region=m)
            gaps.append(abs(a - d) / abs(a))
        assert gaps[1] < 2e-4
        assert gaps[0] / gaps[1] > 2.0

    def test_spinor_action_density_cancels_for_constant_twistor(self):
        # With a constant twistor seed the pointwise spinor action density
        # cancels algebraically, not just at stencil order.
        chart, phi, psi = elliptic_pair(48)
        spin = dh.dirac_along_map(phi, psi)
        dens = dh.re_pairing(psi.values, spin, axis=(-2, -1))
        assert np.abs(dens).max() < 1e-12

    def test_degree_one_dirichlet_energy_is_eight_pi(self):
        E = sphere_dirichlet_energy(dh.RationalMap([0, 1]))
        assert abs(E - 8 * np.pi) / (8 * np.pi) < 0.01


class TestSelfAdjointness:
    def test_exact_on_torus_random_triples(self):
        chart, phi, psi = random_sphere_pair(48, seed=21)
        for k in range(5):
            rng = np.random.default_rng(100 + k)
            raw = (dh.bandlimited_field(chart, rng, components=(3, 2), kmax=2)
                   + 1j * dh.bandlimited_field(chart, rng, components=(3, 2), kmax=2))
            xi = dh.project_spinor(phi, raw)
            assert dh.self_adjointness_defect(phi, psi, xi) <= 1e-11

    def test_requires_torus(self):
        chart = dh.DomainChart.disk(32)
        phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
        psi = dh.TwistedSpinorField.zero(chart, phi.target)
        with pytest.raises(ValueError):
            dh.self_adjointness_defect(phi, psi, psi)
