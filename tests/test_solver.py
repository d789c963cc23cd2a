import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.solver import MINIMA

from conftest import elliptic_pair, random_sphere_pair


def perturbed_constant(n, seed=9, amplitude=0.05, modes=(2, 3)):
    chart = dh.DomainChart.torus(n)
    rng = np.random.default_rng(seed)
    sphere = dh.Sphere(2)
    base = np.zeros(chart.shape + (3,))
    base[..., 2] = 1.0
    pert = dh.bandlimited_field(chart, rng, components=(3,), kmax=max(modes),
                                amplitude=amplitude, modes=modes)
    return dh.MapField(chart, sphere, sphere.project_point(base + pert))


class TestSolverConfig:
    def test_step_size_is_an_eighth_of_h_squared(self):
        # The map step is h^2/8, half the 5-point explicit-Euler limit: the
        # update is that multiple of the tension, added to phi and projected,
        # bit for bit.
        phi = perturbed_constant(32, amplitude=0.3)
        h = phi.chart.h
        moved = phi.values + (h * h / 8.0) * dh.tension(phi)
        out = dh.flow_step(phi, None)
        assert np.array_equal(out.values, phi.target.project_point(moved))

    @pytest.mark.parametrize("field,bad", [
        ("reproject_every", 0), ("trace_every", 0), ("power_iters", 0), ("max_iters", -1),
        ("residual_tol", -1e-3), ("residual_tol", float("nan")),
    ])
    def test_field_below_its_minimum_is_named(self, field, bad):
        with pytest.raises(ValueError, match=field):
            dh.SolverConfig(**{field: bad})

    def test_minima_themselves_are_accepted(self):
        cfg = dh.SolverConfig(**MINIMA)
        assert [getattr(cfg, name) for name in MINIMA] == list(MINIMA.values())


class TestFlowStep:
    def test_constant_map_is_fixed(self):
        chart = dh.DomainChart.torus(32)
        phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
        psi = dh.TwistedSpinorField.zero(chart, phi.target)
        out = dh.flow_step(phi, psi)
        assert np.abs(out.values - phi.values).max() == 0.0

    def test_exact_solution_moves_at_most_dt_times_truncation(self):
        _, phi, psi = elliptic_pair(64)
        dt = phi.chart.h**2 / 8.0
        res = dh.el_residual(phi, psi).norms["map_sup"]
        out = dh.flow_step(phi, psi)
        assert np.abs(out.values - phi.values).max() <= 1.5 * dt * res

    def test_preserves_unit_norm_exactly(self):
        _, phi, psi = random_sphere_pair(32, seed=1)
        out = dh.flow_step(phi, psi)
        assert np.abs((out.values**2).sum(-1) - 1.0).max() < 1e-14

    def test_heat_flow_energy_never_increases(self):
        from diracharmonic.fields import dirichlet_density
        phi = perturbed_constant(48, amplitude=0.6, modes=(1, 2, 3))
        psi = dh.TwistedSpinorField.zero(phi.chart, phi.target)
        prev = phi.chart.integrate(dirichlet_density(phi))
        for _ in range(60):
            phi = dh.flow_step(phi, psi)
            cur = phi.chart.integrate(dirichlet_density(phi))
            assert cur <= prev * (1 + 1e-12)
            prev = cur

    @pytest.mark.parametrize("side", [1.0, 1.1])
    def test_heat_step_lowers_the_compact_energy_by_dt_tension_squared(self, side):
        # Bartels (SIAM J. Numer. Anal. 43, 2005): with dt = h^2/8 each projected
        # heat step lowers E_c = sum_a int |D+_a phi|^2 by at least dt |tension|^2.
        # By parts on the torus, E_c = -sum_a sum_nodes <phi, delta_aa phi>.
        # The map is the heat bench's (bench/workloads.py, seed 5).
        chart = dh.DomainChart.torus(64, side=side)
        sphere = dh.Sphere(2)
        pert = dh.bandlimited_field(chart, np.random.default_rng(5), components=(3,),
                                    kmax=3, amplitude=0.5, modes=(2, 3))
        phi = dh.MapField(chart, sphere, sphere.project_point(np.array([0.0, 0.0, 1.0]) + pert))
        dt = chart.h**2 / 8.0

        def compact_energy(phi):
            return -sum(float((phi.values * chart.second_difference(phi.values, axis)).sum())
                        for axis in ("x", "y"))

        ratios = []
        e_c = compact_energy(phi)
        for _ in range(400):
            tau_norm2 = chart.h**2 * float((dh.tension(phi) ** 2).sum())
            phi = dh.flow_step(phi, None)
            e_next = compact_energy(phi)
            ratios.append((e_c - e_next) / (dt * tau_norm2))
            e_c = e_next
        assert min(ratios) >= 1.0


def ci_coupled_pair():
    """The coupled flow's start in CI: the torus twistor pair at n = 16."""
    return dh.build_pair(dh.parse_config("[chart]\nn = 16\n\n[scenario]\n"
                                         "kind = twistor_pushforward\n"))


def scaled(psi, factor):
    return dh.TwistedSpinorField(psi.chart, psi.target, psi.values * factor)


class TestDiracProject:
    def test_constant_map_kernel(self):
        chart = dh.DomainChart.torus(32)
        phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
        projection = dh.dirac_project(phi, None, dh.SolverConfig(seed=42))
        psi = projection.psi
        assert projection.ratio <= 1e-8
        assert dh.tangency_defect(phi, psi) <= 1e-10
        l2 = np.sqrt(float(dh.spinor_norm2(psi.values).sum()) * chart.h**2)
        assert abs(l2 - 1.0) <= 1e-12

    def test_flat_target_harmonic_spinor(self):
        chart = dh.DomainChart.torus(32)
        flat = dh.Flat(3)
        phi = dh.MapField(chart, flat, np.zeros(chart.shape + (3,)))
        assert dh.dirac_project(phi, None, dh.SolverConfig(seed=2)).ratio <= 1e-8

    def test_seeded_with_pushforward_reproduces_it(self):
        ratios = []
        for n in (48, 96):
            _, phi, psi = elliptic_pair(n)
            projection = dh.dirac_project(phi, psi, dh.SolverConfig(seed=1, power_iters=2))
            out = projection.psi
            corr = abs(np.vdot(psi.values, out.values)) / (
                np.linalg.norm(psi.values.ravel()) * np.linalg.norm(out.values.ravel()))
            assert corr > 0.99
            ratios.append(projection.ratio)
        assert 2.5 <= ratios[0] / ratios[1] <= 6.0

    def test_a_tiny_start_is_projected_not_redrawn(self):
        # Only None or an exactly zero start draws the seed's random field; a
        # power-of-two scale passes exactly through every step to the bits.
        phi, psi = ci_coupled_pair()
        cfg = dh.SolverConfig(seed=3, power_iters=2)
        want = dh.dirac_project(phi, psi, cfg)
        got = dh.dirac_project(phi, scaled(psi, 2.0**-50), cfg)
        assert np.array_equal(got.psi.values, want.psi.values)
        assert got.ratio == want.ratio

    def test_a_start_along_the_normal_is_redrawn(self):
        # Its tangent projection is exactly zero, so it starts from the seed's
        # random field, as None does, and the CG does not break down.
        phi, psi = normal_start()
        cfg = dh.SolverConfig(seed=4, power_iters=2)
        want = dh.dirac_project(phi, None, cfg)
        got = dh.dirac_project(phi, psi, cfg)
        assert np.array_equal(got.psi.values, want.psi.values)
        assert got.ratio == want.ratio
        assert got.cg_iterations == want.cg_iterations


def normal_start():
    """The constant map (0, 0, 1) on an n = 16 torus and a nonzero spinor
    along its normal, built without ``check_pair``."""
    chart = dh.DomainChart.torus(16)
    phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
    raw = np.zeros(chart.shape + (3, 2), dtype=complex)
    raw[..., 2, 0] = 1.0
    return phi, dh.TwistedSpinorField(chart, phi.target, raw)


class TestSolve:
    def test_a_start_along_the_normal_runs(self):
        phi, psi = normal_start()
        _, psi_out, rep = dh.solve(phi, psi, dh.SolverConfig(seed=4, power_iters=2,
                                                            max_iters=10, trace_every=5))
        assert rep.termination in ("converged", "max_iters")
        assert np.isfinite(psi_out.values).all()
        assert dh.tangency_defect(phi, psi_out) <= 1e-10

    def test_exact_start_converges_immediately(self):
        _, phi, psi = elliptic_pair(48)
        res = dh.el_residual(phi, psi)
        tol = 10 * (res.norms["map_sup"] + res.norms["spinor_sup"])
        phi2, psi2, rep = dh.solve(phi, psi, dh.SolverConfig(residual_tol=tol, seed=0))
        assert rep.termination == "converged"
        assert rep.iterations == [0]

    def test_residual_drops_hundredfold_from_perturbation(self):
        phi0 = perturbed_constant(48)
        cfg = dh.SolverConfig(seed=4, max_iters=1200, residual_tol=0.0,
                              reproject_every=100, power_iters=4, trace_every=50)
        psi0 = dh.dirac_project(phi0, None, cfg).psi
        _, _, rep = dh.solve(phi0, psi0, cfg)
        comb = np.array(rep.map_residual_trace) + np.array(rep.spinor_residual_trace)
        assert comb.min() <= comb[0] / 100.0

    def test_bit_identical_reruns(self):
        phi0 = perturbed_constant(32)
        cfg = dh.SolverConfig(seed=5, max_iters=120, residual_tol=0.0,
                              reproject_every=40, power_iters=2, trace_every=20)
        psi0 = dh.dirac_project(phi0, None, cfg).psi
        out1 = dh.solve(phi0, psi0, cfg)
        out2 = dh.solve(phi0, psi0, cfg)
        assert out1[2].action_trace == out2[2].action_trace
        assert out1[2].map_residual_trace == out2[2].map_residual_trace
        assert np.array_equal(out1[0].values, out2[0].values)
        assert np.array_equal(out1[1].values, out2[1].values)

    def test_divergence_is_reported_not_raised(self):
        chart = dh.DomainChart.torus(16)
        vals = np.zeros(chart.shape + (3,))
        vals[..., 2] = 1.0
        vals[0, 0, 2] = np.nan
        phi = dh.MapField(chart, dh.Sphere(2), vals)
        psi = dh.TwistedSpinorField.zero(chart, phi.target)
        _, _, rep = dh.solve(phi, psi, dh.SolverConfig(seed=0, max_iters=10,
                                                       residual_tol=0.0))
        assert rep.termination == "diverged"

    def test_a_tiny_start_is_refined_not_redrawn(self):
        # solve freezes only an exactly zero spinor, and dirac_project redraws
        # only that one: a tiny start is projected and refined like its
        # unscaled self.
        phi, psi = ci_coupled_pair()
        cfg = dh.SolverConfig(seed=0, max_iters=100)
        want, got = dh.solve(phi, psi, cfg), dh.solve(phi, scaled(psi, 2.0**-60), cfg)
        assert got[2].kernel_ratio_trace == want[2].kernel_ratio_trace
        assert np.array_equal(got[1].values, want[1].values)

    def test_zero_spinor_runs_pure_heat_flow(self):
        phi0 = perturbed_constant(32, amplitude=0.3, modes=(1, 2))
        psi0 = dh.TwistedSpinorField.zero(phi0.chart, phi0.target)
        _, psi_out, rep = dh.solve(phi0, psi0, dh.SolverConfig(
            seed=1, max_iters=200, residual_tol=0.0, trace_every=20))
        assert np.abs(psi_out.values).max() == 0.0
        en = np.array(rep.energy_trace)
        assert (np.diff(en) <= 1e-12).all()
