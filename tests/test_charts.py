import numpy as np
import pytest

import diracharmonic as dh

from conftest import (assert_second_order, bandlimited_oracle, circle_integral,
                      moebius_compose, moebius_identity, moebius_similarity)


class TestGridValidation:
    @pytest.mark.parametrize("n, side, topology, window, match", [
        pytest.param(4, 1.0, "torus", None, "n >= 8", id="small_n"),
        pytest.param(16, 0.0, "torus", None, "side must be positive", id="zero_side"),
        pytest.param(16, -1.0, "disk", None, "side must be positive", id="negative_side"),
        pytest.param(16, 1e300, "torus", None, r"lie in \[1e-30, 1e\+30\]", id="huge_side"),
        pytest.param(16, float("nan"), "torus", None, "side must be positive", id="nan_side"),
        pytest.param(16, 1.0, "sphere", None, "unknown topology", id="unknown_topology"),
        pytest.param(16, 1.0, "torus", 0.0, "window must lie in", id="zero_window"),
        pytest.param(16, 1.0, "torus", 1.5, "window must lie in", id="wide_window"),
        pytest.param(32, 2.0, "disk", None, "side > 2", id="narrow_disk"),
        # A disk's interior is fixed by |z| <= 1 - 4h; a stored window would be ignored.
        pytest.param(32, 2.2, "disk", 0.5, "a disk chart takes none", id="disk_with_window"),
        # Every sup and integral runs over the interior, so it must hold a node.
        pytest.param(8, 2.2, "disk", None, "leaves no node", id="disk_without_interior"),
        pytest.param(17, 1.0, "torus", 1e-3, "leaves no node", id="window_without_node"),
    ])
    def test_bad_chart_rejected(self, n, side, topology, window, match):
        with pytest.raises(ValueError, match=match):
            dh.DomainChart(n, side, topology, window)

    def test_disk_masks_nested(self):
        chart = dh.DomainChart.disk(64)
        assert chart.interior_mask.sum() < chart.domain_mask.sum()
        assert not (chart.interior_mask & ~chart.domain_mask).any()


class TestStencils:
    def test_derivative_of_constant_is_zero(self):
        chart = dh.DomainChart.torus(32)
        assert np.abs(chart.derivative(np.ones(chart.shape), "x")).max() == 0.0

    def test_derivative_x_of_sine(self):
        # sin(2 pi x) on the unit torus, against the analytic derivative.
        errs = []
        for n in (64, 128):
            chart = dh.DomainChart.torus(n)
            err = np.abs(chart.derivative(np.sin(2 * np.pi * chart.x), "x")
                         - 2 * np.pi * np.cos(2 * np.pi * chart.x)).max()
            errs.append(err)
        assert errs[1] < 3e-3
        assert_second_order(*errs)

    def test_laplacian_of_quadratic_bump(self):
        # lap(x^2 + y^2) = 4 at the center of a torus-embedded window,
        # cross-checked with the five-point 1D oracle applied twice.
        errs = []
        for n in (64, 128):
            chart = dh.DomainChart.torus(n, side=1.0, window=0.5)
            r2 = (chart.x**2 + chart.y**2) / 0.22**2
            w = np.where(r2 < 1, np.exp(-r2 / np.maximum(1e-300, 1 - r2)), 0.0)
            fld = w * (chart.x**2 + chart.y**2)
            iy = ix = n // 2
            errs.append(abs(chart.laplacian(fld)[iy, ix] - 4.0))
        assert errs[1] < 1.5e-2
        assert_second_order(*errs)

    def test_refinement_factor_for_generic_smooth_field(self, rng):
        errs = []
        for n in (48, 96):
            chart = dh.DomainChart.torus(n)
            fld = np.sin(2 * np.pi * chart.x) * np.cos(4 * np.pi * chart.y)
            exact = 2 * np.pi * np.cos(2 * np.pi * chart.x) * np.cos(4 * np.pi * chart.y)
            errs.append(np.abs(chart.derivative(fld, "x") - exact).max())
        ratio = errs[0] / errs[1]
        assert 4 * 0.85 <= ratio <= 4 * 1.15

    def test_summation_by_parts_exact_on_torus(self, rng):
        chart = dh.DomainChart.torus(32)
        u = dh.bandlimited_field(chart, rng, kmax=3)
        v = dh.bandlimited_field(chart, rng, kmax=3)
        left = (chart.derivative(u, "x") * v).sum()
        right = -(u * chart.derivative(v, "x")).sum()
        assert abs(left - right) <= 1e-11 * max(1.0, abs(left))


class TestBandlimitedField:
    CHARTS = [dh.DomainChart.torus(n, side=1.3) for n in (32, 64)] + \
        [dh.DomainChart.disk(n) for n in (32, 64)]

    @pytest.mark.parametrize("modes", [None, (2, 3)], ids=["all", "modes23"])
    @pytest.mark.parametrize("kmax", [1, 2, 3])
    @pytest.mark.parametrize("components", [(), (2,), (3,), (3, 2)],
                             ids=["scalar", "c2", "c3", "c3x2"])
    def test_separable_synthesis_matches_the_loop(self, components, kmax, modes):
        for seed, chart in enumerate(self.CHARTS):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = dh.bandlimited_field(chart, rng, components=components, kmax=kmax,
                                       modes=modes)
            ref = bandlimited_oracle(chart, rng_ref, components=components, kmax=kmax,
                                     modes=modes)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
            assert got.shape == chart.shape + components
            assert got.flags.c_contiguous
            assert np.abs(got - ref).max() <= 1e-14
            if modes is not None and kmax < min(modes):
                assert not got.any()      # no mode drawn: the zero field
            else:
                assert np.abs(got).max() == 1.0

    def test_peak_is_the_amplitude(self):
        chart = dh.DomainChart.torus(32, side=1.3)
        for amplitude in (0.05, 0.37, 2.0):
            got = dh.bandlimited_field(chart, np.random.default_rng(7), components=(3,),
                                       kmax=2, amplitude=amplitude)
            ref = bandlimited_oracle(chart, np.random.default_rng(7), components=(3,),
                                     kmax=2, amplitude=amplitude)
            assert np.abs(got).max() == amplitude
            assert np.abs(got - ref).max() <= 1e-14 * max(1.0, amplitude)


def _looped_bandlimited_field(chart, rng, components=(), kmax=3, amplitude=1.0, modes=None):
    """``bandlimited_field`` as it drew its coefficients before: two draws
    per kept mode in a Python double loop, then the same separable
    synthesis."""
    shape = tuple(components)
    ks = np.arange(-kmax, kmax + 1)
    m = len(ks)
    a = np.zeros((m, m) + shape)
    b = np.zeros((m, m) + shape)
    for i, kx in enumerate(ks):
        for j, ky in enumerate(ks):
            if kx == 0 and ky == 0:
                continue
            if modes is not None and max(abs(kx), abs(ky)) not in modes:
                continue
            a[i, j] = rng.normal(size=shape)
            b[i, j] = rng.normal(size=shape)
    a = a.reshape(m, m, -1)
    b = b.reshape(m, m, -1)
    tx = ks[:, None] * (2.0 * np.pi * (chart.x[0] / chart.side))
    ty = ks[:, None] * (2.0 * np.pi * (chart.y[:, 0] / chart.side))
    x_table = np.concatenate([np.cos(tx), np.sin(tx)])
    of_cy = np.einsum("kyc,kj->yjc", np.concatenate([a, b]), x_table)
    of_sy = np.einsum("kyc,kj->yjc", np.concatenate([b, -a]), x_table)
    out = np.einsum("yi,yjc->ijc", np.concatenate([np.cos(ty), np.sin(ty)]),
                    np.concatenate([of_cy, of_sy]))
    out = out.reshape(chart.shape + shape)
    peak = np.abs(out).max()
    if peak > 0:
        out /= peak
        out *= amplitude
    return out


class TestBandlimitedDraws:
    """One ``rng.normal`` call draws every coefficient in the loop's order,
    so the field and the generator's stream keep the loop's bits."""

    @pytest.mark.parametrize("n, kwargs", [
        (32, {"components": (3,), "kmax": 2, "amplitude": 0.7}),
        (32, {"components": (3, 2), "kmax": 2}),
        (64, {"components": (3,), "kmax": 3, "modes": (2, 3)}),
        (128, {"components": (3,), "kmax": 1}),
        (48, {"components": (2,)}),
        (16, {}),
        (16, {"components": (3,), "kmax": 1, "modes": (2,)}),   # no mode kept
    ])
    def test_field_and_stream_keep_the_loops_bits(self, n, kwargs):
        chart = dh.DomainChart.torus(n)
        rng, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
        got = dh.bandlimited_field(chart, rng, **kwargs)
        ref = _looped_bandlimited_field(chart, rng_ref, **kwargs)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint8),
                              np.ascontiguousarray(ref).view(np.uint8))
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert rng.normal() == rng_ref.normal()


class TestQuadrature:
    def test_integrate_constant_on_unit_torus(self):
        chart = dh.DomainChart.torus(32)
        assert chart.integrate(np.ones(chart.shape)) == pytest.approx(1.0, abs=1e-14)

    def test_integrate_sin_squared(self):
        chart = dh.DomainChart.torus(64)
        val = chart.integrate(np.sin(2 * np.pi * chart.x) ** 2)
        assert abs(val - 0.5) < 1e-12

    def test_circle_integral_of_one_is_circumference(self):
        chart = dh.DomainChart.disk(64)
        val = circle_integral(chart, np.ones(chart.shape), 0.5, 256)
        assert abs(val - np.pi) < 1e-6

    def test_circle_radius_validation(self):
        chart = dh.DomainChart.disk(64)
        with pytest.raises(ValueError):
            circle_integral(chart, np.ones(chart.shape), 0.999, 64)
        with pytest.raises(ValueError):
            circle_integral(chart, np.ones(chart.shape), 1e-4, 64)
        with pytest.raises(ValueError):
            circle_integral(dh.DomainChart.torus(32), np.ones((32, 32)), 0.5, 64)

    def test_radius_error_names_the_least_n(self):
        # r = 0.25 needs 4h = 4 * 2.2 / n <= 0.25, so n >= 35.2.
        with pytest.raises(ValueError, match="n >= 36"):
            dh.DomainChart.disk(32)._check_radius(0.25)
        with pytest.raises(ValueError, match="no n fits"):
            dh.DomainChart.disk(32)._check_radius(1.0)

    def test_interp_reproduces_smooth_field(self, rng):
        chart = dh.DomainChart.torus(64)
        fld = np.sin(2 * np.pi * chart.x) * np.cos(2 * np.pi * chart.y)
        px = rng.uniform(-0.4, 0.4, size=50)
        py = rng.uniform(-0.4, 0.4, size=50)
        exact = np.sin(2 * np.pi * px) * np.cos(2 * np.pi * py)
        assert np.abs(chart.interp(fld, px, py) - exact).max() < 5e-3

    def test_disk_interp_is_bilinear_up_to_the_square_edge(self, rng):
        # Bilinear data is reproduced exactly, the last node row and column
        # included, where the wrapped upper neighbour carries zero weight.
        chart = dh.DomainChart.disk(16)
        fld = 1.0 + 2.0 * chart.x - 3.0 * chart.y + 0.5 * chart.x * chart.y
        edge = chart.x[0, -1]
        px = np.concatenate([rng.uniform(-edge, edge, 40), [edge, -edge, edge]])
        py = np.concatenate([rng.uniform(-edge, edge, 40), [edge, edge, 0.3]])
        want = 1.0 + 2.0 * px - 3.0 * py + 0.5 * px * py
        assert np.abs(chart.interp(fld, px, py) - want).max() < 1e-13
        for bad in (edge + 1e-9, np.nan):
            with pytest.raises(ValueError, match="outside the disk chart square"):
                chart.interp(fld, np.array([0.0, bad]), np.zeros(2))


# (i0, j0, m) blocks of an n = 48 chart: off-centre, at a corner, at the far corner.
BLOCKS = [(9, 17, 20), (0, 0, 11), (30, 25, 18)]
CHARTS = {"disk": lambda: dh.DomainChart.disk(48), "torus": lambda: dh.DomainChart.torus(48),
          "windowed": lambda: dh.DomainChart.torus(48, side=1.7, window=0.5)}


class TestBlock:
    """A block chart computes what its parent computes, bit for bit: the
    stencils at nodes at least one node inside its edge, and integrals of
    fields that vanish outside it."""

    @pytest.mark.parametrize("i0, j0, m", BLOCKS)
    @pytest.mark.parametrize("kind", list(CHARTS))
    def test_geometry_is_sliced(self, kind, i0, j0, m):
        chart = CHARTS[kind]()
        block = chart.block(i0, j0, m)
        at = np.s_[i0:i0 + m, j0:j0 + m]
        assert (block.n, block.shape, block.h, block.topology) == (m, (m, m), chart.h,
                                                                   chart.topology)
        for name in ("x", "y", "z", "domain_mask", "interior_mask"):
            assert np.array_equal(getattr(block, name), getattr(chart, name)[at])

    @pytest.mark.parametrize("i0, j0, m", BLOCKS)
    @pytest.mark.parametrize("kind", list(CHARTS))
    @pytest.mark.parametrize("components, dtype", [((), float), ((3,), float),
                                                   ((3, 2), complex)],
                             ids=["scalar", "map", "spinor"])
    def test_stencils_match_the_whole_chart_inside(self, rng, kind, i0, j0, m, components,
                                                   dtype):
        chart = CHARTS[kind]()
        block = chart.block(i0, j0, m)
        at = np.s_[i0:i0 + m, j0:j0 + m]
        f = dh.bandlimited_field(chart, rng, components=components, kmax=3)
        if dtype is complex:
            f = f + 1j * dh.bandlimited_field(chart, rng, components=components, kmax=3)
        f = dh.charts.as_planes(f)
        sub = dh.charts.as_planes(f[at])
        inside = np.s_[1:-1, 1:-1]
        for axis in ("x", "y"):
            assert np.array_equal(block.derivative(sub, axis)[inside],
                                  chart.derivative(f, axis)[at][inside])
        assert np.array_equal(block.laplacian(sub)[inside], chart.laplacian(f)[at][inside])

    @pytest.mark.parametrize("i0, j0, m", BLOCKS)
    @pytest.mark.parametrize("kind", list(CHARTS))
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_integrals_have_the_whole_chart_bits(self, rng, kind, i0, j0, m, dtype):
        chart = CHARTS[kind]()
        block = chart.block(i0, j0, m)
        at = np.s_[i0:i0 + m, j0:j0 + m]
        sub = rng.normal(size=(m, m))
        if dtype is complex:
            sub = sub + 1j * rng.normal(size=(m, m))
        whole = np.zeros(chart.shape, dtype)
        whole[at] = sub
        assert block.integrate(sub) == chart.integrate(whole)

    def test_interp_inside_a_block_matches_the_parent(self, rng):
        chart = dh.DomainChart.disk(48)
        block = chart.block(9, 17, 20)
        f = dh.bandlimited_field(chart, rng, components=(3,), kmax=3)
        px = rng.uniform(block.x[0, 0], block.x[0, -1], 50)
        py = rng.uniform(block.y[0, 0], block.y[-1, 0], 50)
        # The bilinear weights are read off the block's first node, so they
        # agree with the parent's to rounding.
        assert np.allclose(block.interp(f[9:29, 17:37], px, py), chart.interp(f, px, py),
                           rtol=0, atol=1e-14)

    @pytest.mark.parametrize("i0, j0, m", [(-1, 0, 10), (0, 40, 10), (40, 0, 9), (0, 0, 2)])
    def test_block_outside_the_grid_rejected(self, i0, j0, m):
        with pytest.raises(ValueError, match="does not fit"):
            dh.DomainChart.disk(48).block(i0, j0, m)


def _fprime_abs(f, z):
    """|f'(z)|, read off the holomorphic root s(z) with s^2 = f'."""
    return np.abs(f.sqrt_derivative(z)) ** 2


class TestMoebius:
    def test_identity_map(self):
        f = moebius_identity()
        z = np.array([0.3 + 0.2j])
        w, lam = f(z), _fprime_abs(f, z)
        assert abs(w[0] - (0.3 + 0.2j)) < 1e-15
        assert abs(lam[0] - 1.0) < 1e-15

    def test_similarity_doubles(self):
        f = moebius_similarity(2.0)
        z = np.array([0.1 + 0.4j])
        w, lam = f(z), _fprime_abs(f, z)
        assert abs(w[0] - (0.2 + 0.8j)) < 1e-14
        assert abs(lam[0] - 2.0) < 1e-14

    def test_disk_automorphism_conformal_factor_at_origin(self):
        # |f'(0)| = 1 - |a|^2 for f(z) = (z - a)/(1 - conj(a) z); frozen from
        # the analytic derivative at a = 0.3.
        f = dh.MoebiusMap.disk_automorphism(0.3)
        lam = _fprime_abs(f, np.array([0.0j]))
        assert abs(lam[0] - 0.91) < 1e-12

    def test_disk_automorphism_preserves_unit_circle(self, rng):
        f = dh.MoebiusMap.disk_automorphism(0.3 - 0.25j, theta=1.1)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=64))
        w = f(z)
        assert np.abs(np.abs(w) - 1.0).max() < 1e-12

    def test_composition_chain_rule(self, rng):
        for _ in range(10):
            f = dh.MoebiusMap.disk_automorphism(0.3 * (rng.normal() + 1j * rng.normal()),
                                                theta=rng.normal())
            g = moebius_similarity(0.5 + 0.2 * rng.normal(), 0.1)
            z = 0.2 * (rng.normal() + 1j * rng.normal())
            z = np.array([z])
            w1, l1 = g(z), _fprime_abs(g, z)
            w2, l2 = f(w1), _fprime_abs(f, w1)
            comp = moebius_compose(f, g)
            w3, l3 = comp(z), _fprime_abs(comp, z)
            assert abs(w3[0] - w2[0]) < 1e-12
            assert abs(l3[0] - l1[0] * l2[0]) < 1e-12 * max(1.0, l3[0])

    def test_pole_inside_domain_raises(self):
        f = dh.MoebiusMap(0.0, 1.0, 1.0, 0.0)  # z -> 1/z
        with pytest.raises(ValueError):
            f(np.array([0.0j]))

    def test_sqrt_derivative_squares_to_derivative(self, rng):
        f = dh.MoebiusMap.disk_automorphism(0.2 + 0.1j, theta=0.9)
        z = 0.4 * (rng.normal(size=20) + 1j * rng.normal(size=20))
        s = f.sqrt_derivative(z)
        eps = 1e-5
        centred = (f(z + eps) - f(z - eps)) / (2.0 * eps)
        assert np.abs(s**2 - centred).max() < 1e-8

    def test_degenerate_coefficients_rejected(self):
        with pytest.raises(ValueError):
            dh.MoebiusMap(1.0, 2.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            dh.MoebiusMap.disk_automorphism(1.2)
