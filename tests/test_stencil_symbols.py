"""Each stencil of ``charts`` against its Fourier symbol: ``difference``
and ``second_difference`` on every 1-D mode, ``laplacian`` on every 2-D
mode, and the flat Dirac operator squared against the symbol sigma the
kernel preconditioner divides by.  ``second_difference`` and
``laplacian`` run through one per-axis kernel, pinned here bit for bit."""

import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.charts import as_planes, difference_symbol, second_difference_symbol
from diracharmonic.solver import _DiracKernelOperator

NS = [16, 17]   # an even torus, with its Nyquist mode, and an odd one


def _mode(n, mx, my):
    """e^{2 pi i (mx ix + my iy) / n} on the [iy, ix] grid, its phases
    reduced mod n so the mode is exact to a few ulp."""
    j = np.arange(n)
    return np.exp(2j * np.pi * (((my * j[:, None]) % n) / n + ((mx * j[None, :]) % n) / n))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("axis", ["x", "y"])
def test_one_axis_stencils_multiply_each_mode_by_their_symbol(n, axis):
    chart = dh.DomainChart.torus(n, side=1.1)
    for m in range(n):
        mode = _mode(n, m, 0) if axis == "x" else _mode(n, 0, m)
        for stencil, symbol in ((chart.difference, difference_symbol(n)),
                                (chart.second_difference, second_difference_symbol(n))):
            assert np.abs(stencil(mode, axis) - symbol[m] * mode).max() <= 1e-14


@pytest.mark.parametrize("n", NS)
def test_laplacian_multiplies_each_mode_by_the_symbol_sum(n):
    chart = dh.DomainChart.torus(n, side=1.1)
    s = second_difference_symbol(n)
    for mx in range(n):
        for my in range(n):
            mode = _mode(n, mx, my)
            scale = (s[mx] + s[my]) / chart.h**2
            assert np.abs(chart.laplacian(mode) - scale * mode).max() <= 2e-13 * (1 + abs(scale))


@pytest.mark.parametrize("n", NS)
def test_flat_dirac_squared_is_the_preconditioner_symbol(n):
    # precondition's claim: it inverts the shifted flat operator squared exactly,
    # so the unshifted symbol is what flat_dirac twice does to each mode.
    chart = dh.DomainChart.torus(n, side=1.1)
    phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
    sigma = _DiracKernelOperator(phi, 0.0).symbol
    spin = np.array([0.3 - 0.2j, 0.7 + 0.1j])
    for mx in range(n):
        for my in range(n):
            field = _mode(n, mx, my)[..., None] * spin
            twice = dh.flat_dirac(dh.flat_dirac(field, chart), chart)
            err = np.abs(twice - sigma[my, mx] * field).max()
            assert err <= 2e-13 * (1 + sigma[my, mx])


@pytest.mark.parametrize("components", [(), (3,), (3, 2)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_second_difference_and_laplacian_share_one_kernel(components, dtype, rng):
    # laplacian is the y then x neighbour adds onto -4 f, over h^2, and
    # second_difference the same adds onto -2 f: the roll form of each, bit for bit.
    chart = dh.DomainChart.torus(24, side=1.1)
    f = rng.normal(size=chart.shape + components)
    if dtype is complex:
        f = f + 1j * rng.normal(size=f.shape)
    f = as_planes(f)
    for axis, a in (("x", 1), ("y", 0)):
        ref = (-2.0 * f + np.roll(f, -1, axis=a)) + np.roll(f, 1, axis=a)
        out = np.empty_like(f)
        assert chart.second_difference(f, axis, out=out) is out
        assert np.array_equal(_bits(out), _bits(ref))
    ref = -4.0 * f
    for a in (0, 1):
        ref = (ref + np.roll(f, -1, axis=a)) + np.roll(f, 1, axis=a)
    ref /= chart.h**2
    assert np.array_equal(_bits(chart.laplacian(f)), _bits(ref))
