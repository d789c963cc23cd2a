"""The flat Dirac operator from unscaled differences has the bits of its
form from derivatives, and ``derivative`` has the bits of ``difference``
scaled by 1 / 2h, on every storage order and with signed zeros."""

import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.charts import as_planes, empty_planes

CHARTS = [pytest.param(lambda n, side=side: dh.DomainChart.torus(n, side), id=f"torus-{side}")
          for side in (1.0, 1.1, 2.2)]
CHARTS.append(pytest.param(lambda n: dh.DomainChart.disk(n, 2.2), id="disk-2.2"))


def _exact_e1(s):
    """e1 . (f, g) = (g, -f) by copy and negation, which keep every zero's
    sign; ``clifford_mul``'s product by 1 + 0i need not."""
    out = np.empty_like(s)
    out[..., 0] = s[..., 1]
    np.negative(s[..., 0], out=out[..., 1])
    return out


def _derivative_flat_dirac(field, chart):
    """The flat Dirac operator as e1 . D_x + e2 . D_y from the scaled
    derivatives: e1 of the x derivative, plus i times each half of the
    y derivative, in place."""
    field = np.asarray(field, dtype=np.complex128)
    out = _exact_e1(chart.derivative(field, axis="x"))
    dy = chart.derivative(field, axis="y")
    for src, dst in ((1, 0), (0, 1)):
        out[..., dst] += np.multiply(1j, dy[..., src], out=dy[..., src])
    return out


def _fields(n, complex_=True):
    """A random field, and small integers with signed zeros, whose
    differences and products meet exact zeros of both signs."""
    rng = np.random.default_rng(8)
    shape = (n, n, 3, 2) if complex_ else (n, n, 3)
    dtype = np.complex128 if complex_ else float
    noise = rng.normal(size=shape).astype(dtype)
    ints = rng.integers(-1, 2, size=shape).astype(dtype)
    if complex_:
        noise += 1j * rng.normal(size=shape)
        ints += 1j * rng.integers(-1, 2, size=shape)
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return [noise, ints * signs]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


@pytest.mark.parametrize("make_chart", CHARTS)
@pytest.mark.parametrize("order", ["planes", "c_order"])
@pytest.mark.parametrize("arrays", ["allocated", "given"])
def test_flat_dirac_has_the_bits_of_the_derivative_form(make_chart, order, arrays):
    chart = make_chart(24)
    for field in _fields(chart.n):
        field = as_planes(field) if order == "planes" else field
        ref = _derivative_flat_dirac(field, chart)
        if arrays == "allocated":
            got = dh.flat_dirac(field, chart)
        else:
            out = np.empty_like(field)
            got = dh.flat_dirac(field, chart, out=out,
                                work=empty_planes(field.shape, np.complex128))
            assert got is out
        assert np.array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("make_chart", CHARTS)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_derivative_is_the_difference_scaled(make_chart, complex_):
    chart = make_chart(24)
    c = 1.0 / (2.0 * chart.h)
    for field in _fields(chart.n, complex_):
        for axis in ("x", "y"):
            diff = chart.difference(field, axis)
            if complex_:
                ref = np.empty_like(diff)
                ref.real, ref.imag = diff.real * c, diff.imag * c
            else:
                ref = diff / (2.0 * chart.h)
            assert np.array_equal(_bits(chart.derivative(field, axis)), _bits(ref))
