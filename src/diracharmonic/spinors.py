"""Exact 2D Clifford algebra and the flat Dirac operator.

A spinor is a pair of complex numbers (f, g): the positive and negative
half-spinor components.  Grid fields store them in the last axis, so a
spinor field on an (n, n) chart is a complex array of shape (..., 2).

``clifford_mul`` is the one Clifford action; ``FRAME`` names the frame
vectors it takes for e1 and e2.  Two hot-path kernels fuse the action
into their own passes and tests pin them to it: ``flat_dirac`` here and
``fields.clifford_frame_contract``.

``re_pairing`` and ``spinor_norm2`` are the one real pairing Re<s, t> and
the one squared norm |s|^2, of plain spinors, twisted ones and whole grids:
no other code forms a spinor pairing's complex products.

The two frame vectors act by the matrices

    e1 = [[0, 1], [-1, 0]],    e2 = [[0, i], [i, 0]],

which satisfy e_a e_b + e_b e_a = -2 delta_ab and are skew-adjoint for
the Hermitian metric <s, t> = conj(f_s) f_t + conj(g_s) g_t (antilinear
in the first slot).
"""

from __future__ import annotations

import numpy as np

FRAME = ((1.0, 0.0), (0.0, 1.0))  # e1 and e2 as the vectors clifford_mul takes


def spinor(f, g) -> np.ndarray:
    """Pack two complex components into a spinor array."""
    return np.array([f, g], dtype=np.complex128)


def re_pairing(s, t, axis=-1, out=None, work=None) -> np.ndarray:
    """Re <s, t> summed over ``axis``: -1 for plain spinors, (-2, -1) for
    twisted ones and None for the whole grid.  ``work``, complex, shaped like
    ``s``, and either ``s`` itself or overlapping neither input, receives
    conj(s) and then, in place, conj(s) t; ``out`` receives the sum of
    their real parts, added in memory order.  Each is allocated when None."""
    prod = np.conjugate(s, out=work)
    prod *= t
    return np.sum(prod.real, axis=axis, out=out)


def spinor_norm2(s, axis=-1) -> np.ndarray:
    """|s|^2 = sum |f|^2 + |g|^2 over ``axis``, as for ``re_pairing``."""
    s = np.asarray(s)
    squares = s.real**2
    squares += s.imag**2
    return squares.sum(axis=axis)


def clifford_mul(v, s) -> np.ndarray:
    """The Clifford action (v1 e1 + v2 e2) . s, which every identity and
    exact family uses: with w = v1 + i v2 it sends (f, g) to
    (w g, -conj(w) f).

    ``v`` is a real 2-vector, such as a ``FRAME`` vector, or a pair of
    arrays broadcastable against the grid axes of ``s``.  The result is
    built in an ``empty_like`` of ``s``, so a component-major field stays
    component-major.
    """
    v1, v2 = v
    s = np.asarray(s, dtype=np.complex128)
    f = s[..., 0]
    g = s[..., 1]
    top = (v1 + 1j * v2) * g
    return np.stack([top, (-v1 + 1j * v2) * f], axis=-1,
                    out=np.empty_like(s, shape=top.shape + (2,)))


def flat_dirac(field, chart, out=None, work=None) -> np.ndarray:
    """Discrete flat Dirac operator e1 . D_x + e2 . D_y on a grid spinor
    field, with the chart's centered stencils.  ``verify`` checks it against
    the Cauchy-Riemann form 2 (dg/dzbar, -df/dz).

    It fuses ``clifford_mul`` at ``FRAME`` into five grid passes; tests pin
    it to that action on the derivatives under ``==``.  With c = 1 / 2h and
    the unscaled differences Dx, Dy of ``difference``, it is
    (c Dx g + ic Dy g, -c Dx f + ic Dy f).
    ``out`` receives the result and ``work``, a component-major grid
    shaped like ``field``, the x difference, then the y difference and its
    products.  Neither may overlap ``field`` or the other; without them
    the arrays are allocated.

    On disk charts the output is trusted only on |z| <= 1 - 2h: each
    centered stencil erodes the trusted region by 2h.
    """
    field = np.asarray(field, dtype=np.complex128)
    c = 1.0 / (2.0 * chart.h)
    dx = chart.difference(field, axis="x", out=work)
    out = np.empty_like(dx) if out is None else out
    # Real products on (re, im) views: one by c + 0j could flip a zero's sign.
    for src, dst, scale in ((1, 0, c), (0, 1, -c)):
        np.multiply(dx[..., src, None].view(float), scale, out=out[..., dst, None].view(float))
    dy = chart.difference(field, axis="y", out=dx)
    for src, dst in ((1, 0), (0, 1)):  # e2 . (f, g) = (i g, i f), in place half by half
        out[..., dst] += np.multiply(1j * c, dy[..., src], out=dy[..., src])
    return out


def twistor_field(chart, psi0, psi1) -> np.ndarray:
    """Sample the affine twistor spinor Psi0 + x . Psi1, x = (x, y) the node."""
    return np.asarray(psi0, dtype=np.complex128) + clifford_mul((chart.x, chart.y), psi1)


def twistor_defect(field, chart) -> float:
    """Sup over interior nodes and both frame directions of the twistor residual.

    The residual is D_a Psi + (1/2) e_a . (flat_dirac Psi); it vanishes exactly
    on the affine family because centered differences are exact on degree-1
    fields.
    """
    field = np.asarray(field, dtype=np.complex128)
    slashed = flat_dirac(field, chart)
    mask = chart.interior_mask
    worst = 0.0
    for axis, e_a in zip(("x", "y"), FRAME):
        res = chart.derivative(field, axis=axis) + 0.5 * clifford_mul(e_a, slashed)
        mag = np.sqrt(spinor_norm2(res))
        worst = max(worst, float(mag[mask].max()))
    return worst
