"""Shared builders for the test suite.

Scenario builders return (chart, phi, psi) triples; refinement helpers
assert the O(h^2) two-grid ratio window used throughout.
"""

import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.fields import covariant_derivative
from diracharmonic.spinors import FRAME, clifford_mul

RATIO_LO, RATIO_HI = 3.4, 4.6

# The matrices by which the frame vectors act on spinors (see ``spinors``).
E1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)
E2 = np.array([[0.0, 1.0j], [1.0j, 0.0]], dtype=np.complex128)


def assert_second_order(coarse, fine, lo=RATIO_LO, hi=RATIO_HI):
    ratio = coarse / fine
    assert lo <= ratio <= hi, f"refinement ratio {ratio:.3f} outside [{lo}, {hi}]"
    return ratio


def torus_deg1_pair(n, psi1=(0.2, -0.1j), window=0.5):
    """Degree-1 pushforward pair sampled on a windowed torus chart."""
    chart = dh.DomainChart.torus(n, side=1.0, window=window)
    phi = dh.conformal_map_field(dh.RationalMap([0, 1]), chart)
    psi = dh.twistor_pushforward(phi, dh.spinor(1, 0), dh.spinor(*psi1))
    return chart, phi, psi


def disk_twistor_pair(n, psi1=(0.2, -0.1j)):
    chart = dh.DomainChart.disk(n, side=2.2)
    phi = dh.conformal_map_field(dh.RationalMap([0, 1]), chart)
    psi = dh.twistor_pushforward(phi, dh.spinor(1, 0), dh.spinor(*psi1))
    return chart, phi, psi


def elliptic_pair(n, scale=0.7, psi0=(1.0, 0.5j)):
    """Periodic exact pair on the whole torus (no window)."""
    chart = dh.DomainChart.torus(n, side=1.0)
    phi = dh.elliptic_conformal_field(chart, scale=scale)
    psi = dh.twistor_pushforward(phi, dh.spinor(*psi0), dh.spinor(0, 0))
    return chart, phi, psi


def random_sphere_pair(n, seed=3, amp=0.6, kmax=2, spin_amp=1.0, side=1.0):
    """Smooth random non-solution pair on the torus."""
    chart = dh.DomainChart.torus(n, side=side)
    rng = np.random.default_rng(seed)
    sphere = dh.Sphere(2)
    base = np.zeros(chart.shape + (3,))
    base[..., 2] = 1.0
    dev = dh.bandlimited_field(chart, rng, components=(3,), kmax=kmax, amplitude=amp)
    phi = dh.MapField(chart, sphere, sphere.project_point(base + dev))
    raw = (dh.bandlimited_field(chart, rng, components=(3, 2), kmax=kmax, amplitude=spin_amp)
           + 1j * dh.bandlimited_field(chart, rng, components=(3, 2), kmax=kmax,
                                       amplitude=spin_amp))
    psi = dh.project_spinor(phi, raw)
    return chart, phi, psi


def conformality_defect(phi, analytic=True):
    """Complex conformality coefficient |phi_x|^2 - |phi_y|^2 - 2i <phi_x, phi_y>,
    from the exact gradient or (``analytic=False``) the stencils.

    Machine-zero for analytic gradients of conformal maps; O(h^2) through
    stencils.
    """
    d = phi.analytic_gradient if analytic else phi.gradient()
    gxx = (d[..., 0, :] ** 2).sum(axis=-1)
    gyy = (d[..., 1, :] ** 2).sum(axis=-1)
    gxy = (d[..., 0, :] * d[..., 1, :]).sum(axis=-1)
    return gxx - gyy - 2j * gxy


def harmonic_wrap_gradient(chart, winding):
    """Closed-form d phi of ``harmonic_wrap``: only d_x of its first two
    components is nonzero, k (-sin kx, cos kx) with k = 2 pi winding / side."""
    k = 2.0 * np.pi * winding / chart.side
    grad = np.zeros(chart.shape + (2, 3))
    grad[..., 0, 0] = -k * np.sin(k * chart.x)
    grad[..., 0, 1] = k * np.cos(k * chart.x)
    return grad


def hopf_oracle(phi, psi):
    """Explicit Hopf coefficient, term by term from the stencils:

        |phi_x|^2 - |phi_y|^2 - 2i <phi_x, phi_y>
        + Re<psi, e1 . grad_x psi> - i Re<psi, e1 . grad_y psi>,

    the reference for the (2,0) part T_11 - i T_12 that ``em_defects``
    reads off the energy-momentum tensor."""
    conj_e1psi = np.conj(clifford_mul(FRAME[0], psi.values))
    sx = -np.real(conj_e1psi * covariant_derivative(phi, psi.values, "x")).sum(axis=(-2, -1))
    sy = -np.real(conj_e1psi * covariant_derivative(phi, psi.values, "y")).sum(axis=(-2, -1))
    return conformality_defect(phi, analytic=False) + sx - 1j * sy


def _stereo_tangent(w, u) -> np.ndarray:
    """Differential of inverse stereographic projection at w applied to the
    complex increment u, as an ambient 3-vector.

    Chart-form oracle; breaks at poles.  Production gradients go through
    the projective form, ``solutions._pair_wirtinger``.
    """
    a, b = w.real, w.imag
    D = 1.0 + a * a + b * b
    s = 2.0 * (a * u.real + b * u.imag)
    d1 = (2.0 * u.real * D - 2.0 * a * s) / D**2
    d2 = (2.0 * u.imag * D - 2.0 * b * s) / D**2
    d3 = 2.0 * s / D**2
    return np.stack([d1, d2, d3], axis=-1)


def second_fundamental(target, p, X, Y):
    """Gauss-path oracle: A(X, Y) = -<X, Y> nu after projecting X, Y
    tangent; zero without a normal."""
    X = target.tangent_project(p, X)
    Y = target.tangent_project(p, Y)
    nu = target.normal(p)
    if nu is None:
        return np.zeros(np.broadcast_shapes(X.shape, Y.shape))
    xy = (X * Y).sum(axis=-1)[..., None]
    return -xy * nu


def shape_operator(target, p, xi, X):
    """Gauss-path oracle: P(xi; X) = -<xi, nu> X with X projected tangent
    first; zero without a normal."""
    X = target.tangent_project(p, X)
    nu = target.normal(p)
    if nu is None:
        return np.zeros(X.shape)
    return -(np.asarray(xi) * nu).sum(axis=-1)[..., None] * X


def curvature(target, p, X, Y, Z):
    """Gauss-equation curvature P(A(Y, Z); X) - P(A(X, Z); Y) from the two
    oracles above (flat ambient space); inputs are projected first."""
    p = np.asarray(p)
    X, Y, Z = (target.tangent_project(p, V) for V in (X, Y, Z))
    return (shape_operator(target, p, second_fundamental(target, p, Y, Z), X)
            - shape_operator(target, p, second_fundamental(target, p, X, Z), Y))


def moebius_identity():
    """f(z) = z."""
    return dh.MoebiusMap(1.0, 0.0, 0.0, 1.0)


def moebius_similarity(scale, offset=0.0):
    """f(z) = scale * z + offset."""
    return dh.MoebiusMap(scale, offset, 0.0, 1.0)


def moebius_compose(f, g):
    """f after g: (f . g)(z) = f(g(z)), as a normalized MoebiusMap."""
    a = f.a * g.a + f.b * g.c
    b = f.a * g.b + f.b * g.d
    c = f.c * g.a + f.d * g.c
    d = f.c * g.b + f.d * g.d
    return dh.MoebiusMap(a, b, c, d)


def plain_cg(op, rhs, shift, tol, max_iters):
    """Reference oracle: unpreconditioned conjugate gradient for
    (op + shift I) x = rhs, stopping at |r| <= tol |rhs|.  Returns
    (x, iterations)."""
    def inner(a, b):
        return float(np.real(np.conj(a) * b).sum())

    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = inner(r, r)
    rhs_norm = np.sqrt(rs) + 1e-300
    it = 0
    for it in range(1, max_iters + 1):
        ap = op(p, np.empty_like(p)) + shift * p
        denom = inner(p, ap)
        if denom <= 0:
            raise FloatingPointError(f"CG breakdown at iteration {it}")
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = inner(r, r)
        if np.sqrt(rs_new) <= tol * rhs_norm:
            return x, it
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, it


def clifford_contract_oracle(dphi, psi_values):
    """Matrix-form oracle for ``fields.clifford_frame_contract``:
    sum_{a,i} d_a phi^i (E_a @ psi^i) with the Clifford matrices E1, E2."""
    e = np.stack([E1, E2])
    return np.einsum("...ai,ast,...it->...s", dphi, e, psi_values)


def bandlimited_oracle(chart, rng, components=(), kmax=3, amplitude=1.0, modes=None):
    """Reference oracle for ``charts.bandlimited_field``: the full-grid
    double loop over (kx, ky), with the same draws."""
    shape = tuple(components)
    out = np.zeros(chart.shape + shape)
    pad = (None,) * len(shape)
    tx = 2.0 * np.pi * (chart.x / chart.side)
    ty = 2.0 * np.pi * (chart.y / chart.side)
    ks = range(-kmax, kmax + 1)
    for kx in ks:
        for ky in ks:
            if kx == 0 and ky == 0:
                continue
            if modes is not None and max(abs(kx), abs(ky)) not in modes:
                continue
            a = rng.normal(size=shape)
            b = rng.normal(size=shape)
            phase = kx * tx + ky * ty
            out += np.cos(phase)[(...,) + pad] * a
            out += np.sin(phase)[(...,) + pad] * b
    peak = np.abs(out).max()
    if peak > 0:
        out *= amplitude / peak
    return out


def spinor_pullback(chart, values, f, exponent):
    """Pull a K-spinor grid back along the Moebius map with graded phases.

    Positive half-spinor components scale by conj(s) |s|^(2 exponent - 1),
    negative by s |s|^(2 exponent - 1), with s the global holomorphic square
    root of f'.  exponent = +1/2 multiplies magnitudes by |f'|^(1/2).
    """
    from diracharmonic.identities import _graded_factor, _mapped_points

    wx, wy = _mapped_points(chart, f)
    return chart.interp(values, wx, wy) * _graded_factor(chart, f, exponent)


def map_pullback(phi, f):
    """phi o f by bilinear interpolation, re-projected onto the target."""
    from diracharmonic.identities import _mapped_points

    chart = phi.chart
    wx, wy = _mapped_points(chart, f)
    vals = phi.target.project_point(chart.interp(phi.values, wx, wy))
    return dh.MapField(chart, phi.target, vals)


def conformal_oracle(phi, psi, f, convention):
    """Reference for ``identities.conformal_invariance_defect``: the
    (action, energy) relative changes of one unshared evaluation per (map,
    convention), every D psi taken from ``el_residual``."""
    expo = {"inverse_fprime": 0.5, "fprime": -0.5}[convention]
    chart = phi.chart
    phi_t = map_pullback(phi, f)
    psi_t = dh.project_spinor(phi_t, spinor_pullback(chart, psi.values, f, expo))

    def action(p, s):
        spin = dh.el_residual(p, s).spinor_residual
        dens = dh.fields.dirichlet_density(p) + dh.re_pairing(s.values, spin).sum(axis=-1)
        return chart.integrate(dens)

    L0, L1 = action(phi, psi), action(phi_t, psi_t)
    E0, E1 = dh.energy(phi, psi), dh.energy(phi_t, psi_t)
    return abs(L0 - L1) / (1.0 + abs(L0)), abs(E0 - E1) / (1.0 + abs(E0))


def inverted_chart(rmap):
    """The rational map S with S(conj(w)) = R(1/conj(w)), by reversing the
    coefficients of R up to the common degree."""
    d = rmap.degree
    num = np.zeros(d + 1, dtype=np.complex128)
    den = np.zeros(d + 1, dtype=np.complex128)
    num[d - (rmap.num.size - 1):] = rmap.num[::-1]
    den[d - (rmap.den.size - 1):] = rmap.den[::-1]
    return dh.RationalMap(num, den)


def sphere_dirichlet_energy(rmap):
    """Dirichlet energy of phi = stereo o R over the whole sphere.

    Quadrature on 128 x 128 grids in two stereographic charts glued by a
    smooth partition of unity: chart 1 covers |z| <= 1.3, chart 2 the image
    of |z| >= 0.77 under z -> 1/conj(z).  Each integrand is smooth with
    compact support inside a periodic square, so the node sum converges at
    the stencil order.  A degree-d map gives 8 pi d.

    Chart 2 samples w -> stereo(S(conj(w))) with S = ``inverted_chart(R)``,
    whose density at w is that of stereo o S at conj(w).  The nodes are
    mirror-symmetric in y except on the seam row, where both weights
    vanish, so the sum takes the density of stereo o S itself.
    """
    chart = dh.DomainChart.torus(128, side=2.72)
    r = np.abs(chart.z)

    def weight(rad):
        # C^1 ramp from 1 (r <= 0.8) to 0 (r >= 1.25).
        t = np.clip((rad - 0.8) / 0.45, 0.0, 1.0)
        return 0.5 * (1.0 + np.cos(np.pi * t))

    def density(rm):
        phi = dh.conformal_map_field(rm, chart)
        return (phi.analytic_gradient ** 2).sum(axis=(-2, -1))

    with np.errstate(divide="ignore"):
        w_north = 1.0 - weight(1.0 / np.where(r > 1e-12, r, 1e-12))
    w_north = np.where(r > 1e-12, w_north, 1.0)
    return (chart.integrate(density(rmap) * weight(r))
            + chart.integrate(density(inverted_chart(rmap)) * w_north))


def circle_integral(chart, f, r, n_theta=256):
    """Line integral of ``f`` over the circle |z| = r of a disk chart,
    trapezoidal in angle over ``chart.interp``; the radius must pass the
    chart's 4h <= r <= 1 - 4h check, as in ``pohozaev_defect``."""
    chart._check_radius(r)
    theta, px, py = chart.circle_points(r, n_theta)
    vals = chart.interp(f, px, py)
    out = vals.sum(axis=0) * (2.0 * np.pi * r / n_theta)
    return complex(out) if np.iscomplexobj(np.asarray(f)) else float(out)


def fd5_derivative(samples, h):
    """Independent derivative oracle: fourth-order five-point stencil at the
    center of a 5-sample window."""
    m2, m1, _, p1, p2 = samples
    return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
