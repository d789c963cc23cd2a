"""Closed-form critical pairs of the coupled functional.

Three families:

* (harmonic map, 0) -- here the equator-wrapping geodesic maps of the
  torus (``harmonic_wrap``) and inverse-stereographic images of rational maps;
* (constant map, harmonic spinor) -- ``constant_spinor_pair``;
* the twistor pushforward psi^i = sum_a (e_a . Psi) d_a phi^i built from a
  (possibly branched) conformal map and an affine twistor spinor, which
  solves the full coupled system.

Rational maps are evaluated projectively as coefficient pairs (P, Q), so
poles never produce non-finite values: the sphere point of p/q is

    ( 2 Re(p conj(q)), 2 Im(p conj(q)), |p|^2 - |q|^2 ) / (|p|^2 + |q|^2).

The library reads a map's conformality only off the (2,0) part
T_11 - i T_12 of the energy-momentum tensor (``identities``).
"""

from __future__ import annotations

import numpy as np

from .charts import DomainChart, empty_planes
from .fields import MapField, TwistedSpinorField, project_spinor
from .spinors import FRAME, clifford_mul, twistor_field
from .targets import Sphere, TargetGeometry


class RationalMap:
    """Rational function of z with ascending complex coefficient arrays."""

    def __init__(self, numerator, denominator=(1.0,)):
        self.num = np.trim_zeros(np.asarray(numerator, dtype=np.complex128), "b")
        self.den = np.trim_zeros(np.asarray(denominator, dtype=np.complex128), "b")
        if self.num.size == 0:
            self.num = np.zeros(1, dtype=np.complex128)
        if self.den.size == 0:
            raise ValueError("denominator is identically zero")
        self._check_coprime()

    @property
    def degree(self) -> int:
        return max(self.num.size, self.den.size) - 1

    def _check_coprime(self) -> None:
        if self.num.size < 2 or self.den.size < 2:
            return
        rn = np.polynomial.polynomial.polyroots(self.num)
        rd = np.polynomial.polynomial.polyroots(self.den)
        if rn.size and rd.size:
            gap = np.abs(rn[:, None] - rd[None, :]).min()
            if gap < 1e-9:
                raise ValueError("numerator and denominator share a root")

    def pair(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Homogeneous evaluation (P(z), Q(z))."""
        z = np.asarray(z, dtype=np.complex128)
        return (np.polynomial.polynomial.polyval(z, self.num),
                np.polynomial.polynomial.polyval(z, self.den))

    def derivative_pair(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(P', Q') at z."""
        z = np.asarray(z, dtype=np.complex128)
        dn = np.polynomial.polynomial.polyder(self.num) if self.num.size > 1 else np.zeros(1)
        dd = np.polynomial.polynomial.polyder(self.den) if self.den.size > 1 else np.zeros(1)
        return (np.polynomial.polynomial.polyval(z, dn),
                np.polynomial.polynomial.polyval(z, dd))


def stereo_pair(p, q) -> np.ndarray:
    """Sphere point of the homogeneous value p/q (works at poles, q = 0)."""
    p = np.asarray(p, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    pq = p * np.conj(q)
    ap = p.real**2 + p.imag**2
    aq = q.real**2 + q.imag**2
    denom = ap + aq
    if (denom < 1e-300).any():
        raise ValueError("homogeneous pair (0, 0) has no sphere image")
    out = np.stack([2.0 * pq.real, 2.0 * pq.imag, ap - aq], axis=-1)
    return out / denom[..., None]


def _pair_wirtinger(p, q, dp, dq) -> np.ndarray:
    """Wirtinger derivative d(phi)/d(zeta) of the sphere point of (p, q).

    p, q holomorphic in zeta.  Finite everywhere, poles included, because
    only the homogeneous pair enters.
    """
    N = p.real**2 + p.imag**2 + q.real**2 + q.imag**2
    dN = dp * np.conj(p) + dq * np.conj(q)
    A = 2.0 * (p * np.conj(q)).real
    B = 2.0 * (p * np.conj(q)).imag
    C = p.real**2 + p.imag**2 - (q.real**2 + q.imag**2)
    dA = dp * np.conj(q) + np.conj(p) * dq
    dB = -1j * (dp * np.conj(q) - np.conj(p) * dq)
    dC = dp * np.conj(p) - dq * np.conj(q)
    out = np.stack([(dA * N - A * dN), (dB * N - B * dN), (dC * N - C * dN)], axis=-1)
    return out / (N**2)[..., None]


def _sphere_map(chart: DomainChart, p, q, dp, dq) -> MapField:
    """The S^2 map of the pair (p, q), holomorphic in z, with its exact
    gradient 2 Re w, 2 Re(i w), w = d phi / d z.  Keep this allocation
    order: forming the values last raised verify's peak RSS by 8%.  Keep
    2 Re(i w) too: -2 Im w differs from it in the sign of exact zeros."""
    values = stereo_pair(p, q)
    wirt = _pair_wirtinger(p, q, dp, dq)
    grad_x = 2.0 * wirt.real
    grad_y = 2.0 * (wirt * 1j).real
    grad = np.stack([grad_x, grad_y], axis=-2)
    return MapField(chart, Sphere(2), values, analytic_gradient=grad)


def conformal_map_field(rmap: RationalMap, chart: DomainChart) -> MapField:
    """Sample phi = (inverse stereographic) o R(z) on the chart.

    The exact gradient is attached, evaluated projectively so poles of R on
    the grid are harmless (the sphere map is smooth through them).
    """
    # Sample a copy of chart.z, freed on return: on the bench's
    # verify-disk-n128 workload, sampling chart.z itself raised peak RSS from
    # 91-93 to 99 MB with the same working set (malloc's heap layout).
    z = chart.z.copy()
    return _sphere_map(chart, *rmap.pair(z), *rmap.derivative_pair(z))


def twistor_pushforward(phi: MapField, psi0, psi1) -> TwistedSpinorField:
    """psi^i = sum_a (e_a . Psi) d_a phi^i with Psi the affine twistor spinor.

    Uses the exact gradient when the map carries one (the rational and
    elliptic families do), making the tangency constraint an exact
    algebraic identity; the stencil gradient otherwise.
    """
    chart = phi.chart
    Psi = twistor_field(chart, psi0, psi1)
    e1Psi = clifford_mul(FRAME[0], Psi)
    e2Psi = clifford_mul(FRAME[1], Psi)
    d = phi.gradient() if phi.analytic_gradient is None else phi.analytic_gradient
    # One ambient slot at a time, straight into the stored layout: the sum
    # of the two products is elementwise, so each slot has the bits of the
    # whole-grid sum with one slot's temporaries.
    vals = empty_planes(chart.shape + (phi.target.ambient_dim, 2), np.complex128)
    for i in range(vals.shape[-2]):
        np.add(d[..., 0, i, None] * e1Psi, d[..., 1, i, None] * e2Psi, out=vals[..., i, :])
    return TwistedSpinorField(chart, phi.target, vals)


def _thetas(v):
    """Jacobi theta_1 and theta_2 for the square lattice (nome q = e^-pi),
    each with its derivative, as ((theta_1, theta_1'), (theta_2, theta_2'));
    five terms already reach machine precision."""
    q = np.exp(-np.pi)
    f1, df1, f2, df2 = (np.zeros_like(v) for _ in range(4))
    for n in range(6):
        odd = 2 * n + 1
        coef = 2.0 * (-1.0) ** n * q ** ((n + 0.5) ** 2)
        f1 = f1 + coef * np.sin(odd * v)
        df1 = df1 + coef * odd * np.cos(odd * v)
        coef = 2.0 * q ** ((n + 0.5) ** 2)
        f2 = f2 + coef * np.cos(odd * v)
        df2 = df2 - coef * odd * np.sin(odd * v)
    return (f1, df1), (f2, df2)


def elliptic_conformal_field(chart: DomainChart, scale: complex = 1.0) -> MapField:
    """Doubly periodic branched conformal map of the square torus into S^2.

    The theta quotient g = theta_2(pi u)/theta_1(pi u) (u = z/side) is
    periodic up to sign, so g^2 is a genuine degree-2 elliptic function;
    phi is the inverse stereographic image of scale * g^2, evaluated
    projectively so the poles on the period lattice are ordinary points.
    This is the exact solution family that lives on the whole torus with
    no seam or window.
    """
    if chart.topology != "torus":
        raise ValueError("the elliptic family lives on the torus")
    L = chart.side
    v = np.pi * chart.z / L
    (t1, dt1), (t2, dt2) = _thetas(v)
    c = complex(scale)
    p = c * t2**2
    q = t1**2
    dp = 2.0 * c * t2 * dt2 * (np.pi / L)
    dq = 2.0 * t1 * dt1 * (np.pi / L)
    return _sphere_map(chart, p, q, dp, dq)


def harmonic_wrap(chart: DomainChart, winding: int = 1) -> MapField:
    """Closed-geodesic map (cos 2 pi k x / side, sin ..., 0) on the torus."""
    k = 2.0 * np.pi * winding / chart.side
    phase = k * chart.x
    vals = np.stack([np.cos(phase), np.sin(phase), np.zeros_like(phase)], axis=-1)
    return MapField(chart, Sphere(2), vals)


def constant_spinor_pair(chart: DomainChart, target: TargetGeometry, base_point, spinor_direction,
                         spinor_components) -> tuple[MapField, TwistedSpinorField]:
    """A constant map with a constant (hence harmonic) tangent spinor: the
    spinor data direction x components projected tangent at the base point,
    the same at every node, so its flat Dirac vanishes exactly.
    """
    phi = MapField.constant(chart, target, base_point)
    K = target.ambient_dim
    direction = np.asarray(spinor_direction, dtype=float)
    if direction.shape != (K,):
        raise ValueError(f"spinor direction needs {K} components")
    comp = np.asarray(spinor_components, dtype=np.complex128)
    raw = np.zeros(chart.shape + (K, 2), dtype=np.complex128)
    raw[:] = direction[:, None] * comp[None, :]
    return phi, project_spinor(phi, raw)
