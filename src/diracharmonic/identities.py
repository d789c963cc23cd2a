"""Conserved quantities and identities of the coupled system as defect
functionals.

Every function here measures how far a discrete field pair is from
satisfying an identity that holds exactly in the continuum: either
unconditionally (Weitzenboeck, formal self-adjointness) or on solutions
of the critical-point system (energy-momentum conservation, holomorphy
of the quadratic differential, Pohozaev circle balance, Bochner).
Defects on exact solution families shrink at the stencil order O(h^2);
on generic fields the conditional ones stay bounded away from zero.  The
quadratic differential's coefficient is the (2,0) part T_11 - i T_12 of
the one energy-momentum tensor T.

Each defect function returns the number its verify record judges, and
``em_defects`` the three that T's conservation laws give: its symmetry,
its divergence and the dbar of T_11 - i T_12.  The identities read only
D psi, never the normal defect, so they take it from
``dirac_along_map``.  Each drops a grid-sized array after its last read
and takes covariant derivatives one direction at a time, so it holds a
few spinor grids at once (``tests/test_verify_memory.py``).
``conformal_invariance_defect`` returns what the conformal record judges:
per rescaling convention, the worst action and energy changes over
several maps, sharing the pair's own terms and each map's pullback across
maps and conventions.
"""

from __future__ import annotations

import numpy as np

from .charts import DomainChart, MoebiusMap, empty_planes
from .fields import (MapField, TwistedSpinorField, action, covariant_derivative,
                     dirac_along_map, dirichlet_density, energy, project_spinor)
from .spinors import FRAME, clifford_mul, re_pairing, spinor_norm2
from .targets import ambient_pairing

BOCHNER_DIRAC_TOL = 1e-2  # bochner_defect's bound on sup |D psi| per unit field scale


# -- energy-momentum tensor ----------------------------------------------------

def energy_momentum(phi: MapField, psi: TwistedSpinorField) -> np.ndarray:
    """T_ab = 2 <phi_a, phi_b> - delta_ab |dphi|^2 + Re<psi, e_a . grad_b psi>,
    the symmetric 2-tensor of the coupled action; shape (n, n, 2, 2)."""
    chart = phi.chart
    d = phi.gradient()
    T = np.zeros(chart.shape + (2, 2))
    dirichlet = (d**2).sum(axis=(-2, -1))
    for a in range(2):
        for b in range(2):
            T[..., a, b] = 2.0 * (d[..., a, :] * d[..., b, :]).sum(axis=-1)
            if a == b:
                T[..., a, b] -= dirichlet
    e_psi = [clifford_mul(e_a, psi.values) for e_a in FRAME]
    for b, axis in enumerate(("x", "y")):
        grad_b = covariant_derivative(phi, psi.values, axis)
        for a in range(2):
            # Re<psi, e_a . grad_b psi> = -Re<e_a . psi, grad_b psi>.
            T[..., a, b] -= re_pairing(e_psi[a], grad_b, axis=(-2, -1))
    return T


def em_defects(phi: MapField, psi: TwistedSpinorField) -> tuple[float, float, float]:
    """The conservation laws of T = ``energy_momentum(phi, psi)`` as
    defects over the chart interior: sup |T_12 - T_21|, the L2 norm of the
    divergence sum_a D_a T_ab, and sup |dbar| of the quadratic
    differential's coefficient T_11 - i T_12."""
    chart = phi.chart
    mask = chart.interior_mask
    T = energy_momentum(phi, psi)
    div = np.zeros(chart.shape + (2,))
    for b in range(2):
        div[..., b] = chart.derivative(T[..., 0, b], "x") + chart.derivative(T[..., 1, b], "y")
    mag = np.sqrt((div**2).sum(axis=-1))
    del div
    div_l2 = float(np.sqrt(chart.integrate(mag**2, region=mask)))
    symmetry = float(np.abs(T[..., 0, 1] - T[..., 1, 0])[mask].max())
    hopf = T[..., 0, 0] - 1j * T[..., 0, 1]
    dbar = 0.5 * (chart.derivative(hopf, "x") + 1j * chart.derivative(hopf, "y"))
    return symmetry, div_l2, float(np.abs(dbar)[mask].max())


# -- Weitzenboeck / Bochner -------------------------------------------------------

def _gradient_norm2(phi: MapField, psi: TwistedSpinorField) -> np.ndarray:
    """|grad psi|^2 of the covariant derivative, one direction at a time."""
    out = spinor_norm2(covariant_derivative(phi, psi.values, "x"), axis=(-2, -1))
    out += spinor_norm2(covariant_derivative(phi, psi.values, "y"), axis=(-2, -1))
    return out


def _curvature_on_spinor(phi: MapField, X, Y, S) -> np.ndarray:
    """R(X, Y) S for real tangent fields X, Y and a K-spinor array S,
    complex-linear in S.  By the Gauss equation the unit sphere gives
    <Y, S> X - <X, S> Y; flat targets (no normal) give 0."""
    if phi.target.normal(phi.values) is None:
        return np.zeros(S.shape, S.dtype)
    ys = ambient_pairing(Y, S)
    xs = ambient_pairing(X, S)
    return X[..., :, None] * ys[..., None, :] - Y[..., :, None] * xs[..., None, :]


def weitzenboeck_defect(phi: MapField, psi: TwistedSpinorField) -> float:
    """Unconditional second-order identity

        D^2 psi = -sum_a grad_a grad_a psi
                  + (1/2) sum_ab R(dphi_a, dphi_b)(e_a . e_b . psi).

    Returns the sup-norm of LHS - RHS over the chart interior.
    """
    chart = phi.chart
    rhs = np.zeros_like(psi.values)
    for axis in ("x", "y"):
        rhs -= covariant_derivative(phi, covariant_derivative(phi, psi.values, axis), axis)
    d = phi.gradient()
    # R(X, X) = 0, and the (1, 0) term equals the (0, 1) term: R(Y, X) =
    # -R(X, Y) and e2 . e1 = -e1 . e2.
    rhs += _curvature_on_spinor(phi, d[..., 0, :], d[..., 1, :],
                                clifford_mul(FRAME[0], clifford_mul(FRAME[1], psi.values)))
    del d
    # D^2 psi last, D psi alive only while D^2 psi is formed.
    lhs = dirac_along_map(phi, TwistedSpinorField(chart, phi.target, dirac_along_map(phi, psi)))
    gap = np.sqrt(spinor_norm2(lhs - rhs, axis=(-2, -1)))
    return float(gap[chart.interior_mask].max())


def bochner_defect(phi: MapField, psi: TwistedSpinorField, scale: float) -> float:
    """Defect of the Laplacian identity for |psi|^2, valid when D psi = 0:

        (1/2) lap |psi|^2 = |grad psi|^2
                            - (1/2) sum_ab Re<e_a.psi, R(dphi_a, dphi_b)(e_b.psi)>.

    Raises if sup |D psi| exceeds BOCHNER_DIRAC_TOL times ``scale``, the
    pair's ``field_scale`` (the identity is conditional); sups are interior.
    """
    chart = phi.chart
    mask = chart.interior_mask
    measured = float(np.sqrt(spinor_norm2(dirac_along_map(phi, psi), axis=(-2, -1)))[mask].max())
    if measured > BOCHNER_DIRAC_TOL * scale:
        raise ValueError(f"Dirac residual {measured:.3e} exceeds tolerance "
                         f"{BOCHNER_DIRAC_TOL:.1e} x scale {scale:.3e}; the identity "
                         "is only valid on solutions")
    lhs = 0.5 * chart.laplacian(psi.norm2_density())
    rhs = _gradient_norm2(phi, psi)
    d = phi.gradient()
    e_psi = [clifford_mul(e_a, psi.values) for e_a in FRAME]
    for a, b in ((0, 1), (1, 0)):  # R(X, X) = 0
        r_on = _curvature_on_spinor(phi, d[..., a, :], d[..., b, :], e_psi[b])
        rhs = rhs - 0.5 * re_pairing(e_psi[a], r_on, axis=(-2, -1))
        del r_on
    return float(np.abs(lhs - rhs)[mask].max())


# -- Pohozaev circle identities ----------------------------------------------------

def pohozaev_defect(phi: MapField, psi: TwistedSpinorField, r: float) -> float:
    """Circle identity at radius r on a disk chart:

        int |phi_theta|^2 / r^2 dtheta = int |phi_r|^2 dtheta
                                         + int (psi, e_r . grad_r psi) dtheta
    and the same with the angular spinor term; both sides via bilinear
    interpolation and trapezoidal angle quadrature.  Returns the larger of
    the radial and angular defects over the sum of the terms' sizes.
    """
    chart = phi.chart
    chart._check_radius(r)
    n_theta = 4 * chart.n
    theta, px, py = chart.circle_points(r, n_theta)
    ct, st = np.cos(theta), np.sin(theta)

    d = phi.gradient()
    dx = chart.interp(d[..., 0, :], px, py)
    dy = chart.interp(d[..., 1, :], px, py)
    phi_r = ct[:, None] * dx + st[:, None] * dy
    phi_t = -st[:, None] * dx + ct[:, None] * dy  # |phi_theta| / r

    gx = chart.interp(covariant_derivative(phi, psi.values, "x"), px, py)
    gy = chart.interp(covariant_derivative(phi, psi.values, "y"), px, py)
    psi_vals = chart.interp(psi.values, px, py)
    grad_r = ct[:, None, None] * gx + st[:, None, None] * gy
    grad_t = -st[:, None, None] * gx + ct[:, None, None] * gy

    er_grad_r = clifford_mul((ct[:, None], st[:, None]), grad_r)
    et_grad_t = clifford_mul((-st[:, None], ct[:, None]), grad_t)
    spin_radial = re_pairing(psi_vals, er_grad_r, axis=(-2, -1))
    spin_angular = re_pairing(psi_vals, et_grad_t, axis=(-2, -1))

    w = 2.0 * np.pi / n_theta
    lhs = float((phi_t**2).sum() * w)
    rad = float((phi_r**2).sum() * w)
    s_rad = float(spin_radial.sum() * w)
    s_ang = float(spin_angular.sum() * w)

    scale = lhs + rad + abs(s_rad) + abs(s_ang) + 1e-300
    return max(abs(lhs - rad - s_rad), abs(lhs - rad + s_ang)) / scale


# -- conformal invariance -----------------------------------------------------------

def _mapped_points(chart: DomainChart, f: MoebiusMap):
    """Images of the grid nodes, clamped to the interpolable square.

    Clamping only bites outside the unit disk (Moebius maps used here send
    the disk into itself), where masked quadrature never looks.
    """
    w = f(chart.z)
    half = 0.5 * chart.side - 1.5 * chart.h
    return np.clip(w.real, -half, half), np.clip(w.imag, -half, half)


def _graded_factor(chart: DomainChart, f: MoebiusMap, exponent: float) -> np.ndarray:
    """Per-node phases of the spinor pullback, shaped to multiply a K-spinor
    grid: conj(s) |s|^(2 exponent - 1) on the positive half-spinor
    component and s |s|^(2 exponent - 1) on the negative one."""
    s = f.sqrt_derivative(chart.z)
    mag = np.abs(s) ** (2.0 * exponent - 1.0)
    out = np.stack([np.conj(s) * mag, s * mag], axis=-1,
                   out=empty_planes(s.shape + (2,), s.dtype))
    return out[..., None, :]


_EXPONENTS = {"inverse_fprime": 0.5, "fprime": -0.5}


def conformal_invariance_defect(phi: MapField, psi: TwistedSpinorField,
                                maps) -> dict[str, tuple[float, float]]:
    """Per convention of ``_EXPONENTS``, (action, energy): the worst
    relative change of each under (phi, psi) -> (phi o f, lambda^(-1/2)
    psi o f) over ``maps``, taken in map order.

    The convention fixes what lambda means: "fprime" reads lambda = |f'|,
    "inverse_fprime" reads lambda = 1/|f'|.  Exactly one of the two leaves
    the discrete action and energy invariant under refinement.

    Work shared across maps and conventions is done once: the pair's
    action and energy, and per map the mapped nodes, the pulled-back map
    phi o f (interpolated and re-projected onto the target) and the
    interpolated spinor.  Each (map, convention) makes one Dirac
    evaluation of the transformed pair, for its action.
    """
    chart = phi.chart
    L0 = action(phi, psi)
    E0 = energy(phi, psi)
    changes = {convention: ([], []) for convention in _EXPONENTS}
    for f in maps:
        wx, wy = _mapped_points(chart, f)
        phi_t = MapField(chart, phi.target,
                         phi.target.project_point(chart.interp(phi.values, wx, wy)))
        pulled = chart.interp(psi.values, wx, wy)
        for convention, expo in _EXPONENTS.items():
            # Interpolation and reprojection leave O(h^2) tangency crumbs;
            # clean them up along the pulled-back map before assembling
            # the action.
            psi_t = project_spinor(phi_t, pulled * _graded_factor(chart, f, expo))
            L1 = action(phi_t, psi_t)
            E1 = energy(phi_t, psi_t)
            del psi_t
            changes[convention][0].append(abs(L0 - L1) / (1.0 + abs(L0)))
            changes[convention][1].append(abs(E0 - E1) / (1.0 + abs(E0)))
        del phi_t, pulled
    return {convention: (max(actions), max(energies))
            for convention, (actions, energies) in changes.items()}


# -- decay diagnostics -----------------------------------------------------------

def decay_profile(phi: MapField, psi: TwistedSpinorField) -> dict:
    """Diagnostic table of weighted circle sups and cumulative energies.

    Columns per radius r: sup |dphi| r, sup |psi| r^(1/2), sup |grad psi|
    r^(3/2) (grad the covariant derivative), the annulus energy on
    r <= |z| <= 2r, and the growth F(r) = int_{D_r} (|dphi|^2 + |psi|^4 +
    |grad psi|^(4/3)).  The 24 radii 6h .. min(0.9, 1 - 5h) increase only
    when 11h < 1; a coarser chart raises ValueError naming the least n.
    """
    chart = phi.chart
    if chart.topology != "disk":
        raise ValueError("decay diagnostics need a disk chart")
    h = chart.h
    if 11.0 * h >= 1.0:
        raise ValueError(f"chart.n = {chart.n} is too coarse for probe on a disk of side "
                         f"{chart.side}: the decay radii run from 6h up to 1 - 5h, so "
                         f"n >= {int(11.0 * chart.side) + 1}")
    radii = np.linspace(6.0 * h, min(0.9, 1.0 - 5.0 * h), 24)

    dmag = np.sqrt(dirichlet_density(phi))
    psi_mag = np.sqrt(psi.norm2_density())
    gpsi_mag = np.sqrt(_gradient_norm2(phi, psi))
    e_dens = dmag**2 + psi_mag**4
    growth_density = e_dens + gpsi_mag ** (4.0 / 3.0)  # the same sum, left to right
    rad = np.abs(chart.z)

    rows = {"r": [], "dphi_weighted": [], "psi_weighted": [], "grad_psi_weighted": [],
            "annulus_energy": [], "growth": []}
    for r in radii:
        _, px, py = chart.circle_points(float(r), 4 * chart.n)
        rows["r"].append(float(r))
        rows["dphi_weighted"].append(float(chart.interp(dmag, px, py).max() * r))
        rows["psi_weighted"].append(float(chart.interp(psi_mag, px, py).max() * r**0.5))
        rows["grad_psi_weighted"].append(float(chart.interp(gpsi_mag, px, py).max() * r**1.5))
        ann = (rad >= r) & (rad <= min(2.0 * r, 1.0))
        rows["annulus_energy"].append(chart.integrate(e_dens, region=ann))
        rows["growth"].append(chart.integrate(growth_density, region=rad <= r))
    return {k: np.asarray(v) for k, v in rows.items()}


# -- formal self-adjointness -------------------------------------------------------

def self_adjointness_defect(phi: MapField, psi: TwistedSpinorField,
                            xi: TwistedSpinorField) -> float:
    """|int (psi, D xi) - int (D psi, xi)| / scale on the torus.

    Exact summation by parts plus exact skew-adjointness of the Clifford
    matrices force this to machine precision.
    """
    chart = phi.chart
    if chart.topology != "torus":
        raise ValueError("the exact summation-by-parts identity needs a torus")
    d_xi = dirac_along_map(phi, xi)
    d_psi = dirac_along_map(phi, psi)
    left = chart.integrate(re_pairing(psi.values, d_xi, axis=(-2, -1)))
    right = chart.integrate(re_pairing(d_psi, xi.values, axis=(-2, -1)))
    scale = (np.sqrt(chart.integrate(psi.norm2_density())
                     * chart.integrate(spinor_norm2(d_xi, axis=(-2, -1))))
             + np.sqrt(chart.integrate(xi.norm2_density())
                       * chart.integrate(spinor_norm2(d_psi, axis=(-2, -1)))) + 1e-300)
    return abs(left - right) / scale
