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

Each defect function returns the number its verify record judges,
``em_defects`` the three that T's conservation laws give (its symmetry,
its divergence and the dbar of T_11 - i T_12) and ``pohozaev_defect`` one
per circle radius, from one evaluation per pair; whether a conditional
identity applies is ``verify``'s to judge.  The identities read only
D psi, never the normal defect, so they take it from ``dirac_along_map``.
Each drops a grid-sized array after its last read, takes covariant
derivatives one direction at a time, forms each e_a . psi one ambient
slot at a time and only for its pairings, and R(X, Y) S one slot at a
time from two pairings that read S one slot at a time, so S never exists
whole.  Second derivatives and D^2 psi overwrite the first derivative
or D psi slot by slot, so each holds one grid and a slot beside the
right-hand side.  Above its inputs each identity holds at most 3.5
spinor grids at once, gated at 4.25 (``tests/test_verify_memory.py``).
``conformal_invariance_defect`` returns what the conformal record judges:
per rescaling convention, the worst action and energy changes over
several maps, sharing the pair's own terms and each map's pullback across
maps and conventions, and evaluating each pair only on the block of nodes
where it differs from its far field (``DomainChart.block``), with the
whole chart's bits under the condition its docstring states.
"""

from __future__ import annotations

import numpy as np

from .charts import DomainChart, MoebiusMap, empty_planes
from .fields import (MapField, TwistedSpinorField, action, covariant_derivative,
                     dirac_along_map, dirichlet_density, energy, project_spinor,
                     _tangent_project_spinor)
from .spinors import FRAME, clifford_mul, re_pairing, spinor_norm2
from .targets import ambient_pairing


def _frame_mul(e, values) -> np.ndarray:
    """e . values for a ``FRAME`` vector e on a twisted grid, one ambient
    slot at a time: ``clifford_mul``'s bits (its products by 0 and +-1 are
    exact), holding one slot's temporaries where it holds a grid's."""
    out = np.empty_like(values)
    for i in range(values.shape[-2]):
        out[..., i, :] = clifford_mul(e, values[..., i, :])
    return out


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
    del d, dirichlet
    for b, axis in enumerate(("x", "y")):
        grad_b = covariant_derivative(phi, psi.values, axis)
        for a, e_a in enumerate(FRAME):
            # Re<psi, e_a . grad_b psi> = -Re<e_a . psi, grad_b psi>; e_a . psi
            # is formed for its one pairing and holds that pairing's products.
            e_psi = _frame_mul(e_a, psi.values)
            T[..., a, b] -= re_pairing(e_psi, grad_b, axis=(-2, -1), work=e_psi)
            del e_psi
        del grad_b
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


def _second_covariant_derivative(phi: MapField, values, axis: str) -> np.ndarray:
    """grad_axis grad_axis of a K-spinor grid in one grid beside its input:
    the outer flat derivative runs one ambient slot at a time through a
    one-slot buffer into the inner derivative's grid, then projects in
    place.  A stencil never mixes slots, so these are the bits of
    ``covariant_derivative`` taken twice."""
    inner = covariant_derivative(phi, values, axis)
    slot = empty_planes(inner.shape[:2] + inner.shape[-1:], inner.dtype)
    for i in range(inner.shape[-2]):
        inner[..., i, :] = phi.chart.derivative(inner[..., i, :], axis, out=slot)
    del slot
    return _tangent_project_spinor(phi, inner, out=inner)


def _curvature_on_spinor(X, Y, s_slots):
    """R(X, Y) S on the unit sphere for real tangent fields X, Y and a
    K-spinor array S, complex-linear in S: by the Gauss equation
    <Y, S> X - <X, S> Y.  ``s_slots`` yields S's ambient slots in order;
    each is added into the two pairings as ``ambient_pairing`` adds it and
    then dropped, so S never exists whole.  Returns the function of
    (i, out=None) that forms its ambient slot i, X_i <Y, S> - Y_i <X, S>,
    in ``out`` when given; it holds only the two pairings.
    Flat targets have no curvature, and the callers skip the term there."""
    for i, s in enumerate(s_slots):
        if i == 0:
            ys = np.multiply(Y[..., 0, None], s)
            xs = np.multiply(X[..., 0, None], s)
        else:
            ys += Y[..., i, None] * s
            xs += X[..., i, None] * s
    del s

    def slot(i, out=None):
        xy = np.multiply(X[..., i, None], ys, out=out)
        return np.subtract(xy, Y[..., i, None] * xs, out=xy)
    return slot


def weitzenboeck_defect(phi: MapField, psi: TwistedSpinorField) -> float:
    """Unconditional second-order identity

        D^2 psi = -sum_a grad_a grad_a psi
                  + (1/2) sum_ab R(dphi_a, dphi_b)(e_a . e_b . psi).

    Returns the sup-norm of LHS - RHS over the chart interior.
    """
    chart = phi.chart
    vals = psi.values
    # -A - B for the two directions' terms A, B: the bits of 0 - A - B but
    # for the sign of exact zeros, which no norm sees.
    rhs = _second_covariant_derivative(phi, vals, "x")
    np.negative(rhs, out=rhs)
    rhs -= _second_covariant_derivative(phi, vals, "y")
    if phi.target.normal(phi.values) is not None:
        d = phi.gradient()
        # R(X, X) = 0, and the (1, 0) term equals the (0, 1) term: R(Y, X) =
        # -R(X, Y) and e2 . e1 = -e1 . e2.
        r_slot = _curvature_on_spinor(
            d[..., 0, :], d[..., 1, :],
            (clifford_mul(FRAME[0], clifford_mul(FRAME[1], vals[..., i, :]))
             for i in range(vals.shape[-2])))
        for i in range(rhs.shape[-2]):
            rhs[..., i, :] += r_slot(i)
        del d, r_slot
    # D^2 psi last, in D psi's grid.
    lhs = dirac_along_map(phi, psi)
    dirac_along_map(phi, TwistedSpinorField(chart, phi.target, lhs), out=lhs)
    lhs -= rhs
    del rhs
    gap = np.sqrt(spinor_norm2(lhs, axis=(-2, -1)))
    return float(gap[chart.interior_mask].max())


def bochner_defect(phi: MapField, psi: TwistedSpinorField) -> float:
    """Defect of the Laplacian identity for |psi|^2, valid when D psi = 0:

        (1/2) lap |psi|^2 = |grad psi|^2
                            - (1/2) sum_ab Re<e_a.psi, R(dphi_a, dphi_b)(e_b.psi)>.

    Returns the interior sup of |LHS - RHS|; ``verify`` judges D psi = 0.
    """
    chart = phi.chart
    lhs = 0.5 * chart.laplacian(psi.norm2_density())
    rhs = _gradient_norm2(phi, psi)
    if phi.target.normal(phi.values) is not None:
        d = phi.gradient()
        for a, b in ((0, 1), (1, 0)):  # R(X, X) = 0
            # e_b . psi is formed one ambient slot at a time for its two
            # pairings, e_a . psi once they are dropped, for the one with
            # R(dphi_a, dphi_b)(e_b . psi), whose products it holds.
            r_slot = _curvature_on_spinor(d[..., a, :], d[..., b, :],
                                          (clifford_mul(FRAME[b], psi.values[..., i, :])
                                           for i in range(psi.values.shape[-2])))
            r_on = np.empty_like(psi.values)
            for i in range(r_on.shape[-2]):
                r_slot(i, out=r_on[..., i, :])
            del r_slot
            e_psi = _frame_mul(FRAME[a], psi.values)
            rhs = rhs - 0.5 * re_pairing(e_psi, r_on, axis=(-2, -1), work=e_psi)
            del e_psi, r_on
    return float(np.abs(lhs - rhs)[chart.interior_mask].max())


# -- Pohozaev circle identities ----------------------------------------------------

def pohozaev_defect(phi: MapField, psi: TwistedSpinorField, radii) -> list[float]:
    """Circle identity at each radius r of ``radii`` on a disk chart:

        int |phi_theta|^2 / r^2 dtheta = int |phi_r|^2 dtheta
                                         + int (psi, e_r . grad_r psi) dtheta
    and the same with the angular spinor term; both sides via bilinear
    interpolation and trapezoidal angle quadrature.  Returns, per radius,
    the larger of the radial and angular defects over the sum of the
    terms' sizes.  Every radius is checked before any field is formed; the
    fields are sampled on all circles at once, and each circle's arithmetic
    runs on its own slice, so it has the bits of a one-radius call.
    """
    chart = phi.chart
    for r in radii:
        chart._check_radius(r)
    n_theta = 4 * chart.n
    theta, px, py = chart.circle_points(np.asarray(radii)[:, None], n_theta)
    ct, st = np.cos(theta), np.sin(theta)

    d = phi.gradient()
    dxs = chart.interp(d[..., 0, :], px, py)
    dys = chart.interp(d[..., 1, :], px, py)
    del d
    gxs = chart.interp(covariant_derivative(phi, psi.values, "x"), px, py)
    gys = chart.interp(covariant_derivative(phi, psi.values, "y"), px, py)
    psis = chart.interp(psi.values, px, py)

    w = 2.0 * np.pi / n_theta
    defects = []
    for dx, dy, gx, gy, psi_vals in zip(dxs, dys, gxs, gys, psis):
        phi_r = ct[:, None] * dx + st[:, None] * dy
        phi_t = -st[:, None] * dx + ct[:, None] * dy  # |phi_theta| / r
        grad_r = ct[:, None, None] * gx + st[:, None, None] * gy
        grad_t = -st[:, None, None] * gx + ct[:, None, None] * gy
        er_grad_r = clifford_mul((ct[:, None], st[:, None]), grad_r)
        et_grad_t = clifford_mul((-st[:, None], ct[:, None]), grad_t)
        spin_radial = re_pairing(psi_vals, er_grad_r, axis=(-2, -1))
        spin_angular = re_pairing(psi_vals, et_grad_t, axis=(-2, -1))
        lhs = float((phi_t**2).sum() * w)
        rad = float((phi_r**2).sum() * w)
        s_rad = float(spin_radial.sum() * w)
        s_ang = float(spin_angular.sum() * w)
        scale = lhs + rad + abs(s_rad) + abs(s_ang) + 1e-300
        defects.append(max(abs(lhs - rad - s_rad), abs(lhs - rad + s_ang)) / scale)
    return defects


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


def _live_block(chart: DomainChart, live) -> tuple[DomainChart, tuple]:
    """The block chart over the bounding square of the ``live`` nodes plus
    2 nodes on each side (one for the stencil's reach, one for its wrap
    partner) and its index slices; the whole chart when no node is live or
    that square does not fit inside the grid (a clipped block would wrap a
    live node onto the wrong neighbour)."""
    rows, cols = np.flatnonzero(live.any(axis=1)), np.flatnonzero(live.any(axis=0))
    if rows.size:
        m = max(rows[-1] - rows[0], cols[-1] - cols[0]) + 5
        i0, j0 = rows[0] - 2, cols[0] - 2
        if min(i0, j0) >= 0 and max(i0, j0) + m <= chart.n:
            return chart.block(i0, j0, m), np.s_[i0:i0 + m, j0:j0 + m]
    return chart, np.s_[:, :]


def _pulled_live(chart: DomainChart, live, wx, wy) -> np.ndarray:
    """The nodes whose image (wx, wy) lies within 2 nodes of a ``live`` node
    along each axis: every node whose bilinear cell holds a live node, and
    a node to spare for the rounding of the image's grid coordinates."""
    near = live
    for axis in (0, 1):
        grown = near.copy()
        for step in (-2, -1, 1, 2):
            grown |= np.roll(near, step, axis)
        near = grown
    ix = np.rint((wx - chart.x[0, 0]) / chart.h).astype(int)
    iy = np.rint((wy - chart.y[0, 0]) / chart.h).astype(int)
    return near[iy, ix]


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

    Each pair, and each pullback, is evaluated only on the block of nodes
    around its live ones (``_live_block``).  The pair's live nodes are
    those where phi differs from phi at node [0, 0] or psi is nonzero; the
    rest is its far field.  A pullback's live nodes are those whose image
    may read a live node (``_pulled_live``).  Outside a block every
    stencil then reads only far-field nodes, each node inside has its
    whole-chart neighbours, and the block's integrals add in the whole
    chart's order.  So the result has the bits of the whole-chart
    evaluation when interpolation and reprojection return the far field
    exactly, which makes every density outside a block exactly 0.  The
    spinor's far field 0 always comes back exactly.  A sphere map's far
    field (0, ..., 0, 1), the canonical compact pair's, does too:
    interpolation gives (0, ..., 0, s) with s the sum of the weights, and
    ``project_point`` returns (0, ..., 0, 1), because sqrt(s^2) = s in
    binary64.  Any other far field differs from the whole-chart result
    only by the rounding of the interpolation weights.
    """
    chart = phi.chart
    live = ((phi.values != phi.values[0, 0]).any(axis=-1)
            | (psi.values != 0).any(axis=(-2, -1)))
    block, at = _live_block(chart, live)
    phi_b = MapField(block, phi.target, phi.values[at])
    psi_b = TwistedSpinorField(block, psi.target, psi.values[at])
    L0 = action(phi_b, psi_b)
    E0 = energy(phi_b, psi_b)
    del phi_b, psi_b
    changes = {convention: ([], []) for convention in _EXPONENTS}
    for f in maps:
        wx, wy = _mapped_points(chart, f)
        block, at = _live_block(chart, _pulled_live(chart, live, wx, wy))
        wx, wy = wx[at], wy[at]
        phi_t = MapField(block, phi.target,
                         phi.target.project_point(chart.interp(phi.values, wx, wy)))
        pulled = chart.interp(psi.values, wx, wy)
        for convention, expo in _EXPONENTS.items():
            # Interpolation and reprojection leave O(h^2) tangency crumbs;
            # clean them up along the pulled-back map before assembling
            # the action.
            psi_t = project_spinor(phi_t, pulled * _graded_factor(block, f, expo))
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
    # Every circle in one interpolation per field, each circle's sup on its own row.
    _, px, py = chart.circle_points(radii[:, None], 4 * chart.n)
    sups = [chart.interp(g, px, py).max(axis=1) for g in (dmag, psi_mag, gpsi_mag)]

    rows = {"r": [], "dphi_weighted": [], "psi_weighted": [], "grad_psi_weighted": [],
            "annulus_energy": [], "growth": []}
    for r, dphi_sup, psi_sup, gpsi_sup in zip(radii, *sups):
        rows["r"].append(float(r))
        rows["dphi_weighted"].append(float(dphi_sup * r))
        rows["psi_weighted"].append(float(psi_sup * r**0.5))
        rows["grad_psi_weighted"].append(float(gpsi_sup * r**1.5))
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
