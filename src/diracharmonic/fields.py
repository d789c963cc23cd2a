"""Coupled map / twisted-spinor fields and their variational operators.

A map field phi samples a map into the target, stored extrinsically as
ambient K-vectors with shape (n, n, K).  A twisted spinor field psi
stores K ambient spinor components with shape (n, n, K, 2) and the
pointwise tangency constraint <nu, psi> = 0 for the target's unit
normal nu along phi (on the sphere nu = phi; flat targets have no normal
and no constraint).

The shapes are the public layout; the storage is component-major (see
``charts``).  The constructors store through ``as_planes``, and every
kernel that builds a component axis passes ``np.stack`` or
``np.concatenate`` an ``out=`` from ``empty_planes`` or an ``empty_like``
of its input, or writes its pieces there one at a time where stacking
would keep several grid-sized temporaries alive (the gradients).

Every projection goes through that normal: the covariant derivative on
twisted spinors is the tangential part of the componentwise flat
derivative, and the Dirac operator along the map, ``dirac_along_map``,
is the tangential part of the flat Dirac operator.  Its normal part
reproduces A(dphi(e_a), e_a . psi) up to O(h^2); ``el_residual``, the
one reader of that normal defect, builds it beside D psi.  The operators
take psi tangent and phi on the target: ``check_pair`` decides both, with
finite values and energy, once, where a pair enters the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import DomainChart, as_planes, empty_planes
from .spinors import flat_dirac, re_pairing, spinor_norm2
from .targets import TargetGeometry, ambient_pairing, normal_part

ON_MANIFOLD_TOL = 1e-10
TANGENCY_TOL = 1e-8


class MapField:
    """Grid sample of a map into the target, as ambient vectors whose
    shape the constructor checks; ``check_pair`` holds them to the target.

    ``analytic_gradient`` optionally carries the exact (n, n, 2, K) gradient.
    Only the rational and elliptic families fill it, and ``twistor_pushforward``
    alone reads it, so that pushforward tangency holds to machine precision
    instead of O(h^2); the identities read the stencil gradient.
    """

    def __init__(self, chart: DomainChart, target: TargetGeometry, values,
                 analytic_gradient=None):
        values = np.asarray(values, dtype=float)
        if values.shape != chart.shape + (target.ambient_dim,):
            raise ValueError(f"map values have shape {values.shape}, expected "
                             f"{chart.shape + (target.ambient_dim,)}")
        self.chart = chart
        self.target = target
        self.values = as_planes(values)
        self.analytic_gradient = None if analytic_gradient is None else as_planes(analytic_gradient)

    @classmethod
    def constant(cls, chart, target, point) -> "MapField":
        point = np.asarray(point, dtype=float)
        if point.shape != (target.ambient_dim,):
            raise ValueError(f"base point needs {target.ambient_dim} components, got {point.size}")
        p = target.project_point(point)
        vals = empty_planes(chart.shape + (target.ambient_dim,))
        vals[...] = p
        return cls(chart, target, vals)

    def gradient(self, out=None) -> np.ndarray:
        """The finite-difference d phi as an (n, n, 2, K) array, written
        into ``out`` when given: axis -2 indexes the frame direction."""
        c, v = self.chart, self.values
        # Each derivative straight into its slot: np.stack would keep both
        # alive at once.
        out = empty_planes(v.shape[:-1] + (2,) + v.shape[-1:]) if out is None else out
        c.derivative(v, "x", out=out[..., 0, :])
        c.derivative(v, "y", out=out[..., 1, :])
        return out


class TwistedSpinorField:
    """Grid sample of a spinor with values in the pulled-back tangent bundle."""

    def __init__(self, chart: DomainChart, target: TargetGeometry, values):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != chart.shape + (target.ambient_dim, 2):
            raise ValueError(f"spinor values have shape {values.shape}, expected "
                             f"{chart.shape + (target.ambient_dim, 2)}")
        self.chart = chart
        self.target = target
        self.values = as_planes(values)

    @classmethod
    def zero(cls, chart, target) -> "TwistedSpinorField":
        return cls(chart, target, empty_planes(chart.shape + (target.ambient_dim, 2),
                                               np.complex128, zero=True))

    def norm2_density(self) -> np.ndarray:
        """|psi|^2 per node (ambient sum of half-spinor moduli)."""
        return spinor_norm2(self.values, axis=(-2, -1))


# -- scale conventions -------------------------------------------------------

def field_scale(phi: MapField, psi: TwistedSpinorField) -> float:
    """Energy-density scale 1 + sup|dphi|^2 + sup|psi|^2 used to normalize
    residual tolerances.  Sups are taken over the chart interior so the
    seam of windowed charts cannot inflate the scale."""
    mask = phi.chart.interior_mask
    s = 1.0 + float(dirichlet_density(phi)[mask].max())
    return s + float(psi.norm2_density()[mask].max())


def tangency_defect(phi: MapField, psi: TwistedSpinorField) -> float:
    """Sup of |<nu, psi>| for the unit normal nu along phi, relative to the
    spinor magnitude; 0.0 for flat targets, which have no normal."""
    nu = phi.target.normal(phi.values)
    if nu is None:
        return 0.0
    sup = np.sqrt(spinor_norm2(ambient_pairing(nu, psi.values))).max()
    scale = np.sqrt(psi.norm2_density().max()) + 1e-300
    return float(sup / scale)


class InadmissiblePair(ValueError):
    """A pair ``check_pair`` rejects; ``code`` names the rule broken:
    ``bad_values``, ``off_target`` or ``not_tangent``."""

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


@np.errstate(all="ignore")  # an overflow is reported once, by the raise
def check_pair(phi: MapField, psi: TwistedSpinorField) -> None:
    """The one admissibility rule for a pair entering the program, in order:
    finite values, a map on its target to ON_MANIFOLD_TOL, a finite energy
    int |dphi|^2 + |psi|^4, then a spinor tangent along the map to
    TANGENCY_TOL.  Raises InadmissiblePair naming the first rule broken.
    Every pair built inside the program is admissible by construction."""
    if not (np.isfinite(phi.values).all() and np.isfinite(psi.values).all()):
        raise InadmissiblePair("the pair has a non-finite value", "bad_values")
    d = phi.target.off_target(phi.values)
    if not d <= ON_MANIFOLD_TOL:
        raise InadmissiblePair(f"map leaves the target by {d:.3e} "
                               f"(tol {ON_MANIFOLD_TOL:.1e})", "off_target")
    if not np.isfinite(energy(phi, psi)):
        raise InadmissiblePair("the pair's energy overflows", "bad_values")
    d = tangency_defect(phi, psi)
    if not d <= TANGENCY_TOL:
        raise InadmissiblePair(f"spinor violates tangency by {d:.3e} "
                               f"(tol {TANGENCY_TOL:.1e})", "not_tangent")


def project_spinor(phi: MapField, raw) -> TwistedSpinorField:
    """Tangent-project an arbitrary K-spinor array along phi."""
    raw = np.asarray(raw, dtype=np.complex128)
    out = _tangent_project_spinor(phi, raw)
    return TwistedSpinorField(phi.chart, phi.target, out)


def _tangent_project_spinor(phi: MapField, arr, out=None) -> np.ndarray:
    """Apply the pointwise tangent projector of the target to each
    half-spinor component of an (n, n, K, 2) array, writing into ``out``
    (not overlapping ``arr``) when given."""
    normal = normal_part(phi.target.normal(phi.values), arr, out=out)
    return np.subtract(arr, normal, out=normal)


# -- first-order operators ----------------------------------------------------

def covariant_derivative(phi: MapField, values, axis: str, out=None) -> np.ndarray:
    """P d_axis of a K-spinor grid along "x" or "y": the tangential part
    of the flat derivative, written into ``out`` (component-major, not
    overlapping ``values``) when given."""
    d = phi.chart.derivative(values, axis, out=out)
    d -= normal_part(phi.target.normal(phi.values), d)
    return d


def clifford_frame_contract(dphi, psi_values, out=None, work=None) -> np.ndarray:
    """sigma = sum_{a,i} d_a phi^i  e_a . psi^i, a plain spinor field.

    This is the contraction through which the whole coupling acts: on the
    unit sphere A(dphi(e_a), e_a . psi) = -sigma (x) nu.  It fuses
    ``clifford_mul`` into the coupled flow's hot path without allocating;
    tests pin it to sum_i clifford_mul(d phi^i, psi^i), bit for bit up to
    the sign of exact zeros: sigma = (sum_i w^i g^i, -sum_i conj(w^i) f^i)
    with w = d_1 phi + i d_2 phi.

    ``out`` receives sigma and ``work``, a complex grid shaped like
    ``dphi[..., 0, :]``, holds w; without them both are allocated.  Each
    pairing's products are new (n, n, 1) arrays, never a slice of a work
    grid: a strided output can take numpy's complex multiply off its fused
    multiply-add loop, and the bits would then depend on the storage order.
    """
    w = np.multiply(1j, dphi[..., 1, :], out=work)
    w = np.add(dphi[..., 0, :], w, out=w)
    out = np.empty_like(psi_values[..., 0, :], dtype=np.complex128) if out is None else out
    ambient_pairing(w, psi_values[..., 1:], out=out[..., :1])
    w = np.conjugate(w, out=w)
    bottom = ambient_pairing(w, psi_values[..., :1], out=out[..., 1:])
    np.negative(bottom, out=bottom)
    return out


def tension(phi: MapField, out=None, work=None) -> np.ndarray:
    """Tension field: tangential projection of the 5-point Laplacian.

    Exactly tangent pointwise; on the unit sphere it agrees with
    lap(phi) + |dphi|^2 phi to O(h^2).  ``out`` receives the field and
    ``work``, another map-shaped grid, the Laplacian; both are allocated
    when None.
    """
    lap = phi.chart.laplacian(phi.values, out=work)
    return phi.target.tangent_project(phi.values, lap, out=out)


def dirac_along_map(phi: MapField, psi: TwistedSpinorField) -> np.ndarray:
    """Dirac operator along the map: the tangential projection of the
    componentwise flat Dirac operator, for a tangent psi (``check_pair``)."""
    return _tangent_project_spinor(phi, flat_dirac(psi.values, phi.chart))


def curvature_term(phi: MapField, psi: TwistedSpinorField, out=None, work=None) -> np.ndarray:
    """Curvature coupling of the map equation, an (n, n, K) tangent field.

    Extrinsic evaluation P(A(dphi(e_a), e_a . psi); psi) on the unit
    sphere, whose normal is nu = phi: <A(dphi(e_a), e_a . psi), nu> = -sigma
    and P(xi; X) = -<xi, nu> X, so the term is Re<psi^m, sigma>.  Vanishes
    identically for flat targets (no normal) and, pointwise to machine
    precision, on every twistor pushforward.

    ``out`` receives the term; ``work`` is a (gradient, sigma, complex grid
    shaped like the gradient) triple: the complex grid holds w for the
    contraction, then the spinor pairing.  A None grid is allocated, and
    sigma stays in its grid for the caller.
    """
    if phi.target.normal(phi.values) is None:
        out = np.empty_like(phi.values) if out is None else out
        out[...] = 0.0
        return out
    dphi, sigma, spin = (None, None, None) if work is None else work
    dphi = phi.gradient(out=dphi)
    spin = empty_planes(dphi.shape, np.complex128) if spin is None else spin
    sigma = clifford_frame_contract(dphi, psi.values, out=sigma, work=spin[..., 0, :])
    # psi-shaped view of the (n, n, 2, K) work grid: the planes are now free.
    return re_pairing(psi.values, sigma[..., None, :], out=out, work=spin.swapaxes(-1, -2))


# -- Euler-Lagrange residuals ---------------------------------------------------

@dataclass
class ELResidual:
    """Residuals of the coupled critical-point system on one chart;
    ``norms`` holds their masked sups ``map_sup``, ``spinor_sup`` and
    ``normal_sup``."""

    map_residual: np.ndarray
    spinor_residual: np.ndarray
    normal_defect: np.ndarray
    norms: dict = field(default_factory=dict)

    @property
    def combined_sup(self) -> float:
        return self.norms["map_sup"] + self.norms["spinor_sup"]


def _sup(mag2, mask) -> float:
    """Sup over ``mask`` of the magnitude whose square is ``mag2``."""
    return float(np.sqrt(mag2)[mask].max())


def el_residual(phi: MapField, psi: TwistedSpinorField | None) -> ELResidual:
    """Assemble tau(phi) - R(phi, psi), D psi, and the normal defect.

    The normal defect, the normal part of the flat Dirac minus
    A(dphi(e_a), e_a . psi) = -sigma (x) nu, is O(h^2) for smooth tangent
    data; norms are sups over the chart interior.  ``psi=None`` is the
    frozen zero spinor: the map residual is tau(phi) and the spinor terms
    are zero, with no coupling or Dirac operator evaluated.
    """
    mask = phi.chart.interior_mask
    if psi is None:
        map_res = tension(phi)
        spin_res = normal = np.zeros(phi.values.shape + (2,), dtype=np.complex128)
        spinor_sup = normal_sup = 0.0
    else:
        # The coupling's sigma, kept for the normal defect; flat targets have neither.
        nu = phi.target.normal(phi.values)
        sigma = None if nu is None else empty_planes(phi.chart.shape + (2,), np.complex128)
        map_res = tension(phi) - curvature_term(phi, psi, work=(None, sigma, None))
        # D psi and the flat Dirac's normal part, split in place.
        spin_res = flat_dirac(psi.values, phi.chart)
        normal = normal_part(nu, spin_res)
        spin_res -= normal
        if nu is not None:
            normal = normal - (-nu[..., :, None] * sigma[..., None, :])
        # The spinor axis first, then K: the order flow traces were recorded in.
        spinor_sup = _sup(spinor_norm2(spin_res).sum(axis=-1), mask)
        normal_sup = _sup(spinor_norm2(normal).sum(axis=-1), mask)
    norms = {"map_sup": _sup((map_res**2).sum(axis=-1), mask),
             "spinor_sup": spinor_sup, "normal_sup": normal_sup}
    return ELResidual(map_res, spin_res, normal, norms)


# -- action and energy ----------------------------------------------------------

def dirichlet_density(phi: MapField) -> np.ndarray:
    """|dphi|^2 per node; the finite-difference gradient is squared in place."""
    dphi = phi.gradient()
    return np.square(dphi, out=dphi).sum(axis=(-2, -1))


def action(phi: MapField, psi: TwistedSpinorField | None, region=None,
           dirac=None) -> float:
    """L = int |dphi|^2 + Re(psi, D psi); ``psi=None`` is the zero spinor.
    ``dirac`` passes D psi when the caller has already evaluated it."""
    chart = phi.chart
    dens = dirichlet_density(phi)
    if psi is not None:
        spin = dirac_along_map(phi, psi) if dirac is None else dirac
        # The spinor axis first, then K: the order flow traces were recorded in.
        dens = dens + re_pairing(psi.values, spin).sum(axis=-1)
    return chart.integrate(dens, region=region)


def energy(phi: MapField, psi: TwistedSpinorField | None, region=None) -> float:
    """E = int |dphi|^2 + |psi|^4 over the chart (or a boolean region);
    ``psi=None`` is the zero spinor."""
    dens = dirichlet_density(phi)
    if psi is not None:
        dens = dens + psi.norm2_density() ** 2
    return phi.chart.integrate(dens, region=region)
