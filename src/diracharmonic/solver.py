"""Relaxation toward critical pairs: projected heat flow on the map
coupled with near-kernel extraction for the spinor.

The action is unbounded below in the spinor, so no descent is attempted
there; instead the spinor is constrained to the near-kernel of the Dirac
operator along the current map (the spinor equation is linear), extracted
by inverse power iteration on the squared operator, and refreshed every
few map steps.  Each power round solves (T + shift) x = b, T = B B on
tangent fields, by the kernel operator's projected PCG on the tangent
bundle, preconditioned with the flat operator: the flat Dirac operator
squared is diagonal in Fourier space on both charts (every stencil
wraps), with the symbol sigma that ``_DiracKernelOperator`` builds from
``charts.difference_symbol``, so its shifted inverse costs one FFT pair,
and the tangency projection P after it keeps the preconditioned residual
tangent.
The map relaxes by explicit Euler steps of h^2/8 on the descent direction
tension - curvature_term, reprojected onto the target pointwise, which
preserves the constraint exactly.  h^2/8 is half the 5-point Laplacian's
explicit-Euler limit h^2/4: while the spinor is zero, each step lowers
the compact energy E_c = sum_a int |D+_a phi|^2, whose tangent gradient
is -2 tension, by at least dt |tension|^2 (Bartels, SIAM J. Numer. Anal.
43, 2005).  The reported centred ``energy`` is only observed not to
rise.  A zero initial spinor is frozen, and the flow is then the
harmonic-map heat flow: neither the step nor the convergence check
evaluates the coupling or the Dirac operator.

Work arrays.  The loop allocates no array of a field's size per map
step, transport or CG iteration; the kernels write through their
``out=``/``work=`` arrays:

- ``solve`` owns, for the whole run, one map grid that every step
  overwrites with the new map, the step's ``_StepWork`` (the update and a
  second map grid, plus the coupling's gradient, sigma and contraction
  grids only when the spinor is live) and two spinor grids the transport
  alternates between.
- each ``dirac_project`` call owns its operator's work arrays (four
  scratch spinor grids and the CG's tangent r, z, p and Ap) and the
  returned spinor, whose grid also holds the CG's right-hand side and
  solution in turn; all but the returned grid, allocated last, are freed
  when the call ends.
- what still allocates per step is smaller than a map grid: the
  coupling's pairing products (n x n, see ``clifford_frame_contract``) and
  the norms of ``project_point``; the convergence checks allocate as
  before, every ``trace_every`` steps.

``solve`` never writes the caller's ``phi0`` or ``psi0``, and the fields
it returns are the caller's: nothing keeps or reuses their arrays after
``solve`` returns (a frozen zero ``psi0`` is returned as it was given).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .charts import difference_symbol, empty_planes
from .fields import (MapField, TwistedSpinorField, action, curvature_term,
                     el_residual, energy, tension, _tangent_project_spinor)
from .spinors import flat_dirac, re_pairing, spinor_norm2


CG_TOL = 1e-10       # every kernel CG solve stops at |r| <= CG_TOL |rhs|
CG_MAX_ITERS = 600   # or after this many iterations, counted as unconverged
# The least value of each SolverConfig field; the [solver] config rows read their ranges here.
MINIMA = {"max_iters": 0, "residual_tol": 0, "reproject_every": 1, "power_iters": 1,
          "trace_every": 1}


@dataclass
class SolverConfig:
    """Settings of ``solve``; a field below its ``MINIMA`` entry, or NaN, raises ValueError."""

    max_iters: int = 2000
    residual_tol: float = 1e-4
    reproject_every: int = 100
    power_iters: int = 6
    trace_every: int = 25
    seed: int = 0

    def __post_init__(self):
        for name, least in MINIMA.items():
            if not getattr(self, name) >= least:
                raise ValueError(f"SolverConfig.{name} = {getattr(self, name)!r} is below {least}")


@dataclass
class SolveReport:
    iterations: list = field(default_factory=list)
    action_trace: list = field(default_factory=list)
    energy_trace: list = field(default_factory=list)
    map_residual_trace: list = field(default_factory=list)
    spinor_residual_trace: list = field(default_factory=list)
    kernel_ratio_trace: list = field(default_factory=list)
    cg_iterations: list = field(default_factory=list)   # per refresh, all power rounds
    cg_unconverged: int = 0
    termination: str = "max_iters"

    def record(self, it, act, en, map_res, spin_res, ratio):
        self.iterations.append(int(it))
        self.action_trace.append(float(act))
        self.energy_trace.append(float(en))
        self.map_residual_trace.append(float(map_res))
        self.spinor_residual_trace.append(float(spin_res))
        self.kernel_ratio_trace.append(float(ratio))

    def rows(self):
        return zip(self.iterations, self.action_trace, self.energy_trace,
                   self.map_residual_trace, self.spinor_residual_trace,
                   self.kernel_ratio_trace)


class _StepWork:
    """Work arrays of the map step for one solve: the update and a second
    map grid (the Laplacian, then the coupling term), plus, when the spinor
    is live, the coupling's gradient, sigma and contraction grids.  The
    zero-spinor heat flow allocates no coupling arrays."""

    def __init__(self, phi: MapField, coupled: bool):
        grid, K = phi.chart.shape, phi.target.ambient_dim
        self.update = empty_planes(phi.values.shape)
        self.scratch = empty_planes(phi.values.shape)
        self.coupling = None
        if coupled:
            self.coupling = (empty_planes(grid + (2, K)),
                             empty_planes(grid + (2,), np.complex128),
                             empty_planes(grid + (2, K), np.complex128))


def flow_step(phi: MapField, psi: TwistedSpinorField | None, out=None,
              work: _StepWork | None = None) -> MapField:
    """One explicit Euler step of size h^2/8, reprojected onto the target.

    The update direction is the map residual tension(phi) - R(phi, psi),
    which is tangent pointwise, so |phi + dt v| >= 1 and the nearest-point
    projection is a contraction.  At psi = 0 the step therefore lowers the
    compact energy E_c by at least dt |tension|^2 (see the module
    docstring); the centred ``energy`` is only observed not to rise.
    ``psi=None``, the frozen zero spinor, steps the harmonic-map heat flow:
    the direction is tension(phi) alone and no coupling is evaluated.

    The new values are written into ``out``, which may be ``phi.values``
    itself (it is written only once the update is finite), and the
    intermediates into ``work``; both are allocated when None.
    """
    work = _StepWork(phi, psi is not None) if work is None else work
    update = tension(phi, out=work.update, work=work.scratch)
    if psi is not None:
        update -= curvature_term(phi, psi, out=work.scratch, work=work.coupling)
    if not np.isfinite(update).all():
        raise FloatingPointError("flow step diverged (non-finite update)")
    update *= phi.chart.h * phi.chart.h / 8.0
    update += phi.values
    moved = phi.target.project_point(update, out=out)
    return MapField(phi.chart, phi.target, moved)


class _DiracKernelOperator:
    """Symmetric positive semidefinite operator on tangent spinor grids
    whose near-null space is the kernel of the Dirac operator along the map.

    T x = B (B x), with B = P o (flat Dirac) and P the pointwise tangency
    projection, on the tangent fields (the range of P), where it equals
    P B B P: neither T nor the preconditioner projects its input.
    ``solve`` inverts T + shift, the shift fixed at construction.

    The operator owns the work arrays of one extraction: four scratch
    spinor grids, which every method may overwrite, and the CG's vectors
    r, z, p and Ap (``vectors``, used by ``solve`` alone).  A method's
    ``out`` must not be one of them or overlap its input.
    """

    def __init__(self, phi: MapField, shift: float):
        self.phi = phi
        self.shift = shift
        # |s|^2 / 4 per axis, s the centred difference's symbol: flat_dirac is
        # it over 2h in each frame direction, so sigma = sum_a |s_a|^2 / (2h)^2,
        # summed as below (regrouped, it would round differently).
        s2 = np.abs(difference_symbol(phi.chart.n)) ** 2 / 4.0
        self.symbol = (s2[:, None] + s2[None, :]) / phi.chart.h**2 + shift
        shape = phi.values.shape + (2,)
        self.scratch = tuple(empty_planes(shape, np.complex128) for _ in range(4))
        self.vectors = tuple(empty_planes(shape, np.complex128) for _ in range(4))

    def b_apply(self, x, out, scratch):
        """B x; ``scratch`` is two grids for the flat Dirac, its output first."""
        flat, work = scratch
        slashed = flat_dirac(x, self.phi.chart, out=flat, work=work)
        return _tangent_project_spinor(self.phi, slashed, out=out)

    def __call__(self, x, out):
        s1, s2, s3 = self.scratch[1:]
        return self.b_apply(self.b_apply(x, s1, (s2, s3)), out, (s2, s3))

    def precondition(self, r, out):
        """M^-1 r = P F^-1[F(r) / (sigma + shift)] for tangent r, with
        ``symbol`` = sigma + shift and sigma from ``charts.difference_symbol``.

        The flat part is the exact inverse of the shifted flat Dirac
        operator squared (real positive symbol), and P is orthogonal, so
        on tangent fields M^-1 is symmetric positive definite, as
        preconditioned CG requires.  Its output is tangent: the projected
        preconditioned residual of projected PCG.
        """
        # Transform the component planes (the last two axes of the
        # component-major view) in place in a scratch grid.  ifftn, not
        # ifft2: numpy's ifft2 does not pass ``out`` on.
        spectrum = np.fft.fftn(r.transpose(2, 3, 0, 1), axes=(-2, -1),
                               out=self.scratch[1].transpose(2, 3, 0, 1))
        spectrum /= self.symbol
        flat = np.fft.ifftn(spectrum, axes=(-2, -1), out=spectrum).transpose(2, 3, 0, 1)
        return _tangent_project_spinor(self.phi, flat, out=out)

    def solve(self, rhs, out):
        """Conjugate gradient for (T + shift) x = rhs, preconditioned by
        ``precondition``: the projected PCG of Gould, Hribar & Nocedal
        (SIAM J. Sci. Comput. 23, 2001).  ``rhs`` must be tangent; r, z,
        p, Ap and x are linear combinations of it and of outputs that end
        in P, so they stay tangent to round-off.

        Stops when the unpreconditioned residual satisfies
        |r| <= CG_TOL |rhs|, or after CG_MAX_ITERS iterations; fixed
        association order, no randomness.  Iterates in ``vectors`` and
        writes x into ``out``, which may be ``rhs`` itself.  Returns
        (iterations, converged).
        """
        r, z, p, ap = self.vectors
        tmp = self.scratch[0]
        np.copyto(r, rhs)
        out[...] = 0.0
        z = self.precondition(r, z)
        np.copyto(p, z)
        rz = re_pairing(r, z, axis=None, work=tmp)
        rhs_norm = np.sqrt(re_pairing(r, r, axis=None, work=tmp)) + 1e-300
        it = 0
        for it in range(1, CG_MAX_ITERS + 1):
            ap = self(p, ap)
            ap += np.multiply(self.shift, p, out=tmp)
            denom = re_pairing(p, ap, axis=None, work=tmp)
            if denom <= 0:
                raise FloatingPointError(f"CG breakdown at iteration {it}")
            alpha = rz / denom
            out += np.multiply(alpha, p, out=tmp)
            r -= np.multiply(alpha, ap, out=tmp)
            if np.sqrt(re_pairing(r, r, axis=None, work=tmp)) <= CG_TOL * rhs_norm:
                return it, True
            z = self.precondition(r, z)
            rz_new = re_pairing(r, z, axis=None, work=tmp)
            p = np.multiply(rz_new / rz, p, out=p)
            p = np.add(z, p, out=p)
            rz = rz_new
        return it, False


class KernelProjection(NamedTuple):
    """``dirac_project``'s result: the spinor, of unit L2 norm, its ratio
    |B psi| / |psi|, the CG iterations of each power round, and how many of
    those solves stopped at ``CG_MAX_ITERS`` without reaching ``CG_TOL``."""

    psi: TwistedSpinorField
    ratio: float
    cg_iterations: tuple
    cg_unconverged: int


def dirac_project(phi: MapField, psi_init: TwistedSpinorField | None,
                  config: SolverConfig) -> KernelProjection:
    """Extract a near-kernel spinor of the Dirac operator along phi.

    Runs ``power_iters`` rounds of inverse power iteration on the squared
    operator from the tangent projection of ``psi_init``, or from a random
    field drawn from ``seed`` when ``psi_init`` is None, exactly zero
    (``solve``'s test) or has an exactly zero tangent projection (a spinor
    along the normal), then rescales to unit L2 norm.  Returns the field,
    its kernel ratio and the CG telemetry as a ``KernelProjection``.  The field's values are a new grid; every other
    array lives for this call only.
    """
    chart = phi.chart
    K = phi.target.ambient_dim
    # Shift well below the bulk spectrum (~h^-2) but above the h^4-deep
    # near-kernel, so inverse iteration damps the bulk without distorting
    # the kernel directions.  The work grids come before the returned
    # spinor's grid, which then pins the heap top between refreshes.
    op = _DiracKernelOperator(phi, 1e-4 * 4.0 / chart.h**2)
    x = None
    if psi_init is not None and float(spinor_norm2(psi_init.values).sum()) != 0.0:
        x = _tangent_project_spinor(phi, psi_init.values)
        if float(spinor_norm2(x).sum()) == 0.0:
            x = None
    if x is None:
        rng = np.random.default_rng(config.seed)
        raw = empty_planes(chart.shape + (K, 2), np.complex128)
        raw.real = rng.normal(size=chart.shape + (K, 2))
        raw.imag = rng.normal(size=chart.shape + (K, 2))
        x = _tangent_project_spinor(phi, raw)
    iterations, unconverged = [], 0
    for _ in range(config.power_iters):
        x /= np.sqrt(float(spinor_norm2(x).sum())) + 1e-300
        # The solution overwrites the right-hand side, which the CG copies first.
        its, converged = op.solve(x, out=x)
        iterations.append(its)
        unconverged += not converged
        x[...] = _tangent_project_spinor(phi, x, out=op.scratch[0])
    l2 = np.sqrt(float(spinor_norm2(x).sum()) * chart.h**2)
    if l2 < 1e-300:
        raise FloatingPointError("inverse power iteration collapsed to zero")
    x *= 1.0 / l2
    bx = op.b_apply(x, op.scratch[3], op.scratch[:2])
    ratio = np.sqrt(float(spinor_norm2(bx).sum()) / float(spinor_norm2(x).sum()))
    return KernelProjection(TwistedSpinorField(chart, phi.target, x), float(ratio),
                            tuple(iterations), unconverged)


def solve(phi0: MapField, psi0: TwistedSpinorField | None,
          config: SolverConfig) -> tuple[MapField, TwistedSpinorField, SolveReport]:
    """Alternate map flow steps with periodic spinor kernel refreshes.

    ``psi0`` picks the start: None extracts a near-kernel spinor from a
    random field drawn from ``seed`` (the coupled flow), an exactly zero
    field freezes the spinor (the heat flow), and any other, however small,
    is projected and refined; one whose projection is exactly zero starts
    from the seed's random field, as None does.  In ``flow_step``,
    ``el_residual``, ``action`` and ``energy``, by contrast, ``psi=None``
    is the frozen zero spinor.

    Terminates when the combined residual sup falls below residual_tol,
    on max_iters, or on divergence.  Deterministic for fixed inputs and
    seed: reruns produce identical traces bit for bit.
    """
    phi = phi0
    freeze_spinor = psi0 is not None and float(spinor_norm2(psi0.values).sum()) == 0.0
    report = SolveReport()
    values = empty_planes(phi0.values.shape)
    work = _StepWork(phi0, coupled=not freeze_spinor)

    def refresh(psi_init):
        projection = dirac_project(phi, psi_init, config)
        report.cg_iterations.append(sum(projection.cg_iterations))
        report.cg_unconverged += projection.cg_unconverged
        return projection.psi, projection.ratio

    if freeze_spinor:
        psi, ratio = psi0, 0.0
    else:
        transported = empty_planes(phi0.values.shape + (2,), np.complex128)
        psi, ratio = refresh(psi0)

    def measure(it):
        spinor = None if freeze_spinor else psi
        res = el_residual(phi, spinor)
        report.record(it, action(phi, spinor, dirac=res.spinor_residual), energy(phi, spinor),
                      res.norms["map_sup"], res.norms["spinor_sup"], ratio)
        return res.combined_sup

    combined = measure(0)
    if combined < config.residual_tol:
        report.termination = "converged"
        return phi, psi, report

    for it in range(1, config.max_iters + 1):
        try:
            phi = flow_step(phi, None if freeze_spinor else psi, out=values, work=work)
        except FloatingPointError:
            report.termination = "diverged"
            measure(it)
            return phi, psi, report
        if not freeze_spinor:
            # Transport the spinor with the moving map: pointwise tangent
            # projection keeps the pair admissible between kernel refreshes.
            # It alternates between two grids; a refresh brings a new one.
            moved = _tangent_project_spinor(phi, psi.values, out=transported)
            transported = psi.values
            psi = TwistedSpinorField(phi.chart, phi.target, moved)
            if it % config.reproject_every == 0:
                # Free the stale grid for the refresh; the transported
                # spinor's grid takes its place afterwards.
                transported = psi.values
                psi, ratio = refresh(psi)
        if it % config.trace_every == 0 or it == config.max_iters:
            combined = measure(it)
            if not np.isfinite(combined):
                report.termination = "diverged"
                return phi, psi, report
            if combined < config.residual_tol:
                report.termination = "converged"
                return phi, psi, report
    report.termination = "max_iters"
    return phi, psi, report
