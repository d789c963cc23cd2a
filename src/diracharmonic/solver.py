"""Relaxation toward critical pairs: projected heat flow on the map
coupled with near-kernel extraction for the spinor.

The action is unbounded below in the spinor, so no descent is attempted
there; instead the spinor is constrained to the near-kernel of the Dirac
operator along the current map (the spinor equation is linear), extracted
by inverse power iteration on the squared operator, and refreshed every
few map steps.  Each power round solves (T + shift) x = b by conjugate
gradients preconditioned with the flat operator: the centred flat Dirac
operator squared is diagonal in Fourier space with symbol
sigma = (sin^2(2 pi mx / n) + sin^2(2 pi my / n)) / h^2 on both charts
(every stencil wraps), so its shifted inverse costs one FFT pair.  The
preconditioner applies it to the tangential block and 1 / (kappa + shift)
to the normal block; both blocks are SPD, so preconditioned CG applies.
The map relaxes by explicit Euler on the descent direction
tension - curvature_term, reprojected onto the target pointwise, which
preserves the constraint exactly and never increases the Dirichlet
energy while the spinor is zero and dt <= h^2/8.  A zero initial spinor is
frozen, and the flow is then the harmonic-map heat flow: neither the step
nor the convergence check evaluates the coupling or the Dirac operator.

Work arrays.  The loop allocates no array of a field's size per map
step, transport or CG iteration; the kernels write through their
``out=``/``work=`` arrays:

- ``solve`` owns, for the whole run, one map grid that every step
  overwrites with the new map, the step's ``_StepWork`` (the update and a
  second map grid, plus the coupling's gradient, sigma and contraction
  grids only when the spinor is live) and two spinor grids the transport
  alternates between.
- each ``dirac_project`` call owns its operator's work arrays (four
  scratch spinor grids and the CG's r, z, p and Ap) and the returned
  spinor, whose grid also holds the CG's right-hand side and solution in
  turn; all but the returned grid are freed when the call ends.
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

import numpy as np

from .charts import empty_planes
from .fields import (MapField, TwistedSpinorField, action, curvature_term,
                     el_residual, energy, tension, _tangent_project_spinor)
from .spinors import flat_dirac, spinor_norm2


@dataclass
class SolverConfig:
    dt: float | None = None          # None: stability bound h^2 / 8
    max_iters: int = 2000
    residual_tol: float = 1e-4
    reproject_every: int = 100
    spinor_norm_target: float = 1.0
    power_iters: int = 6
    cg_tol: float = 1e-10
    cg_max_iters: int = 600
    trace_every: int = 25
    seed: int | None = 0

    def step_size(self, h: float) -> float:
        bound = h * h / 8.0
        if self.dt is None:
            return bound
        if not (0.0 < self.dt <= bound):
            raise ValueError(f"dt = {self.dt} violates the stability bound h^2/8 = {bound:.3e}")
        return self.dt


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


def flow_step(phi: MapField, psi: TwistedSpinorField | None, config: SolverConfig,
              out=None, work: _StepWork | None = None) -> MapField:
    """One explicit Euler step of the map flow, reprojected onto the target.

    The update direction is the map residual tension(phi) - R(phi, psi),
    which is tangent pointwise, so |phi + dt v| >= 1 and the nearest-point
    projection cannot increase the discrete Dirichlet energy at psi = 0.
    ``psi=None``, the frozen zero spinor, steps the harmonic-map heat flow:
    the direction is tension(phi) alone and no coupling is evaluated.

    The new values are written into ``out``, which may be ``phi.values``
    itself (it is written only once the update is finite), and the
    intermediates into ``work``; both are allocated when None.
    """
    dt = config.step_size(phi.chart.h)
    work = _StepWork(phi, psi is not None) if work is None else work
    update = tension(phi, out=work.update, work=work.scratch)
    if psi is not None:
        update -= curvature_term(phi, psi, out=work.scratch, work=work.coupling)
    if not np.isfinite(update).all():
        raise FloatingPointError("flow step diverged (non-finite update)")
    update *= dt
    update += phi.values
    moved = phi.target.project_point(update, out=out)
    return MapField(phi.chart, phi.target, moved, check=False)


class _DiracKernelOperator:
    """Symmetric positive semidefinite operator on tangency-constrained
    spinor grids whose near-null space is the kernel of the Dirac operator
    along the map.

    T x = P B (B (P x)) + kappa (x - P x), with B = (tangent projection)
    o (flat Dirac) and P the pointwise tangency projection; kappa pushes
    normal junk out of the small-eigenvalue space.

    The operator owns the work arrays of one extraction: four scratch
    spinor grids, which every method may overwrite, and the CG's vectors
    r, z, p and Ap (``vectors``, used by ``_cg`` alone).  A method's
    ``out`` must not be one of them or overlap its input; without it the
    result is a new array.
    """

    kappa = 1.0

    def __init__(self, phi: MapField):
        self.phi = phi
        s2 = np.sin(2.0 * np.pi * np.arange(phi.chart.n) / phi.chart.n) ** 2
        self.sigma = (s2[:, None] + s2[None, :]) / phi.chart.h**2
        shape = phi.values.shape + (2,)
        self.scratch = tuple(empty_planes(shape, np.complex128) for _ in range(4))
        self.vectors = tuple(empty_planes(shape, np.complex128) for _ in range(4))

    def project(self, x, out=None):
        return _tangent_project_spinor(self.phi, x, out=out)

    def b_apply(self, x, out=None, scratch=None):
        """B x; ``scratch`` is two grids for the flat Dirac, its output
        first (default: the first two scratch grids)."""
        flat, work = self.scratch[:2] if scratch is None else scratch
        return self.project(flat_dirac(x, self.phi.chart, out=flat, work=work), out=out)

    def __call__(self, x, out=None):
        out = np.empty_like(x) if out is None else out
        s0, s1, s2, s3 = self.scratch
        px = self.project(x, out=s0)
        bx = self.b_apply(px, out=s1, scratch=(s2, s3))
        bbx = self.b_apply(bx, out=out, scratch=(s2, s3))
        normal = np.subtract(x, px, out=px)
        bbx += np.multiply(self.kappa, normal, out=normal)
        return bbx

    def precondition(self, r, shift: float, out=None):
        """M^-1 r = P F^-1[F(P r) / (sigma + shift)] + (r - P r) / (kappa + shift).

        The flat part is the exact inverse of the shifted flat Dirac
        operator squared, applied to the tangential block; the normal block
        gets the inverse of T's own normal diagonal.  Both blocks are
        symmetric positive definite (real positive symbol, orthogonal P),
        so M^-1 is SPD, as preconditioned CG requires.
        """
        out = np.empty_like(r) if out is None else out
        s0, s1 = self.scratch[:2]
        pr = self.project(r, out=s0)
        # Transform the component planes (the last two axes of the
        # component-major view) in place in a scratch grid.  ifftn, not
        # ifft2: numpy's ifft2 does not pass ``out`` on.
        spectrum = np.fft.fftn(pr.transpose(2, 3, 0, 1), axes=(-2, -1),
                               out=s1.transpose(2, 3, 0, 1))
        spectrum /= self.sigma + shift
        flat = np.fft.ifftn(spectrum, axes=(-2, -1), out=spectrum).transpose(2, 3, 0, 1)
        normal = np.subtract(r, pr, out=pr)
        normal /= self.kappa + shift
        out = self.project(flat, out=out)
        out += normal
        return out


class _Projection(tuple):
    """``(psi, ratio)`` as ``dirac_project`` returns it, also carrying the CG
    iterations of each power round and the number of those solves that
    stopped at ``cg_max_iters`` without reaching ``cg_tol``."""

    def __new__(cls, psi, ratio, cg_iterations, cg_unconverged):
        out = super().__new__(cls, (psi, ratio))
        out.cg_iterations = tuple(cg_iterations)
        out.cg_unconverged = cg_unconverged
        return out


def _inner(a, b, prod) -> float:
    """Re <a, b> over the whole grid; ``prod``, a complex grid shaped like
    ``a`` that overlaps neither input, receives the products."""
    prod = np.multiply(np.conjugate(a, out=prod), b, out=prod)
    return float(prod.real.sum())


def _cg(op, rhs, shift: float, tol: float, max_iters: int, out=None):
    """Conjugate gradient for (op + shift I) x = rhs, preconditioned by
    ``op.precondition(., shift)`` (SPD; see ``_DiracKernelOperator``).

    Stops when the unpreconditioned residual satisfies |r| <= tol |rhs|;
    fixed association order, no randomness.  Iterates in ``op.vectors`` and
    writes x into ``out``, which may be ``rhs`` itself (allocated when
    None).  Returns (x, iterations, converged).
    """
    r, z, p, ap = op.vectors
    tmp = op.scratch[0]
    np.copyto(r, rhs)
    x = np.empty_like(rhs) if out is None else out
    x[...] = 0.0
    z = op.precondition(r, shift, out=z)
    np.copyto(p, z)
    rz = _inner(r, z, tmp)
    rhs_norm = np.sqrt(_inner(r, r, tmp)) + 1e-300
    it = 0
    for it in range(1, max_iters + 1):
        ap = op(p, out=ap)
        ap += np.multiply(shift, p, out=tmp)
        denom = _inner(p, ap, tmp)
        if denom <= 0:
            raise FloatingPointError(f"CG breakdown at iteration {it}")
        alpha = rz / denom
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, ap, out=tmp)
        if np.sqrt(_inner(r, r, tmp)) <= tol * rhs_norm:
            return x, it, True
        z = op.precondition(r, shift, out=z)
        rz_new = _inner(r, z, tmp)
        p = np.multiply(rz_new / rz, p, out=p)
        p = np.add(z, p, out=p)
        rz = rz_new
    return x, it, False


def dirac_project(phi: MapField, psi_init: TwistedSpinorField | None,
                  config: SolverConfig) -> tuple[TwistedSpinorField, float]:
    """Extract a near-kernel spinor of the Dirac operator along phi.

    Runs ``power_iters`` rounds of inverse power iteration on the squared
    operator from ``psi_init`` (or a seeded random field when the seed is
    set), then rescales to the requested L2 norm.  Returns the field and
    the measured ratio |B psi| / |psi| in L2; the returned pair also
    carries ``cg_iterations`` (one count per power round) and
    ``cg_unconverged`` (rounds whose CG hit ``cg_max_iters``).  The field's
    values are a new grid; every other array lives for this call only.
    """
    chart = phi.chart
    K = phi.target.ambient_dim
    op = _DiracKernelOperator(phi)
    if psi_init is not None and float(spinor_norm2(psi_init.values).sum()) > 1e-24:
        x = op.project(psi_init.values)
    else:
        if config.seed is None:
            raise ValueError("zero initial spinor needs a seed to start from")
        rng = np.random.default_rng(config.seed)
        raw = empty_planes(chart.shape + (K, 2), np.complex128)
        raw.real = rng.normal(size=chart.shape + (K, 2))
        raw.imag = rng.normal(size=chart.shape + (K, 2))
        x = op.project(raw)
    # Shift well below the bulk spectrum (~h^-2) but above the h^4-deep
    # near-kernel, so inverse iteration damps the bulk without distorting
    # the kernel directions.
    shift = 1e-4 * 4.0 / chart.h**2
    iterations, unconverged = [], 0
    for _ in range(max(1, config.power_iters)):
        x /= np.sqrt(float(spinor_norm2(x).sum())) + 1e-300
        # The solution overwrites the right-hand side, which the CG copies first.
        x, its, converged = _cg(op, x, shift, config.cg_tol, config.cg_max_iters, out=x)
        iterations.append(its)
        unconverged += not converged
        x[...] = op.project(x, out=op.scratch[0])
    l2 = np.sqrt(float(spinor_norm2(x).sum()) * chart.h**2)
    if l2 < 1e-300:
        raise FloatingPointError("inverse power iteration collapsed to zero")
    x *= config.spinor_norm_target / l2
    bx = op.b_apply(x, out=op.scratch[3])
    ratio = np.sqrt(float(spinor_norm2(bx).sum()) / float(spinor_norm2(x).sum()))
    return _Projection(TwistedSpinorField(chart, phi.target, x), float(ratio),
                       iterations, unconverged)


def solve(phi0: MapField, psi0: TwistedSpinorField | None,
          config: SolverConfig) -> tuple[MapField, TwistedSpinorField, SolveReport]:
    """Alternate map flow steps with periodic spinor kernel refreshes.

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
        return projection

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
            phi = flow_step(phi, None if freeze_spinor else psi, config, out=values, work=work)
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
