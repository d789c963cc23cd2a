"""The coupled relaxation in reused work arrays: the same bits as fresh
arrays, the caller's fields never written, no grid-sized allocation per
map step, spinor transport or kernel CG iteration once the work arrays
exist, and a kernel refresh's returned grid allocated after its work
grids."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

import diracharmonic as dh
import diracharmonic.solver
import diracharmonic.targets
from diracharmonic.charts import empty_planes
from diracharmonic.fields import _tangent_project_spinor
from diracharmonic.solver import _DiracKernelOperator, _StepWork

from test_solver import perturbed_constant


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _coupled_config():
    return dh.SolverConfig(seed=4, max_iters=200, reproject_every=50, power_iters=3,
                           trace_every=25, residual_tol=0.0)


def _heat_config():
    return dh.SolverConfig(max_iters=300, trace_every=25, residual_tol=0.0)


def _coupled_solve():
    return dh.solve(perturbed_constant(32, amplitude=0.3), None, _coupled_config())


def _heat_solve():
    phi0 = perturbed_constant(32, amplitude=0.3)
    return dh.solve(phi0, dh.TwistedSpinorField.zero(phi0.chart, phi0.target), _heat_config())


# sha256 of the final phi and psi (C-order bytes) and energy.hex() of the
# two short solves above.  The heat digest was recorded before the solver
# reused its arrays; the coupled one once the kernel CG ran on tangent
# fields alone, with no normal block in its operator or preconditioner.
PARENT_DIGESTS = {
    "coupled": ("e698291bdd99ebc60e1127bf27c32d5337d99be8895d551a53b360317a34db52",
                "ac600717a5ac91c77176fdf09474f64c1f5b0f677eded68664c1bcac4c6b914f",
                "0x1.574b667b1ea74p+0"),
    "heat": ("f6caae2f5a42288e1db362de01b04e1d6f58e9c704557eb4d8574a5502af617c",
             "3a3ed164e42500a1c5b2d0093f0a813d27dc50d038f330cc100a7e70ece2e6e4",
             "0x1.d2f2541ce93b6p-16"),
}


def _coupled_digests_apply():
    """The coupled digests hold where they were recorded: numpy 2.4 running
    its X86_V3 (AVX2/FMA3) complex multiply, which fuses multiply-adds
    (without it the coupled bits differ).  The kernel numpy dispatched is
    asked for, not the CPU's features: NPY_DISABLE_CPU_FEATURES can hold
    numpy to its baseline on a CPU that has them.  The heat flow uses real
    arithmetic alone and has the same bits on every path."""
    info = opt_func_info(func_name="multiply", signature="complex128")
    kernels = [loop["current"] for loops in info.values() for loop in loops.values()]
    return np.__version__.startswith("2.4.") and kernels == ["X86_V3"]


@pytest.mark.parametrize("kind", ["coupled", "heat"])
def test_short_solves_keep_their_recorded_bits(kind):
    if kind == "coupled" and not _coupled_digests_apply():
        pytest.skip("coupled digests recorded for numpy 2.4 with its X86_V3 complex multiply")
    phi, psi, report = _coupled_solve() if kind == "coupled" else _heat_solve()
    assert (_sha(phi.values), _sha(psi.values), report.energy_trace[-1].hex()) \
        == PARENT_DIGESTS[kind]


def _fresh_array_solve(phi, config):
    """``solve``'s coupled loop without a trace, every kernel allocating
    its result: the reference for the reused arrays."""
    psi = dh.dirac_project(phi, None, config).psi
    for it in range(1, config.max_iters + 1):
        phi = dh.flow_step(phi, psi)
        psi = dh.TwistedSpinorField(phi.chart, phi.target,
                                    _tangent_project_spinor(phi, psi.values))
        if it % config.reproject_every == 0:
            psi = dh.dirac_project(phi, psi, config).psi
    return phi, psi


def test_reused_arrays_give_the_bits_of_fresh_ones():
    phi0 = perturbed_constant(32, amplitude=0.3)
    config = _coupled_config()
    phi, psi, _ = dh.solve(phi0, None, config)
    ref_phi, ref_psi = _fresh_array_solve(phi0, config)
    assert _sha(phi.values) == _sha(ref_phi.values)
    assert _sha(psi.values) == _sha(ref_psi.values)


@pytest.mark.parametrize("frozen", [False, True], ids=["coupled", "heat"])
def test_solve_never_writes_the_callers_fields(frozen):
    phi0 = perturbed_constant(32, amplitude=0.3)
    if frozen:
        psi0 = dh.TwistedSpinorField.zero(phi0.chart, phi0.target)
    else:
        psi0 = dh.dirac_project(phi0, None, dh.SolverConfig(seed=4, power_iters=1)).psi
    before = _sha(phi0.values), _sha(psi0.values)
    cfg = dh.SolverConfig(seed=4, max_iters=60, reproject_every=20, power_iters=2,
                          trace_every=20, residual_tol=0.0)
    phi, psi, _ = dh.solve(phi0, psi0, cfg)
    assert (_sha(phi0.values), _sha(psi0.values)) == before
    assert not np.shares_memory(phi.values, phi0.values)
    assert (psi is psi0) if frozen else not np.shares_memory(psi.values, psi0.values)


def test_heat_flow_allocates_no_coupling_arrays(monkeypatch):
    made = []

    class Recording(_StepWork):
        def __init__(self, phi, coupled):
            super().__init__(phi, coupled)
            made.append(self.coupling)

    monkeypatch.setattr(diracharmonic.solver, "_StepWork", Recording)
    cfg = dh.SolverConfig(max_iters=10, trace_every=5, residual_tol=0.0)
    phi0 = perturbed_constant(16, amplitude=0.3)
    dh.solve(phi0, dh.TwistedSpinorField.zero(phi0.chart, phi0.target), cfg)
    dh.flow_step(phi0, None)
    assert made == [None, None]


def _traced_rise(run):
    """Peak traced memory above the current level while ``run`` runs.

    A ufunc over strided operands gets an iteration buffer per operand from
    numpy, up to ``np.getbufsize()`` elements each (8192 by default, so at
    n = 32 three of them outweigh a map grid), whatever the caller's arrays
    are; the buffer size is cut to 16 elements here, so the peak measures
    the arrays the solver allocates."""
    old = np.setbufsize(16)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        np.setbufsize(old)


def test_steps_transport_and_cg_iterations_allocate_no_grid(monkeypatch):
    phi = perturbed_constant(32, amplitude=0.3)
    cfg = dh.SolverConfig(seed=4, power_iters=1)
    psi = dh.dirac_project(phi, None, cfg).psi
    grid = phi.values.nbytes
    values, work = empty_planes(phi.values.shape), _StepWork(phi, coupled=True)
    state = {"phi": phi, "psi": psi,
             "spare": empty_planes(psi.values.shape, np.complex128)}

    def steps(count):
        for _ in range(count):
            moved = dh.flow_step(state["phi"], state["psi"], out=values, work=work)
            spinor = _tangent_project_spinor(moved, state["psi"].values, out=state["spare"])
            state["spare"] = state["psi"].values
            state["phi"] = moved
            state["psi"] = dh.TwistedSpinorField(moved.chart, moved.target, spinor)

    steps(2)
    assert _traced_rise(lambda: steps(20)) < grid

    op = _DiracKernelOperator(state["phi"], 1e-4 * 4.0 / phi.chart.h**2)
    rhs = _tangent_project_spinor(state["phi"], state["psi"].values)
    x = np.empty_like(rhs)
    monkeypatch.setattr(diracharmonic.solver, "CG_TOL", 0.0)
    monkeypatch.setattr(diracharmonic.solver, "CG_MAX_ITERS", 2)
    op.solve(rhs, x)
    monkeypatch.setattr(diracharmonic.solver, "CG_MAX_ITERS", 12)
    iterations = []
    assert _traced_rise(lambda: iterations.append(op.solve(rhs, x)[0])) < grid
    assert iterations == [12]


@pytest.mark.parametrize("start", ["random", "given"])
def test_kernel_refresh_allocates_its_returned_grid_last(start, monkeypatch):
    # The returned spinor's grid comes after the operator's eight work
    # grids, so it sits above them on the heap and the allocator does not
    # trim their pages after every refresh.
    phi = perturbed_constant(16, amplitude=0.3)
    cfg = dh.SolverConfig(seed=4, power_iters=1)
    psi0 = dh.dirac_project(phi, None, cfg).psi if start == "given" else None
    spinor_grid = psi0.values.shape if psi0 is not None else phi.values.shape + (2,)
    made = []
    real = empty_planes

    def recording(shape, *args, **kwargs):
        out = real(shape, *args, **kwargs)
        if tuple(shape) == spinor_grid:
            made.append(out)
        return out

    monkeypatch.setattr(diracharmonic.solver, "empty_planes", recording)
    monkeypatch.setattr(diracharmonic.targets, "empty_planes", recording)
    psi = dh.dirac_project(phi, psi0, cfg).psi
    assert len(made) == (10 if start == "random" else 9)   # 8 work grids (+ the raw start)
    assert psi.values.base is made[-1].base
