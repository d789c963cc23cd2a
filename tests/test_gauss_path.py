"""The production coupling formulas against the target's Gauss path.

``_curvature_on_spinor``, the A-term of the normal defect in
``el_residual`` and ``curvature_term`` are evaluated through the unit
normal in closed form; here each is rebuilt from the oracles
``second_fundamental``, ``shape_operator`` and ``curvature`` of
``conftest`` applied complex-linearly per spinor component, on random
(non-smooth) grid data.
"""

import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.identities import _curvature_on_spinor
from diracharmonic.spinors import FRAME, clifford_mul, flat_dirac

from conftest import curvature, second_fundamental, shape_operator

TOL = 1e-12
TARGETS = [pytest.param(dh.Sphere(2), id="sphere"), pytest.param(dh.Flat(3), id="flat"),
           pytest.param(dh.Sphere(3), id="sphere3")]


def _random_pair(target, rng, n=8):
    """Random points of the target on a small grid and a tangent spinor."""
    chart = dh.DomainChart.torus(n)
    K = target.ambient_dim
    phi = dh.MapField(chart, target, target.project_point(rng.normal(size=chart.shape + (K,))))
    raw = rng.normal(size=chart.shape + (K, 2)) + 1j * rng.normal(size=chart.shape + (K, 2))
    return phi, dh.project_spinor(phi, raw)


def _per_component(op, S):
    """Apply a complex-linear vector operation to each half-spinor component."""
    return np.stack([op(S[..., c]) for c in range(2)], axis=-1)


def _a_term(phi, psi):
    """sum_a A(dphi_a, e_a . psi), per spinor component."""
    t, d = phi.target, phi.gradient()
    e_psi = [clifford_mul(e_a, psi.values) for e_a in FRAME]
    return sum(_per_component(lambda S: second_fundamental(t, phi.values, d[..., a, :], S),
                              e_psi[a]) for a in range(2))


def _close(a, b):
    scale = max(1.0, float(np.abs(b).max()))
    return float(np.abs(a - b).max()) <= TOL * scale


@pytest.mark.parametrize("target", TARGETS)
def test_curvature_on_spinor_is_the_gauss_curvature(target, rng):
    phi, _ = _random_pair(target, rng)
    p = phi.values
    X, Y = (target.tangent_project(p, rng.normal(size=p.shape)) for _ in range(2))
    S = rng.normal(size=p.shape + (2,)) + 1j * rng.normal(size=p.shape + (2,))
    gauss = _per_component(lambda Z: curvature(target, p, X, Y, Z), S)
    if target.normal(p) is None:
        # No normal, no curvature: the identities skip the term on flat targets.
        assert np.abs(gauss).max() == 0.0
        return
    slot = _curvature_on_spinor(X, Y, S)
    slots = np.stack([slot(i) for i in range(p.shape[-1])], axis=-2)
    assert _close(slots, gauss)
    written = np.empty_like(S)
    for i in range(p.shape[-1]):
        slot(i, out=written[..., i, :])
    assert np.array_equal(written, slots)


@pytest.mark.parametrize("target", TARGETS)
def test_normal_defect_subtracts_the_second_fundamental_form(target, rng):
    phi, psi = _random_pair(target, rng)
    slashed = flat_dirac(psi.values, phi.chart)
    tangential = dh.dirac_along_map(phi, psi)
    normal_defect = dh.el_residual(phi, psi).normal_defect
    a_term = (slashed - tangential) - normal_defect
    assert _close(a_term, _a_term(phi, psi))


@pytest.mark.parametrize("target", TARGETS)
def test_curvature_term_is_shape_operator_of_second_fundamental_form(target, rng):
    phi, psi = _random_pair(target, rng)
    xi = _a_term(phi, psi)
    gauss = sum(shape_operator(target, phi.values, xi[..., c], np.conj(psi.values[..., c]))
                for c in range(2))
    assert _close(dh.curvature_term(phi, psi), np.real(gauss))

