"""The conformal check's shared evaluation and the one Dirac operator
along the map: the same bits as the unshared whole-chart evaluation and
as the residual that also builds the normal defect, with fewer Dirac
evaluations on fewer nodes and less memory."""

import tracemalloc

import numpy as np
import pytest

import diracharmonic as dh
import diracharmonic.fields
from diracharmonic.verify import canonical_compact_pair

from conftest import conformal_oracle, disk_twistor_pair, moebius_similarity, random_sphere_pair

CONVENTIONS = ("inverse_fprime", "fprime")


def _verify_maps():
    """The two disk automorphisms of ``dhm verify`` plus a similarity."""
    return [dh.MoebiusMap.disk_automorphism(0.4),
            dh.MoebiusMap.disk_automorphism(0.25 + 0.2j, theta=0.7),
            moebius_similarity(0.8, 0.05)]


def _bits(defects):
    return tuple(d.hex() for d in defects)


def _random_pair(target, n=24, seed=5):
    """A smooth map into the target and a tangent spinor along it, plus the
    raw (non-tangent) spinor array it was projected from."""
    chart = dh.DomainChart.torus(n)
    rng = np.random.default_rng(seed)
    K = target.ambient_dim
    base = np.zeros(chart.shape + (K,))
    base[..., -1] = 1.0
    dev = dh.bandlimited_field(chart, rng, components=(K,), kmax=3, amplitude=0.5)
    phi = dh.MapField(chart, target, target.project_point(base + dev))
    raw = (dh.bandlimited_field(chart, rng, components=(K, 2), kmax=2)
           + 1j * dh.bandlimited_field(chart, rng, components=(K, 2), kmax=2))
    return phi, dh.project_spinor(phi, raw), raw


@pytest.fixture(scope="module")
def compact_pair():
    return canonical_compact_pair(64)


@pytest.mark.parametrize("seed", [7, 1007])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_shared_evaluation_has_the_bits_of_unshared_checks(n, seed):
    # Grids 128 and 256 are the bench's, seeds 7 and 1007 its variants 0 and 1;
    # the oracle evaluates every pair on the whole chart.
    phi, psi = canonical_compact_pair(n, seed=seed)
    maps = _verify_maps()
    oracle = {conv: [conformal_oracle(phi, psi, f, conv) for f in maps] for conv in CONVENTIONS}
    for i, f in enumerate(maps):
        alone = dh.conformal_invariance_defect(phi, psi, [f])
        assert list(alone) == list(CONVENTIONS)
        for conv in CONVENTIONS:
            assert _bits(alone[conv]) == _bits(oracle[conv][i])
    worst = dh.conformal_invariance_defect(phi, psi, maps)
    for conv in CONVENTIONS:
        expected = (max(a for a, _ in oracle[conv]), max(e for _, e in oracle[conv]))
        assert _bits(worst[conv]) == _bits(expected)


@pytest.mark.parametrize("target", [dh.Sphere(2), dh.Sphere(3), dh.Flat(3)],
                         ids=["sphere2", "sphere3", "flat3"])
def test_dirac_along_map_has_the_bits_of_el_residual(target):
    phi, psi, _ = _random_pair(target)
    full = dh.el_residual(phi, psi).spinor_residual
    lean = dh.dirac_along_map(phi, psi)
    assert lean.shape == full.shape and lean.dtype == full.dtype
    assert np.array_equal(np.ascontiguousarray(lean).view(np.uint8),
                          np.ascontiguousarray(full).view(np.uint8))


@pytest.mark.parametrize("target", [dh.Sphere(2), dh.Sphere(3)], ids=["sphere2", "sphere3"])
def test_check_pair_rejects_the_raw_spinor_naming_tangency(target):
    phi, psi, raw = _random_pair(target)
    dh.check_pair(phi, psi)
    with pytest.raises(dh.InadmissiblePair, match="violates tangency") as exc:
        dh.check_pair(phi, dh.TwistedSpinorField(phi.chart, target, raw))
    assert exc.value.code == "not_tangent"


@pytest.fixture
def counted_dirac(monkeypatch):
    """Count flat Dirac evaluations; fail on any normal-defect evaluation."""
    calls = []
    real = diracharmonic.fields.flat_dirac

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("normal defect built for a caller that discards it")

    monkeypatch.setattr(diracharmonic.fields, "flat_dirac", counting)
    monkeypatch.setattr(diracharmonic.fields, "clifford_frame_contract", forbidden)
    return calls


def test_two_maps_two_conventions_make_five_dirac_evaluations(compact_pair, counted_dirac):
    phi, psi = compact_pair
    dh.conformal_invariance_defect(phi, psi, _verify_maps()[:2])
    # One for the pair itself, one per (map, convention) transformed pair.
    assert len(counted_dirac) == 5
    counted_dirac.clear()
    dh.conformal_invariance_defect(phi, psi, _verify_maps()[:1])
    assert len(counted_dirac) == 3


def test_callers_that_discard_the_normal_defect_never_build_it(counted_dirac):
    _, phi, psi = disk_twistor_pair(48)
    dh.action(phi, psi)
    assert len(counted_dirac) == 1
    dh.weitzenboeck_defect(phi, psi)
    assert len(counted_dirac) == 3
    dh.bochner_defect(phi, psi)  # reads no Dirac evaluation: verify judges D psi = 0
    assert len(counted_dirac) == 3
    _, phi_r, psi_r = random_sphere_pair(24)
    dh.self_adjointness_defect(phi_r, psi_r, psi_r)
    assert len(counted_dirac) == 5


def test_two_maps_two_conventions_interpolate_once_per_field_and_map(compact_pair, monkeypatch):
    phi, psi = compact_pair
    calls = []
    real = dh.DomainChart.interp

    def counting(self, f, px, py):
        calls.append(np.shape(f)[2:])
        return real(self, f, px, py)

    monkeypatch.setattr(dh.DomainChart, "interp", counting)
    dh.conformal_invariance_defect(phi, psi, _verify_maps()[:2])
    # Per map: the map values and the spinor values, shared by both conventions.
    K = phi.target.ambient_dim
    assert calls == [(K,), (K, 2)] * 2


@pytest.fixture
def dirac_grids(monkeypatch):
    """The grid shape of every field the flat Dirac operator sees."""
    shapes = []
    real = diracharmonic.fields.flat_dirac

    def recording(field, chart, *args, **kwargs):
        shapes.append(np.shape(field)[:2])
        return real(field, chart, *args, **kwargs)

    monkeypatch.setattr(diracharmonic.fields, "flat_dirac", recording)
    return shapes


def test_each_pair_is_evaluated_on_the_block_it_lives_on(dirac_grids):
    n = 256
    phi, psi = canonical_compact_pair(n)
    dh.conformal_invariance_defect(phi, psi, _verify_maps()[:2])
    assert len(dirac_grids) == 5
    # The pair's support |z| < 0.5 holds 22% of the nodes, and so does each
    # pullback's block; the whole chart would be 100%.
    for rows, cols in dirac_grids:
        assert rows * cols <= 0.3 * n * n


def test_a_pair_that_reaches_the_grid_edge_is_evaluated_on_the_whole_chart(dirac_grids):
    n = 64
    phi, psi = canonical_compact_pair(n)
    # One map node in the second column, off the far field: the live nodes'
    # bounding square plus 2 nodes per side no longer fits in the grid.
    values = phi.values.copy()
    values[n // 2, 1] = phi.target.project_point(np.array([0.1, 0.0, 1.0]))
    edged = dh.MapField(phi.chart, phi.target, values)
    dh.check_pair(edged, psi)
    maps = _verify_maps()[:2]
    got = dh.conformal_invariance_defect(edged, psi, maps)
    assert dirac_grids[0] == (n, n)
    for conv in CONVENTIONS:
        oracle = [conformal_oracle(edged, psi, f, conv) for f in maps]
        expected = (max(a for a, _ in oracle), max(e for _, e in oracle))
        assert _bits(got[conv]) == _bits(expected)


def test_the_working_set_stays_within_three_spinor_grids():
    n = 256
    phi, psi = canonical_compact_pair(n)
    maps = _verify_maps()[:2]
    tracemalloc.start()
    try:
        dh.conformal_invariance_defect(phi, psi, maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # On the whole chart it held 4.75 grids of n = 256.
    assert peak <= 3 * psi.values.nbytes, f"{peak / psi.values.nbytes:.2f} spinor grids"
