"""The working set of one verification.

Verify measures one grid at a time: grid n's pair is built, every row
that reads it takes its defect, and the pair is dropped before grid 2n's
is built; the rows that read no pair under test run after the last grid.
No grid-sized array outlives the last line that reads it, and rows share
only the scalars a record reports, so the traced peak of a whole
``run_verification``, pairs included, is the finest pair plus one
identity's working set.  Inside an identity, projections run in place one
ambient slot at a time, each e_a . psi is formed slot by slot and lives
only for its pairings, R(X, Y) S is formed slot by slot from two pairings
built from S's slots, and second derivatives and D^2 psi overwrite the
first derivative or D psi slot by slot, so each identity holds at most
4.25 spinor grids above its inputs.  Holding a pair past its grid's
pass, whole residual objects between rows, every direction of a gradient
at once, or a second grid for a projection shows up here as more grids."""

import tracemalloc
import weakref

import pytest

import diracharmonic as dh
from diracharmonic import fields, identities, verify
from diracharmonic.config import build_pair

DISK = ("[chart]\ntopology = disk\nn = {n}\n\n[scenario]\nkind = twistor_pushforward\n"
        "rational_num = 0,1\npsi0 = 1,0\npsi1 = 0.2,-0.1j\n\n[output]\nseed = 7\n")


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Spinor grids of the largest grid the run builds.  At n = 48 that is the
# conformal record's own 128, built with no pair alive, and the peak is
# the 96 pair with one identity's working set; at n = 64 it is the finest
# pair's 128, and the peak is that pair with one identity's working set.
# Holding grid n's pair through grid 2n's pass reads 4.50 and 6.51.
RUN_BUDGETS = {48: 4.0, 64: 6.0}


@pytest.mark.parametrize("n", sorted(RUN_BUDGETS))
def test_verify_peak_is_the_finest_pair_and_one_identity(n):
    cfg = dh.parse_config(DISK.format(n=n))
    verify.run_verification(cfg)  # first-call imports stay out of the traced peak
    report, peak = _traced_peak(lambda: verify.run_verification(cfg))
    assert len(report["identities"]) == 20
    largest = max(m for rec in report["identities"] for m in rec["grids"])
    grid_bytes = 3 * 2 * 16 * largest**2   # K = 3 ambient slots of complex (f, g)
    grids = peak / grid_bytes
    assert grids <= RUN_BUDGETS[n], f"{grids:.2f} spinor grids of {largest}"


def test_each_grid_pair_is_dropped_before_the_next_is_built(monkeypatch):
    built = []
    original = verify.build_pair

    def recording(cfg, n_override=None):
        assert all(spinor() is None for spinor in built), "an earlier grid's pair is alive"
        phi, psi = original(cfg, n_override=n_override)
        built.append(weakref.ref(psi.values))
        return phi, psi

    monkeypatch.setattr(verify, "build_pair", recording)
    verify.run_verification(dh.parse_config(DISK.format(n=48)), sweep=True)
    assert len(built) == 3


IDENTITY_BUDGETS = {
    "weitzenboeck_defect": (identities.weitzenboeck_defect, 4.25),
    "bochner_defect": (identities.bochner_defect, 4.25),
    "em_defects": (identities.em_defects, 4.25),
    "el_residual": (fields.el_residual, 4.25),
    "pohozaev_defect": (lambda phi, psi: identities.pohozaev_defect(
        phi, psi, verify.POHOZAEV_RADII), 4.25),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_BUDGETS))
def test_each_identity_holds_few_spinor_grids(name):
    fn, budget = IDENTITY_BUDGETS[name]
    phi, psi = build_pair(dh.parse_config(DISK.format(n=64)))
    _, peak = _traced_peak(lambda: fn(phi, psi))
    grids = peak / psi.values.nbytes
    assert grids <= budget, f"{name}: {grids:.2f} spinor grids"
