"""The working set of one verification.

No grid-sized array outlives the last line that reads it, and rows share
only the scalars a record reports, so the traced peak of one
``_verify_pairs`` run above the pairs' own arrays stays within 5 of the
largest spinor grids the run builds.  Inside an identity, projections run
in place one ambient slot at a time, each e_a . psi lives only for its
pairings and R(X, Y) S is formed slot by slot from two pairings, so each
identity holds at most 4.25 spinor grids above its inputs, and
``weitzenboeck_defect``, whose D^2 psi needs four, at most 4.75.  Holding
whole residual objects between rows, every direction of a gradient at
once, or a second grid for a projection shows up here as more grids."""

import tracemalloc

import pytest

import diracharmonic as dh
from diracharmonic import fields, identities, verify
from diracharmonic.config import build_pair

BUDGET_GRIDS = 5.0

DISK = ("[chart]\ntopology = disk\nn = {n}\n\n[scenario]\nkind = twistor_pushforward\n"
        "rational_num = 0,1\npsi0 = 1,0\npsi1 = 0.2,-0.1j\n\n[output]\nseed = 7\n")


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [48, 64])
def test_verify_peak_stays_within_five_spinor_grids(n):
    pairs = [build_pair(dh.parse_config(DISK.format(n=n)), n_override=m) for m in (n, 2 * n)]
    report, peak = _traced_peak(
        lambda: verify._verify_pairs(pairs, [n, 2 * n], 7, "twistor_pushforward", "scenario"))
    assert len(report["identities"]) == 20
    # The conformal record's own grids, max(64, n) and twice that, are the
    # largest at these n.
    largest = max(m for rec in report["identities"] for m in rec["grids"])
    psi = pairs[0][1].values
    grid_bytes = psi.nbytes // n**2 * largest**2
    assert peak / grid_bytes <= BUDGET_GRIDS, f"{peak / grid_bytes:.2f} spinor grids of {largest}"


IDENTITY_BUDGETS = {
    "weitzenboeck_defect": (identities.weitzenboeck_defect, 4.75),
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
