"""The working set of one verification.

No grid-sized array outlives the last line that reads it, and rows share
only the scalars a record reports, so the traced peak of one
``_verify_pairs`` run above the pairs' own arrays stays within a few of
the largest spinor grids the run builds.  Holding whole residual objects
between rows, or every direction of a gradient at once, shows up here as
more grids."""

import tracemalloc

import pytest

import diracharmonic as dh
from diracharmonic import verify
from diracharmonic.config import build_pair

BUDGET_GRIDS = 8.0

DISK = ("[chart]\ntopology = disk\nn = {n}\n\n[scenario]\nkind = twistor_pushforward\n"
        "rational_num = 0,1\npsi0 = 1,0\npsi1 = 0.2,-0.1j\n\n[output]\nseed = 7\n")


@pytest.mark.parametrize("n", [48, 64])
def test_verify_peak_stays_within_eight_spinor_grids(n):
    pairs = [build_pair(dh.parse_config(DISK.format(n=n)), n_override=m) for m in (n, 2 * n)]
    tracemalloc.start()
    try:
        report = verify._verify_pairs(pairs, [n, 2 * n], 7, "twistor_pushforward", "scenario")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report["identities"]) == 20
    # The conformal record's own grids, max(64, n) and twice that, are the
    # largest at these n.
    largest = max(m for rec in report["identities"] for m in rec["grids"])
    psi = pairs[0][1].values
    grid_bytes = psi.nbytes // n**2 * largest**2
    assert peak / grid_bytes <= BUDGET_GRIDS, f"{peak / grid_bytes:.2f} spinor grids of {largest}"
