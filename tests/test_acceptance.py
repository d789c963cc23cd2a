"""Acceptance gate: one test per criterion, each pinned to its stated
tolerance and runtime budget.  Every test prints a single PASS line with
the measured numbers once its assertions hold (pytest reports FAIL
otherwise), so ``pytest -s tests/test_acceptance.py`` reads as a
checklist.
"""

import hashlib
import subprocess
import sys
import time

import numpy as np
import diracharmonic as dh
from diracharmonic.verify import canonical_compact_pair

from conftest import (conformality_defect, elliptic_pair, moebius_similarity,
                      random_sphere_pair, sphere_dirichlet_energy, torus_deg1_pair)

RATIO_LO, RATIO_HI = 3.4, 4.6


def _announce(num, text):
    print(f"\nACCEPTANCE {num:2d} PASS  {text}")


def test_criterion_01_exact_solution_residuals():
    t0 = time.monotonic()
    norms, scales = [], []
    for n in (64, 128):
        _, phi, psi = torus_deg1_pair(n)
        res = dh.el_residual(phi, psi)
        norms.append(res.norms)
        scales.append(dh.field_scale(phi, psi))
    ratios = {}
    for key in ("map_sup", "spinor_sup"):
        r = norms[0][key] / norms[1][key]
        assert RATIO_LO <= r <= RATIO_HI, f"{key} ratio {r:.2f}"
        ratios[key] = r
    worst = max(norms[1]["map_sup"], norms[1]["spinor_sup"])
    assert worst <= 1e-3 * scales[1]
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0
    _announce(1, f"residual ratios map {ratios['map_sup']:.2f} spinor "
                 f"{ratios['spinor_sup']:.2f}; sup at 128^2 = {worst:.2e} "
                 f"<= 1e-3 x scale {scales[1]:.1f}; {elapsed:.1f}s <= 10s")


def test_criterion_02_curvature_term_annihilation():
    worst = 0.0
    for n in (32, 64, 128):
        _, phi, psi = torus_deg1_pair(n)
        worst = max(worst, np.abs(dh.curvature_term(phi, psi)).max()
                    / dh.field_scale(phi, psi))
        _, phi_e, psi_e = elliptic_pair(n)
        worst = max(worst, np.abs(dh.curvature_term(phi_e, psi_e)).max()
                    / dh.field_scale(phi_e, psi_e))
    assert worst <= 1e-10
    _announce(2, f"pointwise curvature coupling <= {worst:.2e} (budget 1e-10), "
                 "independent of h across 32/64/128")


def test_criterion_03_formal_self_adjointness():
    chart = dh.DomainChart.torus(64)
    sphere = dh.Sphere(2)
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        base = np.zeros(chart.shape + (3,))
        base[..., 2] = 1.0
        phi = dh.MapField(chart, sphere, sphere.project_point(
            base + dh.bandlimited_field(chart, rng, components=(3,), kmax=2, amplitude=0.7)))
        draw = lambda: dh.project_spinor(phi, (
            dh.bandlimited_field(chart, rng, components=(3, 2), kmax=2)
            + 1j * dh.bandlimited_field(chart, rng, components=(3, 2), kmax=2)))
        worst = max(worst, dh.self_adjointness_defect(phi, draw(), draw()))
    assert worst <= 1e-11
    _announce(3, f"20 random triples: relative pairing defect <= {worst:.2e} "
                 "(budget 1e-11)")


def test_criterion_04_conformal_invariance_unique_convention():
    maps = [dh.MoebiusMap.disk_automorphism(0.4),
            dh.MoebiusMap.disk_automorphism(0.25 + 0.2j, theta=0.7),
            dh.MoebiusMap.disk_automorphism(-0.25 - 0.3j, theta=-0.4),
            moebius_similarity(0.8, 0.05),
            moebius_similarity(0.85 * np.exp(0.4j))]
    pairs = {n: canonical_compact_pair(n) for n in (64, 128)}
    # defects[i][n][conv] = (action, energy) of maps[i] alone on grid n
    defects = [{n: dh.conformal_invariance_defect(*pairs[n], [f]) for n in pairs}
               for f in maps]
    winners = []
    for conv in ("inverse_fprime", "fprime"):
        ok = True
        for per_grid in defects:
            for field in (0, 1):
                r = per_grid[64][conv][field] / per_grid[128][conv][field]
                if not (RATIO_LO <= r <= RATIO_HI):
                    ok = False
        if ok:
            winners.append(conv)
    assert winners == ["inverse_fprime"]
    _announce(4, "5 maps second-order invariant exactly for lambda = 1/|f'| "
                 "(psi rescaled by |f'|^(+1/2)); the lambda = |f'| reading fails")


def test_criterion_05_holomorphic_quadratic_differential():
    vals = []
    for n in (64, 128):
        chart, phi, psi = torus_deg1_pair(n)
        vals.append(dh.em_defects(phi, psi)[2] / dh.field_scale(phi, psi))
    r = vals[0] / vals[1]
    assert RATIO_LO <= r <= RATIO_HI
    _, phi, _ = torus_deg1_pair(96)
    # The map part of T, from the exact gradient.
    map_part = np.abs(conformality_defect(phi, analytic=True)).max()
    assert map_part <= 1e-10
    _announce(5, f"dbar defect ratio {r:.2f}; conformal map part {map_part:.2e} "
                 "<= 1e-10")


def test_criterion_06_energy_momentum_tensor():
    syms, divs = [], []
    for n in (64, 128):
        chart, phi, psi = torus_deg1_pair(n)
        sym, div, _ = dh.em_defects(phi, psi)
        scale = dh.field_scale(phi, psi)
        syms.append(sym / scale)
        divs.append(div / scale)
    div_ratio = divs[0] / divs[1]
    assert RATIO_LO <= div_ratio <= RATIO_HI
    assert syms[1] <= 1e-10 or RATIO_LO <= syms[0] / syms[1] <= RATIO_HI

    _, phi_r, psi_r = random_sphere_pair(64, seed=17)
    sym_r, div_r, _ = dh.em_defects(phi_r, psi_r)
    scale_r = dh.field_scale(phi_r, psi_r)
    sym_r /= scale_r
    div_l2_r = div_r / scale_r
    assert div_l2_r > 100 * divs[0]
    assert sym_r > 100 * max(syms[0], 1e-14)
    _announce(6, f"divergence L2 ratio {div_ratio:.2f}; symmetry defect "
                 f"{syms[1]:.2e}; negative controls {div_l2_r / divs[0]:.0f}x and "
                 f"{sym_r / max(syms[0], 1e-14):.0f}x above solution values")


def test_criterion_07_weitzenboeck_and_bochner():
    wvals = [dh.weitzenboeck_defect(*random_sphere_pair(n, seed=3)[1:]) for n in (64, 128)]
    wr = wvals[0] / wvals[1]
    assert RATIO_LO <= wr <= RATIO_HI
    bvals = []
    for n in (64, 128):
        _, phi, psi = torus_deg1_pair(n)
        bvals.append(dh.bochner_defect(phi, psi))
    br = bvals[0] / bvals[1]
    assert RATIO_LO <= br <= RATIO_HI
    rng = np.random.default_rng(5)
    chart = dh.DomainChart.torus(64)
    flat = dh.Flat(3)
    phi_f = dh.MapField(chart, flat,
                        dh.bandlimited_field(chart, rng, components=(3,), kmax=2))
    psi_f = dh.TwistedSpinorField(
        chart, flat, dh.bandlimited_field(chart, rng, components=(3, 2), kmax=2)
        + 1j * dh.bandlimited_field(chart, rng, components=(3, 2), kmax=2))
    lich = dh.weitzenboeck_defect(phi_f, psi_f)
    assert lich <= 1e-12  # exact reduction beats the O(h^2) requirement
    _announce(7, f"unconditional identity ratio {wr:.2f}; conditional Laplacian "
                 f"identity ratio {br:.2f}; flat-target reduction {lich:.1e}")


def test_criterion_08_pohozaev_circle_identities():
    rows = []
    pairs = {}
    for n in (64, 128):
        chart = dh.DomainChart.disk(n, side=2.2)
        phi = dh.conformal_map_field(dh.RationalMap([0, 1]), chart)
        psi = dh.twistor_pushforward(phi, dh.spinor(1, 0), dh.spinor(0.2, -0.1j))
        pairs[n] = (phi, psi)
    radii = (0.25, 0.5, 0.75)
    defects = {n: dh.pohozaev_defect(*pairs[n], radii) for n in (64, 128)}
    for i, r in enumerate(radii):
        rels = [defects[n][i] for n in (64, 128)]
        assert rels[1] <= 1e-2, f"r={r}: {rels[1]:.3e}"
        assert rels[1] < rels[0], f"r={r} not improving"
        rows.append((r, rels[1]))
    _announce(8, "circle balance at 128^2: " + ", ".join(
        f"r={r}: {v:.1e}" for r, v in rows) + " (budget 1e-2, improving)")


def test_criterion_09_solver_convergence():
    t0 = time.monotonic()
    chart = dh.DomainChart.torus(64)
    rng = np.random.default_rng(9)
    sphere = dh.Sphere(2)
    base = np.zeros(chart.shape + (3,))
    base[..., 2] = 1.0
    pert = dh.bandlimited_field(chart, rng, components=(3,), kmax=3,
                                amplitude=0.05, modes=(2, 3))
    phi0 = dh.MapField(chart, sphere, sphere.project_point(base + pert))
    cfg = dh.SolverConfig(seed=4, max_iters=2000, residual_tol=0.0,
                          reproject_every=100, power_iters=4, trace_every=50)
    psi0 = dh.dirac_project(phi0, None, cfg).psi
    _, _, rep = dh.solve(phi0, psi0, cfg)
    comb = np.array(rep.map_residual_trace) + np.array(rep.spinor_residual_trace)
    reduction = comb[0] / comb.min()
    assert reduction >= 100.0
    assert rep.iterations[-1] <= 2000

    phi_h = dh.MapField(chart, sphere, sphere.project_point(
        base + dh.bandlimited_field(chart, rng, components=(3,), kmax=3, amplitude=0.5)))
    psi_h = dh.TwistedSpinorField.zero(chart, sphere)
    _, _, rep_h = dh.solve(phi_h, psi_h, dh.SolverConfig(
        seed=1, max_iters=300, residual_tol=0.0, trace_every=25))
    en = np.array(rep_h.energy_trace)
    assert (np.diff(en) <= 1e-12).all()
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    _announce(9, f"combined residual reduced {reduction:.0f}x within 2000 "
                 f"iterations; zero-spinor heat flow monotone; {elapsed:.1f}s <= 60s")


def test_criterion_10_whole_sphere_dirichlet_energy():
    E = sphere_dirichlet_energy(dh.RationalMap([0, 1]))
    rel = abs(E - 8 * np.pi) / (8 * np.pi)
    assert rel < 0.01
    _announce(10, f"degree-1 energy {E:.6f} vs 8 pi = {8 * np.pi:.6f} "
                  f"(relative error {rel:.2e} < 1%)")


def test_criterion_11_byte_identical_reports(tmp_path):
    cfg_text = (
        "[chart]\ntopology = torus\nn = 32\nwindow = 0.5\n\n"
        "[scenario]\nkind = twistor_pushforward\npsi1 = 0.2,-0.1j\n\n"
        f"[output]\nout_dir = {tmp_path / 'out'}\nseed = 7\n")
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)
    flow_text = (
        "[chart]\ntopology = torus\nn = 32\n\n"
        "[scenario]\nkind = perturbed_constant\nmodes = 2,3\n\n"
        "[solver]\nmax_iters = 120\nreproject_every = 40\npower_iters = 2\n"
        "trace_every = 20\nresidual_tol = 1e-9\n\n"
        f"[output]\nout_dir = {tmp_path / 'fout'}\nseed = 5\n")
    fcfg = tmp_path / "flow.cfg"
    fcfg.write_text(flow_text)

    def run(*args):
        r = subprocess.run([sys.executable, "-m", "diracharmonic.cli", *args],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        return r

    def digest(p):
        return hashlib.sha256(p.read_bytes()).hexdigest()

    run("verify", "--config", str(cfg))
    v1 = digest(tmp_path / "out" / "verify_report.json")
    run("verify", "--config", str(cfg))
    v2 = digest(tmp_path / "out" / "verify_report.json")
    run("flow", "--config", str(fcfg))
    f1 = [digest(tmp_path / "fout" / name) for name in
          ("flow_trace.csv", "phi_final.dhm", "psi_final.dhm", "flow_summary.json")]
    run("flow", "--config", str(fcfg))
    f2 = [digest(tmp_path / "fout" / name) for name in
          ("flow_trace.csv", "phi_final.dhm", "psi_final.dhm", "flow_summary.json")]
    assert v1 == v2
    assert f1 == f2
    _announce(11, "verify and flow outputs byte-identical across reruns "
                  "(report, CSV trace, both field files)")
