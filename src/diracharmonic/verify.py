"""Machine-readable verification suite.

Runs every identity the library knows against a configured scenario at
two resolutions (n and 2n), classifies each as unconditional (holds for
arbitrary smooth fields) or conditional (holds on critical pairs), and
emits one record per identity with measured defects, the refinement
ratio, the threshold applied, and a pass flag.  Thresholds are pinned
here, not configurable: unconditional identities get near-machine
bounds, conditional ones get C h^2 budgets relative to the field scale
(C below), and second-order claims additionally require the two-grid
ratio to land in the centered window around 4.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .charts import DomainChart, MoebiusMap, bandlimited_field
from .config import ConfigError, RunConfig, build_pair
from .fields import (MapField, action, curvature_term, dirichlet_density,
                     el_residual, field_scale, project_spinor, tangency_defect)
from .identities import (bochner_defect, conformal_checks,
                         em_divergence, energy_momentum, hopf_differential,
                         pohozaev_defect, self_adjointness_defect,
                         weitzenboeck_defect)
from .spinors import (clifford_mul, flat_dirac, hermitian, spinor_norm2,
                      twistor_defect, twistor_field)
from .targets import Sphere

RATIO_WINDOW = (3.4, 4.6)
COND_BUDGET = 5.0       # conditional identities: defect/scale <= COND_BUDGET h^2
UNCOND_BUDGET = 200.0   # unconditional discrete identities, same form
POHOZAEV_RADII = (0.25, 0.5, 0.75)

_SOLUTION_SCENARIOS = ("twistor_pushforward", "elliptic_pair", "harmonic_wrap",
                       "constant_spinor")
_PUSHFORWARD_SCENARIOS = ("twistor_pushforward", "elliptic_pair")


def _record(ident, statement, kind, grids, defects, threshold, passed,
            ratio=None, note=""):
    return {
        "id": ident,
        "statement": statement,
        "kind": kind,
        "grids": list(grids),
        "defects": [float(d) for d in defects],
        "refinement_ratio": None if ratio is None else float(ratio),
        "threshold": threshold,
        "pass": bool(passed),
        "note": note,
    }


def _ratio_ok(defects) -> tuple[float | None, bool]:
    if len(defects) < 2 or defects[-1] <= 0:
        return None, True
    ratio = defects[0] / defects[-1]
    return ratio, RATIO_WINDOW[0] <= ratio <= RATIO_WINDOW[1]


def canonical_compact_pair(n: int, seed: int = 7, side: float = 2.2):
    """Deterministic compactly-supported pair on the disk for conformal
    checks: a bump-localized sphere map plus a bump-localized tangent
    spinor.  Compact support keeps every pullback inside the chart and the
    quadrature away from the disk rim."""
    chart = DomainChart.disk(n, side=side)
    rng = np.random.default_rng(seed)
    r2 = (chart.x**2 + chart.y**2) / 0.5**2
    bump = np.where(r2 < 1, (1.0 - np.minimum(r2, 1.0)) ** 4, 0.0)
    sphere = Sphere(2)
    base = np.zeros(chart.shape + (3,))
    base[..., 2] = 1.0
    dev = bandlimited_field(chart, rng, components=(3,), kmax=1, amplitude=0.4)
    phi = MapField(chart, sphere, sphere.project_point(base + bump[..., None] * dev))
    sdev = (bandlimited_field(chart, rng, components=(3, 2), kmax=1, amplitude=2.0)
            + 1j * bandlimited_field(chart, rng, components=(3, 2), kmax=1, amplitude=2.0))
    psi = project_spinor(phi, bump[..., None, None] * sdev)
    return phi, psi


def _algebra_checks(seed: int):
    """Grid-free spinor algebra identities on randomized inputs."""
    rng = np.random.default_rng(seed)
    worst_cliff = 0.0
    worst_skew = 0.0
    for _ in range(50):
        v = rng.normal(size=2)
        w = rng.normal(size=2)
        s = rng.normal(size=2) + 1j * rng.normal(size=2)
        t = rng.normal(size=2) + 1j * rng.normal(size=2)
        lhs = clifford_mul(v, clifford_mul(w, s)) + clifford_mul(w, clifford_mul(v, s))
        rhs = -2.0 * (v @ w) * s
        scale = max(1.0, float(np.abs(s).max()) * float(np.abs(v @ w)) + 1e-30)
        worst_cliff = max(worst_cliff, float(np.abs(lhs - rhs).max()) / scale)
        sk = (np.real(hermitian(clifford_mul(v, s), t))
              + np.real(hermitian(s, clifford_mul(v, t))))
        worst_skew = max(worst_skew, abs(float(sk)) / max(1.0, float(np.abs(s).max() * np.abs(t).max())))
    return worst_cliff, worst_skew


def _require_circles_fit(topology: str, n: int, side: float, where: str) -> None:
    """Raise ConfigError unless every Pohozaev radius of a disk chart lies in
    [4h, 1 - 4h], the range ``pohozaev_defect`` accepts: n >= 16 side for
    r = 0.25 and 0.75.  ``where`` names the input that set n."""
    edge = min(POHOZAEV_RADII[0], 1.0 - POHOZAEV_RADII[-1])
    n_min = math.ceil(4.0 * side / edge)
    if topology == "disk" and n < n_min:
        raise ConfigError(f"{where}chart.n = {n} is too coarse for verify on a disk of "
                          f"side {side}: the Pohozaev circles need 4h <= {edge}, "
                          f"so n >= {n_min}")


def run_verification(cfg: RunConfig, sweep: bool = False) -> dict:
    """Execute the suite on a configured scenario at (n, 2n) and optionally
    4n; returns the report dictionary (see module doc)."""
    base_n = cfg.get("chart", "n")
    _require_circles_fit(cfg.get("chart", "topology"), base_n, cfg.get("chart", "side"),
                         cfg.where("chart", "n"))
    grids = [base_n, 2 * base_n] + ([4 * base_n] if sweep else [])
    pairs = [build_pair(cfg, n_override=n) for n in grids]
    report = _verify_pairs(pairs, grids, cfg.get("output", "seed"), cfg.get("scenario", "kind"))
    report["config_sha256"] = cfg.sha256()
    report["mode"] = "scenario"
    return report


def run_verification_on_fields(phi, psi, seed: int = 1234) -> dict:
    """Single-resolution suite on stored fields: the same identity records
    with absolute thresholds only (no refinement ratios, no conformal
    classification)."""
    chart = phi.chart
    _require_circles_fit(chart.topology, chart.n, chart.grid.side, "stored field: ")
    report = _verify_pairs([(phi, psi)], [chart.n], seed, "stored_fields")
    report["mode"] = "files"
    return report


def _verify_pairs(pairs, grids, seed, scenario_kind) -> dict:
    is_solution = scenario_kind in _SOLUTION_SCENARIOS
    base_n = grids[0]
    charts = [p[0].chart for p in pairs]
    scales = [field_scale(phi, psi) for phi, psi in pairs]
    records = []

    # ---- unconditional algebra ------------------------------------------------
    cliff, skew = _algebra_checks(seed)
    records.append(_record(
        "clifford_relations", "v.w.s + w.v.s = -2<v,w>s on random inputs",
        "unconditional", [], [cliff], {"abs": 1e-12}, cliff <= 1e-12))
    records.append(_record(
        "clifford_skew_adjoint", "Re<v.s, t> = -Re<s, v.t> on random inputs",
        "unconditional", [], [skew], {"abs": 1e-12}, skew <= 1e-12))

    # ---- flat Dirac forms ------------------------------------------------------
    defects = []
    for chart in charts:
        rng = np.random.default_rng(seed + 1)
        fld = (bandlimited_field(chart, rng, components=(2,), kmax=2)
               + 1j * bandlimited_field(chart, rng, components=(2,), kmax=2))
        d1 = flat_dirac(fld, chart, form="frame")
        d2 = flat_dirac(fld, chart, form="cauchy_riemann")
        sc = float(np.sqrt(spinor_norm2(d1)).max()) + 1e-30
        defects.append(float(np.sqrt(spinor_norm2(d1 - d2)).max()) / sc)
    records.append(_record(
        "dirac_frame_vs_cauchy_riemann",
        "frame form equals the Cauchy-Riemann form pointwise",
        "unconditional", grids, defects, {"abs": 1e-13}, max(defects) <= 1e-13))

    # ---- twistor family ----------------------------------------------------------
    # Affine spinors are not periodic, so this check always runs on its own
    # windowed charts where the seam stays out of the sup.
    defects = []
    for n in grids:
        wchart = DomainChart.torus(n, side=1.0, window=0.5)
        rng = np.random.default_rng(seed + 2)
        p0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        p1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        defects.append(twistor_defect(twistor_field(wchart, p0, p1), wchart))
    records.append(_record(
        "twistor_family", "affine twistor spinors annihilate the twistor operator",
        "unconditional", grids, defects, {"abs": 1e-10}, max(defects) <= 1e-10))

    # ---- formal self-adjointness (torus, random triples) -------------------------
    worst = 0.0
    sa_chart = DomainChart.torus(base_n, side=1.0)
    sphere = Sphere(2)
    for k in range(20):
        rng = np.random.default_rng(seed + 100 + k)
        base = np.zeros(sa_chart.shape + (3,))
        base[..., 2] = 1.0
        phi_r = MapField(sa_chart, sphere, sphere.project_point(
            base + bandlimited_field(sa_chart, rng, components=(3,), kmax=2, amplitude=0.7)))
        mk = lambda: project_spinor(phi_r, (
            bandlimited_field(sa_chart, rng, components=(3, 2), kmax=2)
            + 1j * bandlimited_field(sa_chart, rng, components=(3, 2), kmax=2)))
        worst = max(worst, self_adjointness_defect(phi_r, mk(), mk()))
    records.append(_record(
        "dirac_self_adjoint",
        "int (psi, D xi) = int (D psi, xi) on the torus, 20 random triples",
        "unconditional", [base_n], [worst], {"rel": 1e-11}, worst <= 1e-11))

    # ---- Weitzenboeck (unconditional, on scenario fields) -------------------------
    defects = [weitzenboeck_defect(phi, psi) / sc for (phi, psi), sc in zip(pairs, scales)]
    ratio, rok = _ratio_ok(defects[:2])
    budget = UNCOND_BUDGET * charts[0].h ** 2
    near_zero = defects[0] <= 1e-10
    records.append(_record(
        "weitzenboeck", "squared Dirac equals connection Laplacian plus curvature",
        "unconditional", grids, defects, {"rel_h2": UNCOND_BUDGET},
        defects[0] <= budget and (near_zero or rok), ratio=ratio,
        note="ratio window waived below 1e-10" if near_zero else ""))

    # ---- conditional identities ----------------------------------------------------
    def cond(ident, statement, values, extra_note=""):
        ratio, rok = _ratio_ok(values[:2])
        budget = COND_BUDGET * charts[0].h ** 2
        near_zero = values[0] <= 1e-10
        ok = values[0] <= budget and (near_zero or rok)
        records.append(_record(
            ident, statement, "conditional", grids, values,
            {"rel_h2": COND_BUDGET}, ok, ratio=ratio, note=extra_note))

    res = [el_residual(phi, psi) for phi, psi in pairs]
    cond("map_equation", "tension balances the curvature coupling",
         [r.norms["map_sup"] / s for r, s in zip(res, scales)])
    cond("spinor_equation", "Dirac operator along the map annihilates the spinor",
         [r.norms["spinor_sup"] / s for r, s in zip(res, scales)])
    cond("normal_splitting", "normal part of the flat Dirac matches the second-fundamental term",
         [r.norms["normal_sup"] / s for r, s in zip(res, scales)])

    ems = [energy_momentum(phi, psi) for phi, psi in pairs]
    cond("em_symmetry", "energy-momentum tensor is symmetric",
         [em.symmetry_defect() / s for em, s in zip(ems, scales)])
    div_vals = []
    for em, chart, s in zip(ems, charts, scales):
        div = em_divergence(em)
        mag = np.sqrt((div**2).sum(axis=-1))
        m = chart.interior_mask & chart.valid_mask(2)
        div_vals.append(float(np.sqrt((mag[m] ** 2).sum() * chart.h**2)) / s)
    cond("em_divergence", "energy-momentum tensor is divergence-free", div_vals)

    cond("hopf_holomorphic", "quadratic differential coefficient is anti-holomorphically closed",
         [hopf_differential(phi, psi).dbar_defect() / s
          for (phi, psi), s in zip(pairs, scales)])

    boch = []
    boch_note = ""
    try:
        boch = [bochner_defect(phi, psi) / s for (phi, psi), s in zip(pairs, scales)]
        cond("bochner", "Laplacian of the spinor density balances gradient and curvature", boch)
    except ValueError as exc:
        records.append(_record(
            "bochner", "Laplacian of the spinor density balances gradient and curvature",
            "conditional", grids, [], {"rel_h2": COND_BUDGET}, False,
            note=f"precondition failed: {exc}"))

    act_vals = []
    for (phi, psi), chart, s in zip(pairs, charts, scales):
        m = chart.interior_mask
        a = action(phi, psi, region=m)
        d = chart.integrate(dirichlet_density(phi), region=m)
        act_vals.append(abs(a - d) / (1.0 + abs(a)))
    cond("action_reduces_to_dirichlet", "the spinor term of the action vanishes on solutions",
         act_vals)

    if scenario_kind in _PUSHFORWARD_SCENARIOS:
        tang = [tangency_defect(phi, psi) for phi, psi in pairs]
        records.append(_record(
            "pushforward_tangency", "pushforward spinors satisfy the tangency constraint",
            "conditional", grids, tang, {"abs": 1e-10}, max(tang) <= 1e-10))
        curv = [float(np.abs(curvature_term(phi, psi)).max()) / s
                for (phi, psi), s in zip(pairs, scales)]
        records.append(_record(
            "curvature_term_annihilation",
            "the curvature coupling vanishes pointwise on pushforward pairs",
            "conditional", grids, curv, {"abs": 1e-10}, max(curv) <= 1e-10))

    # ---- disk-only identities ---------------------------------------------------------
    if charts[0].topology == "disk":
        for r in POHOZAEV_RADII:
            vals = []
            for (phi, psi) in pairs:
                cb = pohozaev_defect(phi, psi, r)
                vals.append(max(cb.radial_defect, cb.angular_defect) / cb.scale)
            improving = len(vals) < 2 or vals[1] <= vals[0] * 0.75 or vals[0] <= 1e-10
            records.append(_record(
                f"pohozaev_r{r}", f"circle balance of radial and angular energies at r = {r}",
                "conditional", grids, vals, {"abs": 1e-2, "improving": True},
                vals[0] <= 1e-2 and improving))

        conf_grids = [max(64, base_n), 2 * max(64, base_n)]
        conf_pairs = [canonical_compact_pair(m, seed=seed) for m in conf_grids]
        autos = [MoebiusMap.disk_automorphism(a_par, theta=theta)
                 for theta, a_par in ((0.0, 0.4), (0.7, 0.25 + 0.2j))]
        conventions = ("inverse_fprime", "fprime")
        checks = [conformal_checks(phi, psi, autos, conventions) for phi, psi in conf_pairs]
        winners = []
        conv_records = {}
        for j, conv in enumerate(conventions):
            # Two maps per grid: fold to per-grid maxima.
            a_pair = [max(row[j].action_defect for row in grid) for grid in checks]
            e_pair = [max(row[j].energy_defect for row in grid) for grid in checks]
            ra, oka = _ratio_ok(a_pair)
            re_, oke = _ratio_ok(e_pair)
            win = oka and oke and a_pair[0] > 1e-13
            winners.append((conv, win))
            conv_records[conv] = {"action": a_pair, "energy": e_pair,
                                  "ratios": [ra, re_], "second_order": bool(win)}
        winner_names = [c for c, w in winners if w]
        records.append(_record(
            "conformal_invariance",
            "action and energy are invariant under disk automorphisms for exactly "
            "one rescaling convention",
            "unconditional", conf_grids,
            conv_records["inverse_fprime"]["action"],
            {"ratio_window": list(RATIO_WINDOW), "unique_winner": True},
            len(winner_names) == 1,
            note=f"winner: {winner_names[0]} (psi scales by |f'|^(+1/2))"
                 if len(winner_names) == 1 else "no unique convention"))
        records[-1]["conventions"] = conv_records

    overall = all(r["pass"] for r in records)
    return {
        "package_version": __version__,
        "report_version": 1,
        "seed": seed,
        "scenario": scenario_kind,
        "solution_scenario": is_solution,
        "grids": grids,
        "chart": {"topology": charts[0].topology, "n": base_n,
                  "side": charts[0].grid.side},
        "identities": records,
        "pass": overall,
    }
