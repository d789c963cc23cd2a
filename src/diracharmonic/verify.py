"""Machine-readable verification suite.

Runs every identity the library knows on a scenario at grids n and 2n
(and 4n), or on stored fields at their one grid, and emits one record per
identity: id, statement, kind (unconditional: holds for any smooth
fields; conditional: on critical pairs), grids, defects, refinement
ratio, threshold and pass flag.  ``_ROWS`` lists the records in report
order; each threshold names the rule ``_judge`` applies.  Thresholds are
pinned here, not configurable.
"""

from __future__ import annotations

import copy
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .charts import DomainChart, MoebiusMap, bandlimited_field
from .config import ConfigError, RunConfig, build_chart, build_pair
from .fields import (MapField, action, curvature_term, dirichlet_density,
                     el_residual, field_scale, project_spinor, tangency_defect)
from .identities import (_EXPONENTS, bochner_defect, conformal_invariance_defect, em_defects,
                         pohozaev_defect, self_adjointness_defect, weitzenboeck_defect)
from .spinors import (clifford_mul, flat_dirac, re_pairing, spinor_norm2, twistor_defect,
                      twistor_field)
from .targets import Sphere

RATIO_WINDOW = (3.4, 4.6)
NEAR_ZERO = 1e-10       # a first-grid defect this small waives the ratio test
COND_BUDGET = 5.0       # conditional identities: defect/scale <= COND_BUDGET h^2
UNCOND_BUDGET = 200.0   # unconditional discrete identities, same form
POHOZAEV_RADII = (0.25, 0.5, 0.75)
SELF_ADJOINT_GRID = 32  # summation by parts holds to round-off at every n

_SOLUTION_SCENARIOS = ("twistor_pushforward", "elliptic_pair", "harmonic_wrap",
                       "constant_spinor")
_PUSHFORWARD_SCENARIOS = ("twistor_pushforward", "elliptic_pair")


def canonical_compact_pair(n: int, seed: int = 7):
    """Deterministic compactly-supported pair on the disk for conformal
    checks: a bump-localized sphere map plus a bump-localized tangent
    spinor.  Compact support keeps every pullback inside the chart and the
    quadrature away from the disk rim."""
    chart = DomainChart.disk(n)
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
        sk = re_pairing(clifford_mul(v, s), t) + re_pairing(s, clifford_mul(v, t))
        worst_skew = max(worst_skew, abs(float(sk)) / max(1.0, float(np.abs(s).max() * np.abs(t).max())))
    return worst_cliff, worst_skew


def _require_circles_fit(chart: DomainChart, where: str) -> None:
    """Raise ConfigError unless ``pohozaev_defect`` accepts every Pohozaev
    radius on a disk chart.  ``where`` names the input that set n."""
    for r in POHOZAEV_RADII if chart.topology == "disk" else ():
        try:
            chart._check_radius(r)
        except ValueError as exc:
            raise ConfigError(f"{where}chart.n = {chart.n} is too coarse for verify on a disk "
                              f"of side {chart.side}: Pohozaev {exc}") from None


def run_verification(cfg: RunConfig, sweep: bool = False) -> dict:
    """Execute the suite on a configured scenario at (n, 2n) and optionally
    4n; returns the report dictionary (see module doc)."""
    base_n = cfg.get("chart", "n")
    _require_circles_fit(build_chart(cfg), cfg.where("chart", "n"))
    grids = [base_n, 2 * base_n] + ([4 * base_n] if sweep else [])
    pairs = [build_pair(cfg, n_override=n) for n in grids]
    report = _verify_pairs(pairs, grids, cfg.get("output", "seed"), cfg.get("scenario", "kind"),
                           "scenario")
    report["config_sha256"] = cfg.sha256()
    return report


def run_verification_on_fields(phi, psi, seed: int) -> dict:
    """The suite on stored fields at their one grid, which waives every
    ratio test but the conformal record's, run on its own grids."""
    chart = phi.chart
    _require_circles_fit(chart, "stored field: ")
    return _verify_pairs([(phi, psi)], [chart.n], seed, "stored_fields", "files")


def _judge(threshold: dict, defects, h: float) -> tuple[bool, float | None, str]:
    """(pass, refinement ratio, note) under the rule ``threshold`` names; h
    is the first grid's spacing.  The README's "Verification report" states
    each rule.  For ``unique_winner``, ``defects`` maps each convention to
    its action and energy defects, and each entry gains its ratios and
    ``second_order`` flag."""

    def ratio_of(series):  # (first / second defect or None, whether it passes)
        if len(series) < 2 or series[1] <= 0:
            return None, True
        ratio = series[0] / series[1]
        return ratio, RATIO_WINDOW[0] <= ratio <= RATIO_WINDOW[1]

    if not defects:
        return False, None, ""
    if threshold.get("unique_winner"):
        for series in defects.values():
            (ra, oka), (re_, oke) = ratio_of(series["action"]), ratio_of(series["energy"])
            series["ratios"] = [ra, re_]
            series["second_order"] = bool(oka and oke and series["action"][0] > 1e-13)
        winners = [conv for conv, series in defects.items() if series["second_order"]]
        if len(winners) != 1:
            return False, None, "no unique convention"
        num, den = _EXPONENTS[winners[0]].as_integer_ratio()
        return True, None, f"winner: {winners[0]} (psi scales by |f'|^({num:+d}/{den}))"
    near_zero = defects[0] <= NEAR_ZERO
    if "rel_h2" in threshold:
        ratio, in_window = ratio_of(defects)
        passed = defects[0] <= threshold["rel_h2"] * h**2 and (near_zero or in_window)
        return passed, ratio, f"ratio window waived below {NEAR_ZERO:g}" if near_zero else ""
    if threshold.get("improving"):
        improving = len(defects) < 2 or defects[1] <= defects[0] * 0.75 or near_zero
        return defects[0] <= threshold["abs"] and improving, None, ""
    return max(defects) <= threshold.get("abs", threshold.get("rel")), None, ""


def _cauchy_riemann_dirac(field, chart) -> np.ndarray:
    """The Cauchy-Riemann form 2 (dg/dzbar, -df/dz) = (g_x + i g_y, i f_y - f_x)
    of ``flat_dirac`` on a spinor field (f, g), from the same stencils: the
    record's reference, written out apart from ``clifford_mul``."""
    dx, dy = chart.derivative(field, "x"), chart.derivative(field, "y")
    return np.stack([dx[..., 1] + 1j * dy[..., 1], 1j * dy[..., 0] - dx[..., 0]], axis=-1,
                    out=np.empty_like(field))


class _Suite:
    """The pairs under test and the measurements the rows take from them;
    ``each`` computes the scalars several rows share once per verification."""

    def __init__(self, pairs, grids, seed, scenario_kind):
        self.pairs, self.grids, self.seed = pairs, grids, seed
        self.charts = [phi.chart for phi, _ in pairs]
        self.scope = {scenario_kind, self.charts[0].topology}
        self.conformal_grids = [max(64, grids[0]), 2 * max(64, grids[0])]
        self.scales = [field_scale(phi, psi) for phi, psi in pairs]
        self.algebra = _algebra_checks(seed)
        self._shared = {}

    def each(self, fn) -> list:
        if fn not in self._shared:
            self._shared[fn] = [fn(phi, psi) for phi, psi in self.pairs]
        return self._shared[fn]

    def rel(self, values) -> list:  # per pair, relative to its field scale
        return [v / s for v, s in zip(values, self.scales)]

    def frame_vs_cauchy_riemann(self, chart) -> float:
        rng = np.random.default_rng(self.seed + 1)
        fld = (bandlimited_field(chart, rng, components=(2,), kmax=2)
               + 1j * bandlimited_field(chart, rng, components=(2,), kmax=2))
        d1 = flat_dirac(fld, chart)
        d2 = _cauchy_riemann_dirac(fld, chart)
        sc = float(np.sqrt(spinor_norm2(d1)).max()) + 1e-30
        return float(np.sqrt(spinor_norm2(d1 - d2)).max()) / sc

    def twistor_family(self, n) -> float:
        # Affine spinors are not periodic, so this check always runs on its
        # own windowed charts where the seam stays out of the sup.
        wchart = DomainChart.torus(n, side=1.0, window=0.5)
        rng = np.random.default_rng(self.seed + 2)
        p0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        p1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        return twistor_defect(twistor_field(wchart, p0, p1), wchart)

    def self_adjointness(self) -> float:
        """Worst defect over 20 random triples on the torus at SELF_ADJOINT_GRID."""
        worst = 0.0
        sa_chart = DomainChart.torus(SELF_ADJOINT_GRID, side=1.0)
        sphere = Sphere(2)
        for k in range(20):
            rng = np.random.default_rng(self.seed + 100 + k)
            base = np.zeros(sa_chart.shape + (3,))
            base[..., 2] = 1.0
            phi_r = MapField(sa_chart, sphere, sphere.project_point(
                base + bandlimited_field(sa_chart, rng, components=(3,), kmax=2, amplitude=0.7)))
            mk = lambda: project_spinor(phi_r, (
                bandlimited_field(sa_chart, rng, components=(3, 2), kmax=2)
                + 1j * bandlimited_field(sa_chart, rng, components=(3, 2), kmax=2)))
            worst = max(worst, self_adjointness_defect(phi_r, mk(), mk()))
        return worst

    def conformal(self) -> dict:
        """Per convention, the action and energy defects of the canonical
        compact pair under two disk automorphisms, each the worse of the
        two, one per grid."""
        autos = [MoebiusMap.disk_automorphism(a_par, theta=theta)
                 for theta, a_par in ((0.0, 0.4), (0.7, 0.25 + 0.2j))]
        worst = [conformal_invariance_defect(*canonical_compact_pair(m, seed=self.seed), autos)
                 for m in self.conformal_grids]
        return {conv: {"action": [grid[conv][0] for grid in worst],
                       "energy": [grid[conv][1] for grid in worst]}
                for conv in _EXPONENTS}


def _el_norms(phi, psi) -> dict:
    return el_residual(phi, psi).norms


def _action_reduction(phi, psi) -> float:
    m = phi.chart.interior_mask
    a = action(phi, psi, region=m)
    d = phi.chart.integrate(dirichlet_density(phi), region=m)
    return abs(a - d) / (1.0 + abs(a))


class _Row(NamedTuple):
    id: str
    statement: str
    kind: str
    threshold: dict                # names the rule, see _judge
    defects: Callable              # _Suite -> one defect per grid (see _judge)
    scope: tuple = ()              # scenario kinds or topologies that run it; () = all
    grids: Callable | None = None  # the grids the record lists; None = the pairs' grids
    fails_on: type | tuple = ()    # exceptions of ``defects`` meaning a failed precondition


# The defect functions look the identity functions up when they run, so
# wrappers installed on this module's globals see every call.
_UNCOND, _COND = "unconditional", "conditional"
_H2 = {"rel_h2": COND_BUDGET}
_ROWS = (
    _Row("clifford_relations", "v.w.s + w.v.s = -2<v,w>s on random inputs", _UNCOND,
         {"abs": 1e-12}, lambda s: [s.algebra[0]], grids=lambda s: []),
    _Row("clifford_skew_adjoint", "Re<v.s, t> = -Re<s, v.t> on random inputs", _UNCOND,
         {"abs": 1e-12}, lambda s: [s.algebra[1]], grids=lambda s: []),
    _Row("dirac_frame_vs_cauchy_riemann", "frame form equals the Cauchy-Riemann form pointwise",
         _UNCOND, {"abs": 1e-13},
         lambda s: [s.frame_vs_cauchy_riemann(chart) for chart in s.charts]),
    _Row("twistor_family", "affine twistor spinors annihilate the twistor operator", _UNCOND,
         {"abs": 1e-10}, lambda s: [s.twistor_family(n) for n in s.grids]),
    _Row("dirac_self_adjoint",
         "int (psi, D xi) = int (D psi, xi) on the torus, 20 random triples", _UNCOND,
         {"rel": 1e-11}, lambda s: [s.self_adjointness()], grids=lambda s: [SELF_ADJOINT_GRID]),
    _Row("weitzenboeck", "squared Dirac equals connection Laplacian plus curvature", _UNCOND,
         {"rel_h2": UNCOND_BUDGET}, lambda s: s.rel(weitzenboeck_defect(*p) for p in s.pairs)),
    _Row("map_equation", "tension balances the curvature coupling", _COND, _H2,
         lambda s: s.rel(r["map_sup"] for r in s.each(_el_norms))),
    _Row("spinor_equation", "Dirac operator along the map annihilates the spinor", _COND, _H2,
         lambda s: s.rel(r["spinor_sup"] for r in s.each(_el_norms))),
    _Row("normal_splitting",
         "normal part of the flat Dirac matches the second-fundamental term", _COND, _H2,
         lambda s: s.rel(r["normal_sup"] for r in s.each(_el_norms))),
    _Row("em_symmetry", "energy-momentum tensor is symmetric", _COND, _H2,
         lambda s: s.rel(sym for sym, _div, _dbar in s.each(em_defects))),
    _Row("em_divergence", "energy-momentum tensor is divergence-free", _COND, _H2,
         lambda s: s.rel(div for _sym, div, _dbar in s.each(em_defects))),
    _Row("hopf_holomorphic",
         "quadratic differential coefficient is anti-holomorphically closed", _COND, _H2,
         lambda s: s.rel(dbar for _sym, _div, dbar in s.each(em_defects))),
    _Row("bochner", "Laplacian of the spinor density balances gradient and curvature", _COND,
         _H2, lambda s: s.rel(bochner_defect(*p, s.scales[i]) for i, p in enumerate(s.pairs)),
         fails_on=ValueError),
    _Row("action_reduces_to_dirichlet", "the spinor term of the action vanishes on solutions",
         _COND, _H2, lambda s: [_action_reduction(*p) for p in s.pairs]),
    _Row("pushforward_tangency", "pushforward spinors satisfy the tangency constraint", _COND,
         {"abs": 1e-10}, lambda s: [tangency_defect(*p) for p in s.pairs],
         scope=_PUSHFORWARD_SCENARIOS),
    _Row("curvature_term_annihilation",
         "the curvature coupling vanishes pointwise on pushforward pairs", _COND,
         {"abs": 1e-10}, lambda s: s.rel(float(np.abs(curvature_term(*p)).max()) for p in s.pairs),
         scope=_PUSHFORWARD_SCENARIOS),
    *(_Row(f"pohozaev_r{r}", f"circle balance of radial and angular energies at r = {r}",
           _COND, {"abs": 1e-2, "improving": True},
           lambda s, r=r: [pohozaev_defect(*p, r) for p in s.pairs],
           scope=("disk",))
      for r in POHOZAEV_RADII),
    _Row("conformal_invariance",
         "action and energy are invariant under disk automorphisms for exactly "
         "one rescaling convention", _UNCOND,
         {"ratio_window": list(RATIO_WINDOW), "unique_winner": True}, lambda s: s.conformal(),
         scope=("disk",), grids=lambda s: s.conformal_grids),
)


def _verify_pairs(pairs, grids, seed, scenario_kind, mode) -> dict:
    suite = _Suite(pairs, grids, seed, scenario_kind)
    records = []
    for row in _ROWS:
        if row.scope and not suite.scope & set(row.scope):
            continue
        try:
            defects, failure = row.defects(suite), ""
        except row.fails_on as exc:
            defects, failure = [], f"precondition failed: {exc}"
        passed, ratio, note = _judge(row.threshold, defects, suite.charts[0].h)
        extra = {}
        if isinstance(defects, dict):   # per convention: list the first one's action
            extra["conventions"] = defects
            defects = next(iter(defects.values()))["action"]
        records.append({
            "id": row.id,
            "statement": row.statement,
            "kind": row.kind,
            "grids": list(row.grids(suite) if row.grids else grids),
            "defects": [float(d) for d in defects],
            "refinement_ratio": None if ratio is None else float(ratio),
            "threshold": copy.deepcopy(row.threshold),
            "pass": bool(passed),
            "note": failure or note,
            **extra,
        })
    return {
        "package_version": __version__,
        "report_version": 1,
        "seed": seed,
        "scenario": scenario_kind,
        "solution_scenario": scenario_kind in _SOLUTION_SCENARIOS,
        "grids": grids,
        "chart": {"topology": suite.charts[0].topology, "n": grids[0],
                  "side": suite.charts[0].side},
        "identities": records,
        "pass": all(r["pass"] for r in records),
        "mode": mode,
    }
