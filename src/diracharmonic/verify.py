"""Machine-readable verification suite.

Runs every identity the library knows on a scenario at grids n and 2n
(and 4n), or on stored fields at their one grid, and emits one record per
identity: id, statement, kind (unconditional: holds for any smooth
fields; conditional: on critical pairs), grids, defects, refinement
ratio, threshold and pass flag.  ``_ROWS`` lists the records in report
order; each threshold names the rule ``_judge`` applies once the row's
precondition holds; every verdict constant is pinned here, not configurable.

Verify measures one grid at a time.  Grid n's pair is built, every
in-scope row that reads it or n (the twistor family) takes its defect in
that grid's pass (``_Grid``, where the measurements several rows share
are taken once: the interior action reads the Euler-Lagrange residual's
D psi), and the pair is dropped before grid 2n's is built.  What outlives
a pass is scalars: each row's defects and a failed precondition's note.
A row that reads no pair under test (the algebra, self-adjointness and
conformal invariance) names one function of the grids and the seed that
gives its record's grids and defects; these run after the last grid,
then every record is judged.  File mode is the same loop on one grid.
"""

from __future__ import annotations

import copy
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .charts import DomainChart, MoebiusMap, bandlimited_field
from .config import ConfigError, RunConfig, build_chart, build_pair
from .fields import (MapField, TwistedSpinorField, action, curvature_term, dirichlet_density,
                     el_residual, energy, field_scale, project_spinor, tangency_defect,
                     _tangent_project_spinor)
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
BOCHNER_DIRAC_TOL = 1e-2  # bochner runs only where sup |D psi| <= this x field scale
WINNER_FLOOR = 1e-13    # a conformal winner's first action defect exceeds this
IMPROVING_FACTOR = 0.75  # "improving": the second defect is at most this x the first

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
    # The raw spinor (a + ib) bump in one grid, a drawn before b.
    a = bandlimited_field(chart, rng, components=(3, 2), kmax=1, amplitude=2.0)
    raw = 1j * bandlimited_field(chart, rng, components=(3, 2), kmax=1, amplitude=2.0)
    raw = np.add(a, raw, out=raw)
    del a
    raw *= bump[..., None, None]
    return phi, TwistedSpinorField(chart, sphere, _tangent_project_spinor(phi, raw, out=raw))


def _algebra_draws(seed: int):
    """The algebra records' 50 random vectors v, w and spinors s, t, in one draw."""
    d = np.random.default_rng(seed).normal(size=(50, 6, 2))
    return zip(d[:, 0], d[:, 1], d[:, 2] + 1j * d[:, 3], d[:, 4] + 1j * d[:, 5])


def _clifford_relations(grids, seed):
    worst = 0.0
    for v, w, s, _ in _algebra_draws(seed):
        lhs = clifford_mul(v, clifford_mul(w, s)) + clifford_mul(w, clifford_mul(v, s))
        rhs = -2.0 * (v @ w) * s
        scale = max(1.0, float(np.abs(s).max()) * float(np.abs(v @ w)) + 1e-30)
        worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    return [], [worst]


def _clifford_skew_adjoint(grids, seed):
    worst = 0.0
    for v, _, s, t in _algebra_draws(seed):
        sk = re_pairing(clifford_mul(v, s), t) + re_pairing(s, clifford_mul(v, t))
        worst = max(worst, abs(float(sk)) / max(1.0, float(np.abs(s).max() * np.abs(t).max())))
    return [], [worst]


def _require_circles_fit(chart: DomainChart, where: str) -> None:
    """Raise ConfigError, before any pair is built, unless ``pohozaev_defect``
    accepts POHOZAEV_RADII on a disk chart.  ``where`` names the input that
    set n."""
    for r in POHOZAEV_RADII if chart.topology == "disk" else ():
        try:
            chart._check_radius(r)
        except ValueError as exc:
            raise ConfigError(f"{where}chart.n = {chart.n} is too coarse for verify on a disk "
                              f"of side {chart.side}: Pohozaev {exc}") from None


def run_verification(cfg: RunConfig, sweep: bool = False) -> dict:
    """Execute the suite on a configured scenario at (n, 2n) and optionally
    4n; returns the report dictionary (see module doc).  Each grid's pair is
    built, measured and dropped before the next is built."""
    chart = build_chart(cfg)
    _require_circles_fit(chart, cfg.where("chart", "n"))
    grids = [chart.n, 2 * chart.n] + ([4 * chart.n] if sweep else [])
    seed = cfg.get("output", "seed")
    report = _verify_grids(lambda n: _Grid(*build_pair(cfg, n_override=n), seed), grids,
                           chart, seed, cfg.get("scenario", "kind"), "scenario")
    report["config_sha256"] = cfg.sha256()
    return report


def run_verification_on_fields(phi, psi, seed: int) -> dict:
    """The suite on stored fields at their one grid, which waives every
    ratio test but the conformal record's, run on its own grids.  The
    report's ``summary`` is ``pair_summary``'s, read off the measurements
    the records took."""
    chart = phi.chart
    _require_circles_fit(chart, "stored field: ")
    grid = _Grid(phi, psi, seed)
    report = _verify_grids(lambda n: grid, [chart.n], chart, seed, "stored_fields", "files")
    report["summary"] = grid.summary()
    return report


def pair_summary(phi, psi) -> dict:
    """The pair's interior action and energy, the sups of its Euler-Lagrange
    residuals and its field scale."""
    return _Grid(phi, psi).summary()


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
            series["second_order"] = bool(oka and oke and series["action"][0] > WINNER_FLOOR)
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
        improving = len(defects) < 2 or defects[1] <= defects[0] * IMPROVING_FACTOR or near_zero
        return defects[0] <= threshold["abs"] and improving, None, ""
    return max(defects) <= threshold.get("abs", threshold.get("rel")), None, ""


def _cauchy_riemann_dirac(field, chart) -> np.ndarray:
    """The Cauchy-Riemann form 2 (dg/dzbar, -df/dz) = (g_x + i g_y, i f_y - f_x)
    of ``flat_dirac`` on a spinor field (f, g), from the same stencils: the
    record's reference, written out apart from ``clifford_mul``."""
    dx, dy = chart.derivative(field, "x"), chart.derivative(field, "y")
    return np.stack([dx[..., 1] + 1j * dy[..., 1], 1j * dy[..., 0] - dx[..., 0]], axis=-1,
                    out=np.empty_like(field))


class _Grid:
    """One grid's pair under test, the run's seed and the measurements
    taken from the pair: ``take`` evaluates a function of the pair once and
    keeps the scalars it returns for every row that reads them."""

    def __init__(self, phi, psi, seed=None):
        self.phi, self.psi, self.seed = phi, psi, seed
        self.chart = phi.chart
        self._taken = {}

    def take(self, fn):
        if fn not in self._taken:
            self._taken[fn] = fn(self.phi, self.psi)
        return self._taken[fn]

    def rel(self, value) -> float:  # relative to the pair's field scale
        return value / self.take(field_scale)

    def summary(self) -> dict:
        el = self.take(_euler_lagrange)
        return {
            "action": el["action"],
            "energy": float(energy(self.phi, self.psi, region=self.chart.interior_mask)),
            "map_residual_sup": el["map_sup"],
            "spinor_residual_sup": el["spinor_sup"],
            "normal_defect_sup": el["normal_sup"],
            "field_scale": self.take(field_scale),
        }


def _twistor_family(g: _Grid) -> float:
    # Affine spinors are not periodic, so this check always runs on its
    # own windowed charts where the seam stays out of the sup.
    wchart = DomainChart.torus(g.chart.n, side=1.0, window=0.5)
    d = np.random.default_rng(g.seed + 2).normal(size=(4, 2))
    p0, p1 = d[0] + 1j * d[1], d[2] + 1j * d[3]
    return twistor_defect(twistor_field(wchart, p0, p1), wchart)


def _self_adjointness(grids, seed):
    """Worst defect over 20 random triples on the torus at SELF_ADJOINT_GRID."""
    worst = 0.0
    sa_chart = DomainChart.torus(SELF_ADJOINT_GRID, side=1.0)
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
    return [SELF_ADJOINT_GRID], [worst]


def _conformal(grids, seed):
    """Per convention, the action and energy defects of the canonical
    compact pair under two disk automorphisms, each the worse of the two,
    on max(64, n) and twice that."""
    listed = [max(64, grids[0]), 2 * max(64, grids[0])]
    autos = [MoebiusMap.disk_automorphism(a_par, theta=theta)
             for theta, a_par in ((0.0, 0.4), (0.7, 0.25 + 0.2j))]
    worst = [conformal_invariance_defect(*canonical_compact_pair(m, seed=seed), autos)
             for m in listed]
    return listed, {conv: {"action": [w[conv][0] for w in worst],
                           "energy": [w[conv][1] for w in worst]} for conv in _EXPONENTS}


def _frame_vs_cauchy_riemann(g: _Grid) -> float:
    chart, rng = g.chart, np.random.default_rng(g.seed + 1)
    fld = (bandlimited_field(chart, rng, components=(2,), kmax=2)
           + 1j * bandlimited_field(chart, rng, components=(2,), kmax=2))
    d1 = flat_dirac(fld, chart)
    d2 = _cauchy_riemann_dirac(fld, chart)
    sc = float(np.sqrt(spinor_norm2(d1)).max()) + 1e-30
    return float(np.sqrt(spinor_norm2(d1 - d2)).max()) / sc


# The measurements several rows share, each taken once per pair (_Grid.take).

def _euler_lagrange(phi, psi) -> dict:
    """The sups of the Euler-Lagrange residuals and the interior action,
    whose spinor term reads the residual's D psi."""
    res = el_residual(phi, psi)
    norms, dirac = res.norms, res.spinor_residual
    del res  # the map residual and the normal defect go before the action's products
    return {**norms, "action": float(action(phi, psi, region=phi.chart.interior_mask,
                                            dirac=dirac))}


def _pohozaev_defects(phi, psi) -> list[float]:
    return pohozaev_defect(phi, psi, POHOZAEV_RADII)


def _action_reduction(g: _Grid) -> float:
    a = g.take(_euler_lagrange)["action"]
    d = g.chart.integrate(dirichlet_density(g.phi), region=g.chart.interior_mask)
    return abs(a - d) / (1.0 + abs(a))


def _bochner_precondition(g: _Grid) -> str:
    """The note when D psi = 0 fails on this grid's pair; else ""."""
    sup, scale = g.take(_euler_lagrange)["spinor_sup"], g.take(field_scale)
    if sup > BOCHNER_DIRAC_TOL * scale:
        return (f"precondition failed: Dirac residual {sup:.3e} exceeds tolerance "
                f"{BOCHNER_DIRAC_TOL:.1e} x scale {scale:.3e}; the identity is only valid "
                "on solutions")
    return ""


class _Row(NamedTuple):
    id: str
    statement: str
    kind: str
    threshold: dict                   # names the rule, see _judge
    per_grid: Callable | None = None  # _Grid -> its defect, taken in that grid's pass
    pair_free: Callable | None = None  # (grids, seed) -> (its record's grids, its defects)
    scope: tuple = ()                 # scenario kinds or topologies that run it; () = all
    precondition: Callable | None = None  # _Grid -> failure note, "" when it holds


# The row functions look the identity functions up when they run, so
# wrappers installed on this module's globals see every call.
_UNCOND, _COND = "unconditional", "conditional"
_H2 = {"rel_h2": COND_BUDGET}
_ROWS = (
    _Row("clifford_relations", "v.w.s + w.v.s = -2<v,w>s on random inputs", _UNCOND,
         {"abs": 1e-12}, pair_free=_clifford_relations),
    _Row("clifford_skew_adjoint", "Re<v.s, t> = -Re<s, v.t> on random inputs", _UNCOND,
         {"abs": 1e-12}, pair_free=_clifford_skew_adjoint),
    _Row("dirac_frame_vs_cauchy_riemann", "frame form equals the Cauchy-Riemann form pointwise",
         _UNCOND, {"abs": 1e-13}, _frame_vs_cauchy_riemann),
    _Row("twistor_family", "affine twistor spinors annihilate the twistor operator", _UNCOND,
         {"abs": 1e-10}, _twistor_family),
    _Row("dirac_self_adjoint",
         "int (psi, D xi) = int (D psi, xi) on the torus, 20 random triples", _UNCOND,
         {"rel": 1e-11}, pair_free=_self_adjointness),
    _Row("weitzenboeck", "squared Dirac equals connection Laplacian plus curvature", _UNCOND,
         {"rel_h2": UNCOND_BUDGET}, lambda g: g.rel(weitzenboeck_defect(g.phi, g.psi))),
    _Row("map_equation", "tension balances the curvature coupling", _COND, _H2,
         lambda g: g.rel(g.take(_euler_lagrange)["map_sup"])),
    _Row("spinor_equation", "Dirac operator along the map annihilates the spinor", _COND, _H2,
         lambda g: g.rel(g.take(_euler_lagrange)["spinor_sup"])),
    _Row("normal_splitting",
         "normal part of the flat Dirac matches the second-fundamental term", _COND, _H2,
         lambda g: g.rel(g.take(_euler_lagrange)["normal_sup"])),
    _Row("em_symmetry", "energy-momentum tensor is symmetric", _COND, _H2,
         lambda g: g.rel(g.take(em_defects)[0])),
    _Row("em_divergence", "energy-momentum tensor is divergence-free", _COND, _H2,
         lambda g: g.rel(g.take(em_defects)[1])),
    _Row("hopf_holomorphic",
         "quadratic differential coefficient is anti-holomorphically closed", _COND, _H2,
         lambda g: g.rel(g.take(em_defects)[2])),
    _Row("bochner", "Laplacian of the spinor density balances gradient and curvature", _COND,
         _H2, lambda g: g.rel(bochner_defect(g.phi, g.psi)), precondition=_bochner_precondition),
    _Row("action_reduces_to_dirichlet", "the spinor term of the action vanishes on solutions",
         _COND, _H2, _action_reduction),
    _Row("pushforward_tangency", "pushforward spinors satisfy the tangency constraint", _COND,
         {"abs": 1e-10}, lambda g: tangency_defect(g.phi, g.psi),
         scope=_PUSHFORWARD_SCENARIOS),
    _Row("curvature_term_annihilation",
         "the curvature coupling vanishes pointwise on pushforward pairs", _COND,
         {"abs": 1e-10}, lambda g: g.rel(float(np.abs(curvature_term(g.phi, g.psi)).max())),
         scope=_PUSHFORWARD_SCENARIOS),
    *(_Row(f"pohozaev_r{r}", f"circle balance of radial and angular energies at r = {r}",
           _COND, {"abs": 1e-2, "improving": True},
           lambda g, i=i: g.take(_pohozaev_defects)[i], scope=("disk",))
      for i, r in enumerate(POHOZAEV_RADII)),
    _Row("conformal_invariance",
         "action and energy are invariant under disk automorphisms for exactly "
         "one rescaling convention", _UNCOND,
         {"ratio_window": list(RATIO_WINDOW), "unique_winner": True},
         pair_free=_conformal, scope=("disk",)),
)


def _verify_grids(grid_at, grids, chart, seed, scenario_kind, mode) -> dict:
    """The report: ``grid_at(n)`` gives grid n's ``_Grid``, whose pass takes
    every in-scope row's per-grid defect before the next grid is asked for,
    so no pair outlives its pass unless the caller holds it; then the rows
    that read no pair run, and every record is judged.  ``chart``, the
    first grid's, gives the spacing, side and topology."""
    rows = [row for row in _ROWS
            if not row.scope or {scenario_kind, chart.topology} & set(row.scope)]
    measured = {row.id: [] for row in rows if row.per_grid}  # row id -> defect per grid
    failures = {}  # row id -> the note of the first grid its precondition failed on
    for n in grids:
        grid = grid_at(n)
        for row in rows:  # in row order; a row whose precondition failed is skipped
            if row.per_grid is None or row.id in failures:
                continue
            failure = row.precondition(grid) if row.precondition else ""
            if failure:
                failures[row.id] = failure
            else:
                measured[row.id].append(row.per_grid(grid))
        del grid  # before grid 2n's pair is built
    records = []
    for row in rows:
        failure = failures.get(row.id, "")
        listed, defects = (row.pair_free(grids, seed) if row.pair_free
                           else (grids, [] if failure else measured[row.id]))
        passed, ratio, note = _judge(row.threshold, defects, chart.h)
        extra = {}
        if isinstance(defects, dict):   # per convention: list the first one's action
            extra["conventions"] = defects
            defects = next(iter(defects.values()))["action"]
        records.append({
            "id": row.id,
            "statement": row.statement,
            "kind": row.kind,
            "grids": list(listed),
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
        "chart": {"topology": chart.topology, "n": grids[0], "side": chart.side},
        "identities": records,
        "pass": all(r["pass"] for r in records),
        "mode": mode,
    }
