"""Command-line surface: exact | verify | flow | probe | dump.

Exit codes: 0 success, 1 usage or configuration error (argparse's
included, and a pair ``check_pair`` rejects), 2 verification failed, 3
solver divergence.  Outputs are deterministic for a fixed config and
seed; reports embed the package version and a hash of the config text
instead of timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, RunConfig, build_pair, build_solver_config,
                     load_config, parse_config)
from .fieldio import FieldFileError, read_field, read_header, write_field
from .fields import (InadmissiblePair, MapField, TwistedSpinorField, action, check_pair,
                     el_residual, energy, field_scale)
from .identities import decay_profile
from .solver import solve
from .verify import run_verification, run_verification_on_fields

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_VERIFY_FAILED = 2
_EXIT_DIVERGED = 3


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _load(args) -> RunConfig:
    """The config file (or an empty one); ``--out``, when given, is its output.out_dir."""
    cfg = load_config(args.config) if args.config else parse_config("")
    if args.out is not None:
        cfg.output["out_dir"] = args.out
    return cfg


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.get("output", "out_dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_fields(phi_path, psi_path):
    """Stored map and spinor, a zero spinor when no spinor file is given,
    as a pair ``check_pair`` admits."""
    phi = read_field(phi_path)
    if not isinstance(phi, MapField):
        raise FieldFileError("not_a_map", f"{phi_path}: --phi needs a map file, not a spinor")
    if psi_path:
        psi = read_field(psi_path, chart=phi.chart, target=phi.target)
        if not isinstance(psi, TwistedSpinorField):
            raise FieldFileError("not_a_spinor", f"{psi_path}: --psi needs a spinor file, "
                                 "not a map")
    else:
        psi = TwistedSpinorField.zero(phi.chart, phi.target)
    try:
        check_pair(phi, psi)
    except InadmissiblePair as exc:
        raise FieldFileError(exc.code, f"{phi_path}, {psi_path or 'zero spinor'}: {exc}") from None
    return phi, psi


def _summary(phi, psi) -> dict:
    res = el_residual(phi, psi)
    return {
        "action": float(action(phi, psi, region=phi.chart.interior_mask)),
        "energy": float(energy(phi, psi, region=phi.chart.interior_mask)),
        "map_residual_sup": res.norms["map_sup"],
        "spinor_residual_sup": res.norms["spinor_sup"],
        "normal_defect_sup": res.norms["normal_sup"],
        "field_scale": field_scale(phi, psi),
    }


def cmd_exact(cfg: RunConfig) -> int:
    phi, psi = build_pair(cfg)
    summary = _summary(phi, psi)  # before any file, which a failed summary leaves unwritten
    out = _outdir(cfg)
    write_field(out / "phi.dhm", phi)
    write_field(out / "psi.dhm", psi)
    report = {
        "package_version": __version__,
        "config_sha256": cfg.sha256(),
        "scenario": cfg.get("scenario", "kind"),
        "grid": phi.chart.n,
        "summary": summary,
    }
    _json_dump(report, out / "exact_summary.json")
    print(f"wrote {out / 'phi.dhm'}, {out / 'psi.dhm'}, {out / 'exact_summary.json'}")
    return _EXIT_OK


def cmd_verify(cfg: RunConfig, sweep: bool, phi_path=None, psi_path=None) -> int:
    if phi_path is not None:
        # File mode: the suite on the stored fields' one grid.  The fields
        # set the chart and the pair, so of a config only [output] is read.
        for name in cfg.line_of:
            section, key = name.split(".")
            if section != "output":
                raise ConfigError(f"{cfg.where(section, key)}{name} is not read by verify "
                                  "with --phi")
        phi, psi = _read_fields(phi_path, psi_path)
        report = run_verification_on_fields(phi, psi, seed=cfg.get("output", "seed"))
        report["summary"] = _summary(phi, psi)
    else:
        report = run_verification(cfg, sweep=sweep)
    out = _outdir(cfg)
    _json_dump(report, out / "verify_report.json")
    for rec in report["identities"]:
        status = "pass" if rec["pass"] else "FAIL"
        print(f"[{status}] {rec['id']}: {rec['statement']}")
    print(f"wrote {out / 'verify_report.json'}")
    return _EXIT_OK if report["pass"] else _EXIT_VERIFY_FAILED


def cmd_flow(cfg: RunConfig) -> int:
    phi0, psi0 = build_pair(cfg)
    solver_cfg = build_solver_config(cfg)
    out = _outdir(cfg)
    try:
        phi, psi, rep = solve(phi0, psi0, solver_cfg)
    except FloatingPointError as exc:  # a kernel refresh broke down: no fields to write
        print(f"solver diverged: {exc}", file=sys.stderr)
        return _EXIT_DIVERGED
    trace_path = out / "flow_trace.csv"
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("iteration,action,energy,map_residual_sup,spinor_residual_sup,kernel_ratio\n")
        for row in rep.rows():
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    write_field(out / "phi_final.dhm", phi)
    write_field(out / "psi_final.dhm", psi)
    summary = {
        "package_version": __version__,
        "config_sha256": cfg.sha256(),
        "termination": rep.termination,
        "iterations": rep.iterations[-1],
        "initial_combined_residual": rep.map_residual_trace[0] + rep.spinor_residual_trace[0],
        "final_combined_residual": rep.map_residual_trace[-1] + rep.spinor_residual_trace[-1],
    }
    if rep.cg_iterations:  # absent when the spinor is frozen at zero: no kernel solve ran
        summary["cg_iterations"] = rep.cg_iterations
        summary["cg_unconverged"] = rep.cg_unconverged
    _json_dump(summary, out / "flow_summary.json")
    print(f"wrote {trace_path}, {out / 'phi_final.dhm'}, {out / 'psi_final.dhm'}, "
          f"{out / 'flow_summary.json'}")
    return _EXIT_DIVERGED if rep.termination == "diverged" else _EXIT_OK


def cmd_probe(cfg: RunConfig, phi_path, psi_path) -> int:
    out = _outdir(cfg)
    phi, psi = _read_fields(phi_path, psi_path)
    try:
        prof = decay_profile(phi, psi)
    except ValueError as exc:  # not a disk, or too coarse for the default radii
        raise ConfigError(f"stored field: {exc}") from None
    path = out / "probe.csv"
    cols = ["r", "dphi_weighted", "psi_weighted", "grad_psi_weighted",
            "annulus_energy", "growth"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(len(prof["r"])):
            fh.write(",".join(f"{prof[c][i]:.17g}" for c in cols) + "\n")
    print(f"wrote {path}")
    return _EXIT_OK


def cmd_dump(path) -> int:
    # Judge the whole file first: a rejected file prints nothing.
    vals = read_field(path).values
    print(json.dumps(dataclasses.asdict(read_header(path)), sort_keys=True, indent=2))
    print(f"max |value| = {float(np.abs(vals).max()):.6g}")
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dhm",
                                 description="coupled map/spinor field toolkit")
    ap.add_argument("--version", action="version", version=f"dhm {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", type=str, default=None, required=needs_config,
                       help="path to a key = value config file")
        p.add_argument("--out", type=str, default=None, help="output directory")

    common(sub.add_parser("exact", help="write an exact pair and its summary"))
    pv = sub.add_parser("verify", help="run the identity suite")
    common(pv, needs_config=False)
    pv.add_argument("--resolution-sweep", action="store_true",
                    help="add a third grid at 4n to the suite")
    pv.add_argument("--phi", type=str, default=None, help="verify stored field files")
    pv.add_argument("--psi", type=str, default=None)
    common(sub.add_parser("flow", help="relax from the configured start"))
    pp = sub.add_parser("probe", help="decay/growth diagnostics from field files")
    pp.add_argument("--phi", type=str, required=True)
    pp.add_argument("--psi", type=str, default=None)
    pp.add_argument("--out", type=str, default=None, help="output directory")
    pp.set_defaults(config=None)
    pd = sub.add_parser("dump", help="print a field file header")
    pd.add_argument("path", type=str)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help/--version and 2 on a usage error
        return _EXIT_USAGE if exc.code == 2 else exc.code
    try:
        if args.command == "dump":
            return cmd_dump(args.path)
        if args.command == "verify":
            if args.config is None and args.phi is None:
                print("verify needs --config or --phi", file=sys.stderr)
                return _EXIT_USAGE
            # A flag the chosen mode does not read is an error, as an unread config key is.
            files = args.phi is not None
            if args.resolution_sweep if files else args.psi is not None:
                flag, mode = ("--resolution-sweep", "with") if files else ("--psi", "without")
                print(f"verify {flag} is not read {mode} --phi", file=sys.stderr)
                return _EXIT_USAGE
        cfg = _load(args)
        if args.command == "probe":
            return cmd_probe(cfg, args.phi, args.psi)
        if args.command == "exact":
            return cmd_exact(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, sweep=args.resolution_sweep,
                              phi_path=args.phi, psi_path=args.psi)
        if args.command == "flow":
            return cmd_flow(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except FieldFileError as exc:
        print(f"field file error [{exc.code}]: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:  # a directory, an existing file or no permission where a path goes
        print(f"file error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
