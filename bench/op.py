"""One benchmark operation in a fresh process.

    python3 bench/op.py --workload NAME --variant V --workdir DIR [--trace] [--setup-only]

The harness starts this program with diracharmonic's ``src`` on PYTHONPATH
and the BLAS thread counts pinned to 1.  Set-up (interpreter start,
imports, config parsing and, for the flows, the initial map) ends when the
workload's core entry point is called: ``run_verification`` or ``solve``.
The operation ends when the CLI returns (report and field files written)
or, for the library flow, when ``solve`` returns.

Writes DIR/result.json with the monotonic timestamps and the outputs the
harness checks; with --trace also DIR/trace.json, the spans recorded by
bench/tracer.py.  The CLI's own output files land in DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402


class _SetupDone(Exception):
    """Raised at the core entry point when only set-up is measured."""


def _mark_entry(module, attr, marks, setup_only):
    """Record the monotonic time at which module.attr is first entered."""
    inner = getattr(module, attr)

    def marked(*args, **kwargs):
        marks.setdefault("t_ready", time.monotonic())
        if setup_only:
            raise _SetupDone
        return inner(*args, **kwargs)

    setattr(module, attr, marked)


def _coupled_initial_map(variant):
    """The acceptance-09 initial map, moved by the variant's symmetry."""
    import numpy as np
    from diracharmonic import charts, fields, targets

    p = wl.COUPLED_PERTURBATION
    chart = charts.DomainChart.torus(wl.COUPLED_N, side=1.0)
    sphere = targets.Sphere(2)
    rng = np.random.default_rng(p["rng_seed"])
    vals = np.zeros(chart.shape + (3,))
    vals[..., 2] = 1.0
    vals = vals + charts.bandlimited_field(chart, rng, components=(3,), kmax=p["kmax"],
                                           amplitude=p["amplitude"], modes=p["modes"])
    if variant:
        vrng = np.random.default_rng([variant])
        q, r = np.linalg.qr(vrng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = tuple(int(s) for s in vrng.integers(0, wl.COUPLED_N, size=2))
        vals = np.roll(vals, shift, axis=(0, 1)) @ q.T
    return fields.MapField(chart, sphere, sphere.project_point(vals))


def _coupled_outputs(phi, psi, rep):
    import numpy as np
    from diracharmonic import fields

    return {
        "termination": rep.termination,
        "iterations": rep.iterations[-1],
        "energy": rep.energy_trace[-1],
        "kernel_ratio": rep.kernel_ratio_trace[-1],
        "combined_residual": rep.map_residual_trace[-1] + rep.spinor_residual_trace[-1],
        "sphere_defect": float(np.abs((phi.values ** 2).sum(axis=-1) - 1.0).max()),
        "tangency_defect": fields.tangency_defect(phi, psi),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--variant", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop when the inputs are ready (a set-up time sample)")
    args = ap.parse_args(argv)

    import numpy as np
    import diracharmonic
    import diracharmonic.cli as cli
    import diracharmonic.solver as solver

    tracer = None
    if args.trace:
        import tracer as tr
        tracer = tr.Tracer()
        tr.install(tracer)

    marks = {}
    outputs = {}
    exit_code = 0
    if args.workload == wl.COUPLED:
        phi0 = _coupled_initial_map(args.variant)
        cfg = solver.SolverConfig(**wl.COUPLED_SOLVER)
        marks["t_ready"] = time.monotonic()
        if not args.setup_only:
            phi, psi, rep = solver.solve(phi0, None, cfg)
    else:
        _mark_entry(cli, "run_verification" if args.workload == wl.VERIFY else "solve", marks,
                    args.setup_only)
        command = "verify" if args.workload == wl.VERIFY else "flow"
        try:
            exit_code = cli.main([command, "--config", os.path.join(args.workdir, "run.cfg"),
                                  "--out", args.workdir])
        except _SetupDone:
            pass
    marks["t_done"] = time.monotonic()

    if tracer is not None:
        tracer.dump(os.path.join(args.workdir, "trace.json"))
    if args.workload == wl.COUPLED and not args.setup_only:
        outputs = _coupled_outputs(phi, psi, rep)
    result = {
        "t_ready": marks["t_ready"],
        "t_done": marks["t_done"],
        "exit_code": exit_code,
        "outputs": outputs,
        "diracharmonic_file": diracharmonic.__file__,
        "numpy": np.__version__,
    }
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
