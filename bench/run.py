"""diracharmonic benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a diracharmonic checkout.  Each operation runs in a
fresh single-threaded Python process (bench/op.py), one after another (a
closed loop with one client), until S seconds have passed; at least one
operation always runs.  Every operation's output is checked
(bench/checks.py); an operation whose exit status or output is wrong
counts as failed.

--trace 0 reports the end-to-end metrics as medians over the run's
operations: wall_s (core entry point to result written), setup_s (process
start to inputs ready) and peak_rss_mb (the operation process's peak
resident set, from wait4).  --trace 1 alternates untraced and traced
operations and reports the per-layer metrics of bench/tracer.py, the
process counters of the untraced operations, and the tracing overhead.

Each operation's values, their spread and the environment are printed
before the last line and saved under .bench_out/; the last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# Set-up-only processes started before each untraced operation; their
# set-up times join the operations' in the setup_s median.
SETUP_SAMPLES_PER_OP = 2

# A run stops starting operations once it has used this much wall time, and
# kills an operation still running at the hard limit, so that one run always
# ends within 180 s.
START_BUDGET_S = 130.0
HARD_LIMIT_S = 170.0

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, how to read it from one traced operation).
_SELF = "self_s"
PER_LAYER = {
    "charts.bandlimited_field.calls": ("count", ("charts.bandlimited_field", "calls")),
    "charts.bandlimited_field.self_s": ("s", ("charts.bandlimited_field", _SELF)),
    "charts.derivative.calls": ("count", ("charts.derivative", "calls")),
    "charts.derivative.self_s": ("s", ("charts.derivative", _SELF)),
    "charts.laplacian.self_s": ("s", ("charts.laplacian", _SELF)),
    "charts.interp.self_s": ("s", ("charts.interp", _SELF)),
    "spinors.flat_dirac.calls": ("count", ("spinors.flat_dirac", "calls")),
    "spinors.flat_dirac.self_s": ("s", ("spinors.flat_dirac", _SELF)),
    "targets.project_point.self_s": ("s", ("targets.project_point", _SELF)),
    "fields.tangent_project.calls": ("count", ("fields.tangent_project", "calls")),
    "fields.tangent_project.self_s": ("s", ("fields.tangent_project", _SELF)),
    "fields.curvature_term.self_s": ("s", ("fields.curvature_term", _SELF)),
    "fields.tension.self_s": ("s", ("fields.tension", _SELF)),
    "fields.dirac_along_map.self_s": ("s", ("fields.dirac_along_map", _SELF)),
    "fields.el_residual.self_s": ("s", ("fields.el_residual", _SELF)),
    "identities.conformal_invariance_defect.self_s":
        ("s", ("identities.conformal_invariance_defect", _SELF)),
    "identities.self_adjointness_defect.self_s":
        ("s", ("identities.self_adjointness_defect", _SELF)),
    "identities.weitzenboeck_defect.self_s": ("s", ("identities.weitzenboeck_defect", _SELF)),
    "identities.pohozaev_defect.self_s": ("s", ("identities.pohozaev_defect", _SELF)),
    "identities.energy_momentum.self_s": ("s", ("identities.energy_momentum", _SELF)),
    "config.build_pair.self_s": ("s", ("config.build_pair", _SELF)),
    "solutions.conformal_map_field.self_s": ("s", ("solutions.conformal_map_field", _SELF)),
    "solutions.twistor_pushforward.self_s": ("s", ("solutions.twistor_pushforward", _SELF)),
    "solver.map_steps": ("count", ("solver.flow_step", "calls")),
    "solver.flow_step.self_s": ("s", ("solver.flow_step", _SELF)),
    "solver.dirac_project.calls": ("count", ("solver.dirac_project", "calls")),
    "solver.dirac_project.self_s": ("s", ("solver.dirac_project", _SELF)),
    "solver.measure_s": ("s", ("solver.measure", "total_s")),
    "verify.run_verification.self_s": ("s", ("verify.run_verification", _SELF)),
    "fieldio.write_field.self_s": ("s", ("fieldio.write_field", _SELF)),
    "cli.main.self_s": ("s", ("cli.main", _SELF)),
}
# Metrics not read from one span name (computed in _layer_metrics).
DERIVED = {
    "solver.cg_matvecs": "count",
    "verify.records": "count",
    "verify.records_failed": "count",
    "fieldio.write_field.bytes": "bytes",
    "proc.minflt": "count",
    "proc.user_cpu_s": "s",
    "proc.sys_cpu_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to an operation failing)."""


def _child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "DHM_THREADS")}
    env.update(PYTHONPATH=os.path.join(root, "src"), **THREAD_PINS)
    return env


def _environment(numpy_version: str | None) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version, **THREAD_PINS}


def _wait(proc, deadline):
    """wait4 the child; kill it at the deadline.  Returns (exit code, rusage)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage
        time.sleep(0.02)


class Harness:
    def __init__(self, root: str, workload: str, variant: int):
        self.root = root
        self.workload = workload
        self.variant = variant
        self.env = _child_env(root)
        self.workdir = os.path.join(root, ".bench_out", "work", workload)
        self.numpy_version = None

    def warm_up(self) -> None:
        """Import the package once, untimed, so the file cache is warm."""
        proc = subprocess.run([sys.executable, "-c", "import diracharmonic.cli"],
                              env=self.env, cwd=self.root, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"diracharmonic does not import from {self.root}/src:\n"
                             f"{proc.stderr.strip()}")

    def _spawn(self, flags: list[str], deadline: float) -> tuple:
        """Start op.py in a clean work directory and wait for it.

        Returns (start time, exit code or None if killed, rusage, result
        dict or None, log tail)."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        cfg = wl.config_text(self.workload, self.variant)
        if cfg is not None:
            with open(os.path.join(self.workdir, "run.cfg"), "w", encoding="utf-8") as fh:
                fh.write(cfg)
        cmd = [sys.executable, os.path.join(HERE, "op.py"), "--workload", self.workload,
               "--variant", str(self.variant), "--workdir", self.workdir, *flags]
        log_path = os.path.join(self.workdir, "op.log")
        with open(log_path, "w", encoding="utf-8") as log:
            t_start = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, stdout=log,
                                    stderr=subprocess.STDOUT)
            code, usage = _wait(proc, deadline)
        result = None
        if code == 0:
            try:
                with open(os.path.join(self.workdir, "result.json"), encoding="utf-8") as fh:
                    result = json.load(fh)
            except (OSError, ValueError):
                result = None
        if result is not None:
            expected_src = os.path.join(self.root, "src", "diracharmonic")
            if os.path.dirname(os.path.abspath(result["diracharmonic_file"])) != expected_src:
                raise BenchError(f"diracharmonic imported from {result['diracharmonic_file']}, "
                                 f"not from {expected_src}")
            self.numpy_version = result["numpy"]
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        return t_start, code, usage, result, tail

    def setup_sample(self, deadline: float) -> float | None:
        """One set-up time sample: a process that stops once its inputs are ready."""
        t_start, _code, _usage, result, _tail = self._spawn(["--setup-only"], deadline)
        return None if result is None else result["t_ready"] - t_start

    def operation(self, trace: bool, deadline: float, check: bool = True) -> dict:
        """Run one operation in a fresh process and check its output."""
        t_start, code, usage, result, tail = self._spawn(["--trace"] if trace else [], deadline)
        op = {"trace": trace, "exit_code": code, "minflt": usage.ru_minflt,
              "user_cpu_s": usage.ru_utime, "sys_cpu_s": usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if result is None:
            op["failures"] = [f"operation process ended with {code} and no result:\n{tail}"]
            return op
        op["setup_s"] = result["t_ready"] - t_start
        op["wall_s"] = result["t_done"] - result["t_ready"]
        op["outputs"] = result["outputs"]
        try:
            op["failures"] = self.check(result) if check else []
        except (KeyError, TypeError, ValueError) as exc:
            op["failures"] = [f"malformed output: {exc!r}"]
        if trace:
            with open(os.path.join(self.workdir, "trace.json"), encoding="utf-8") as fh:
                op["layers"] = self._layer_metrics(json.load(fh))
        return op

    def check(self, result: dict) -> list[str]:
        ref = checks.load_reference().get(self.workload, {}).get(str(self.variant))
        if self.workload == wl.VERIFY:
            return checks.check_verify(result["exit_code"], self.workdir, ref)
        if self.workload == wl.COUPLED:
            return checks.check_coupled(result["exit_code"], result["outputs"], ref)
        return checks.check_heat(result["exit_code"], self.workdir,
                                 wl.heat_residual_tol(self.variant))

    def _layer_metrics(self, dump: dict) -> dict:
        spans = tr.summarize(dump)
        out = {}
        for metric, (_unit, (name, field)) in PER_LAYER.items():
            out[metric] = spans.get(name, {}).get(field, 0)
        solver_dirac = spans.get(tr.SOLVER_FLAT_DIRAC, {}).get("calls", 0)
        out["solver.cg_matvecs"] = (solver_dirac - out["solver.dirac_project.calls"]) / 2
        out["fieldio.write_field.bytes"] = dump["bytes_written"]
        records = []
        if self.workload == wl.VERIFY:
            with open(os.path.join(self.workdir, "verify_report.json"), encoding="utf-8") as fh:
                records = json.load(fh)["identities"]
        out["verify.records"] = len(records)
        out["verify.records_failed"] = sum(1 for r in records if not r["pass"])
        return out


def _summary(values):
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "iqr_over_median": (q3 - q1) / med if med else 0.0, "n": len(values)}


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diracharmonic", "__init__.py")):
        raise BenchError(f"no diracharmonic sources under {root}/src; run from the "
                         "root of a checkout")
    # The heat check reads field files back with the package's own reader.
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, os.path.join(root, "src"))
    harness = Harness(root, args.workload, wl.variant_of(args.seed))
    harness.warm_up()
    t0 = time.monotonic()
    ops = []
    setups = []
    durations = []
    while True:
        trace = args.trace == 1 and len(ops) % 2 == 1
        if args.trace == 0:
            for _ in range(SETUP_SAMPLES_PER_OP):
                sample = harness.setup_sample(deadline=t0 + HARD_LIMIT_S)
                if sample is not None:
                    setups.append(sample)
        t_op = time.monotonic()
        ops.append(harness.operation(trace, deadline=t0 + HARD_LIMIT_S))
        durations.append(time.monotonic() - t_op)
        elapsed = time.monotonic() - t0
        # Start another operation only if it would end nearer the run
        # length than stopping now does.
        typical = statistics.median(durations)
        more = elapsed + typical / 2 < args.seconds or (args.trace == 1 and len(ops) < 2)
        if not more or elapsed + max(durations) > START_BUDGET_S:
            break

    for i, op in enumerate(ops):
        vals = " ".join(f"{k}={op[k]:.6g}" for k in
                        ("wall_s", "setup_s", "peak_rss_mb", "minflt", "user_cpu_s",
                         "sys_cpu_s") if k in op)
        status = "ok" if not op["failures"] else "FAILED"
        print(f"op {i} {'traced' if op['trace'] else 'untraced'} {status} {vals}")
        for msg in op["failures"]:
            print(f"  check failed: {msg}")

    failed = sum(1 for op in ops if op["failures"])
    timed = [op for op in ops if "wall_s" in op]
    plain = [op for op in timed if not op["trace"]]
    traced = [op for op in timed if op["trace"]]
    spread = {}
    metrics = {}
    if args.trace == 0 and plain:
        # Set-up samples come from the operations and the set-up-only runs.
        samples = {"wall_s": [op["wall_s"] for op in plain],
                   "setup_s": setups + [op["setup_s"] for op in plain],
                   "peak_rss_mb": [op["peak_rss_mb"] for op in plain]}
        for name, unit in END_TO_END.items():
            spread[name] = _summary(samples[name])
            metrics[name] = {"value": spread[name]["median"], "unit": unit}
    elif plain and traced:
        units = {**{m: u for m, (u, _) in PER_LAYER.items()}, **DERIVED}
        for name in traced[0]["layers"]:
            metrics[name] = {"value": statistics.median(op["layers"][name] for op in traced),
                             "unit": units[name]}
        for name in ("minflt", "user_cpu_s", "sys_cpu_s"):
            spread[name] = _summary([op[name] for op in plain])
            metrics[f"proc.{name}"] = {"value": spread[name]["median"],
                                       "unit": units[f"proc.{name}"]}
        spread["wall_s"] = _summary([op["wall_s"] for op in plain])
        spread["traced_wall_s"] = _summary([op["wall_s"] for op in traced])
        metrics["trace.overhead_s"] = {
            "value": spread["traced_wall_s"]["median"] - spread["wall_s"]["median"],
            "unit": "s"}
        metrics = dict(sorted(metrics.items()))
    for name, s in spread.items():
        print(f"spread {name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"min {s['min']:.6g} max {s['max']:.6g} (iqr/median {s['iqr_over_median']:.3%}, "
              f"n={s['n']})")
    env = _environment(harness.numpy_version)
    print("environment: " + json.dumps(env, sort_keys=True))

    record = {"workload": args.workload, "seed": args.seed, "variant": harness.variant,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "operations": ops, "spread": spread, "metrics": metrics}
    out_dir = os.path.join(root, ".bench_out")
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0 and bool(metrics), "attempted": len(ops),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="diracharmonic benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
