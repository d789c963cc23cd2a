import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.cli import _read_fields

BASE_CFG = """
[chart]
topology = torus
n = 32
side = 1.0
window = 0.5

[scenario]
kind = twistor_pushforward
rational_num = 0,1
psi0 = 1,0
psi1 = 0.2,-0.1j

[output]
out_dir = {out}
seed = 7
"""

DISK_CFG = """
[chart]
topology = disk
n = 48

[scenario]
kind = twistor_pushforward
rational_num = 0,1
psi0 = 1,0
psi1 = 0.2,-0.1j

[output]
out_dir = {out}
seed = 7
"""

FLOW_CFG = """
[chart]
topology = torus
n = 32

[scenario]
kind = perturbed_constant
amplitude = 0.05
modes = 2,3

[solver]
max_iters = 150
residual_tol = 1e-8
reproject_every = 50
power_iters = 2
trace_every = 25

[output]
out_dir = {out}
seed = 11
"""


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "diracharmonic.cli", *args],
                          capture_output=True, text=True)


def write_cfg(tmp_path, template, name="run.cfg"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(template.format(out=out))
    return path, out


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_exact_writes_fields_and_summary(tmp_path):
    cfg, out = write_cfg(tmp_path, BASE_CFG)
    r = run_cli("exact", "--config", str(cfg))
    assert r.returncode == 0, r.stderr
    summary = json.loads((out / "exact_summary.json").read_text())
    assert summary["summary"]["map_residual_sup"] < 1e-2
    assert (out / "phi.dhm").exists() and (out / "psi.dhm").exists()


def test_exact_round_trip_is_bit_identical(tmp_path):
    cfg, out = write_cfg(tmp_path, BASE_CFG)
    assert run_cli("exact", "--config", str(cfg)).returncode == 0
    h1 = sha(out / "phi.dhm"), sha(out / "psi.dhm")
    assert run_cli("exact", "--config", str(cfg)).returncode == 0
    assert (sha(out / "phi.dhm"), sha(out / "psi.dhm")) == h1


def test_invalid_config_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[chart]\nn = twelve\n")
    r = run_cli("exact", "--config", str(path))
    assert r.returncode == 1
    assert "line 2" in r.stderr and "chart.n" in r.stderr


def test_verify_passes_on_solution_scenario(tmp_path):
    cfg, out = write_cfg(tmp_path, BASE_CFG)
    r = run_cli("verify", "--config", str(cfg))
    assert r.returncode == 0, r.stdout + r.stderr
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["pass"] is True
    ids = {rec["id"] for rec in rep["identities"]}
    assert {"clifford_relations", "dirac_self_adjoint", "weitzenboeck",
            "em_divergence", "hopf_holomorphic"} <= ids


def test_verify_fails_on_non_solution_but_unconditional_hold(tmp_path):
    cfg, out = write_cfg(tmp_path, FLOW_CFG)
    r = run_cli("verify", "--config", str(cfg))
    assert r.returncode == 2
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["pass"] is False
    for rec in rep["identities"]:
        if rec["kind"] == "unconditional":
            assert rec["pass"], rec["id"]
    failed = {rec["id"] for rec in rep["identities"] if not rec["pass"]}
    assert "em_divergence" in failed or "map_equation" in failed


def test_verify_reports_are_byte_identical(tmp_path):
    cfg, out = write_cfg(tmp_path, BASE_CFG)
    assert run_cli("verify", "--config", str(cfg)).returncode == 0
    h1 = sha(out / "verify_report.json")
    assert run_cli("verify", "--config", str(cfg)).returncode == 0
    assert sha(out / "verify_report.json") == h1


def test_flow_trace_and_determinism(tmp_path):
    cfg, out = write_cfg(tmp_path, FLOW_CFG)
    r = run_cli("flow", "--config", str(cfg))
    assert r.returncode == 0, r.stderr
    trace = (out / "flow_trace.csv").read_text().splitlines()
    assert trace[0].startswith("iteration,action,energy")
    assert len(trace) > 3
    h1 = sha(out / "flow_trace.csv"), sha(out / "phi_final.dhm")
    assert run_cli("flow", "--config", str(cfg)).returncode == 0
    assert (sha(out / "flow_trace.csv"), sha(out / "phi_final.dhm")) == h1


def test_flow_summary_reports_cg_counts(tmp_path):
    cfg, out = write_cfg(tmp_path, BASE_CFG + "\n[solver]\nmax_iters = 60\nresidual_tol = 0\n"
                                              "reproject_every = 30\npower_iters = 2\n")
    assert run_cli("flow", "--config", str(cfg)).returncode == 0
    summary = json.loads((out / "flow_summary.json").read_text())
    assert len(summary["cg_iterations"]) == 3      # initial extraction + 2 refreshes
    assert all(0 < its <= 2 * 600 for its in summary["cg_iterations"])
    assert summary["cg_unconverged"] == 0

    cfg, out = write_cfg(tmp_path, FLOW_CFG, name="heat.cfg")
    assert run_cli("flow", "--config", str(cfg)).returncode == 0
    summary = json.loads((out / "flow_summary.json").read_text())
    assert "cg_iterations" not in summary and "cg_unconverged" not in summary


def test_probe_emits_monotone_growth(tmp_path):
    cfg, out = write_cfg(tmp_path, DISK_CFG)
    assert run_cli("exact", "--config", str(cfg)).returncode == 0
    r = run_cli("probe", "--phi", str(out / "phi.dhm"), "--psi", str(out / "psi.dhm"),
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = [line.split(",") for line in (out / "probe.csv").read_text().splitlines()[1:]]
    growth = [float(r[-1]) for r in rows]
    assert all(b >= a - 1e-13 for a, b in zip(growth, growth[1:]))


@pytest.mark.parametrize("n", [12, 16])
def test_probe_on_too_coarse_disk_is_a_config_error(tmp_path, n):
    """At n <= 11 side the default decay radii 6h .. 1 - 5h do not increase:
    at n = 12 the first circle leaves the chart square, at n = 16 the radii
    descend past 1 - 4h."""
    cfg, out = write_cfg(tmp_path, DISK_CFG.replace("n = 48", f"n = {n}"))
    assert run_cli("exact", "--config", str(cfg)).returncode == 0
    r = run_cli("probe", "--phi", str(out / "phi.dhm"), "--psi", str(out / "psi.dhm"),
                "--out", str(out))
    assert r.returncode == 1, r.stdout + r.stderr
    assert r.stderr.startswith(f"config error: stored field: chart.n = {n} "), r.stderr
    assert "n >= 25" in r.stderr and "Traceback" not in r.stderr
    assert not (out / "probe.csv").exists()


def test_probe_at_n_32_writes_increasing_radii_inside_the_interior(tmp_path):
    cfg, out = write_cfg(tmp_path, DISK_CFG.replace("n = 48", "n = 32"))
    assert run_cli("exact", "--config", str(cfg)).returncode == 0
    r = run_cli("probe", "--phi", str(out / "phi.dhm"), "--psi", str(out / "psi.dhm"),
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    radii = [float(line.split(",")[0])
             for line in (out / "probe.csv").read_text().splitlines()[1:]]
    assert len(radii) == 24
    assert all(b > a for a, b in zip(radii, radii[1:]))
    assert radii[-1] <= 1.0 - 4.0 * 2.2 / 32


def test_probe_requires_disk(tmp_path):
    cfg, out = write_cfg(tmp_path, BASE_CFG)
    assert run_cli("exact", "--config", str(cfg)).returncode == 0
    r = run_cli("probe", "--phi", str(out / "phi.dhm"), "--out", str(out))
    assert r.returncode == 1


def test_dump_prints_header(tmp_path):
    cfg, out = write_cfg(tmp_path, BASE_CFG)
    assert run_cli("exact", "--config", str(cfg)).returncode == 0
    r = run_cli("dump", str(out / "phi.dhm"))
    assert r.returncode == 0
    assert '"kind": "map"' in r.stdout


def test_dump_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.dhm"
    bad.write_bytes(b"NOPE" + b"\0" * 64)
    r = run_cli("dump", str(bad))
    assert r.returncode == 1
    assert "bad_magic" in r.stderr


def test_dump_of_a_corrupt_payload_prints_nothing(bad_field_files, tmp_path):
    # The header is valid; only the checksum over the payload catches the
    # flipped byte, so dump must judge the whole file before printing.
    blob = bytearray((bad_field_files / "phi.dhm").read_bytes())
    blob[-1] ^= 0xFF
    bad = tmp_path / "flipped.dhm"
    bad.write_bytes(bytes(blob))
    r = run_cli("dump", str(bad))
    assert r.returncode == 1
    assert r.stderr.startswith("field file error [bad_checksum]: "), r.stderr
    assert r.stdout == ""
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["exact", "verify", "flow"])
@pytest.mark.parametrize("flag", ["--grid", "--seed"])
def test_retired_override_flags_exit_1_naming_themselves(tmp_path, command, flag):
    """chart.n and output.seed have one setter, the config file."""
    cfg, out = write_cfg(tmp_path, FLOW_CFG)
    r = run_cli(command, "--config", str(cfg), flag, "32" if flag == "--grid" else "3")
    assert r.returncode == 1, r.stdout + r.stderr
    assert flag in r.stderr and "Traceback" not in r.stderr, r.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    pytest.param(["verify", "--bogus"], id="unknown_flag"),
    pytest.param([], id="no_command"),
    pytest.param(["flow", "--config"], id="config_without_value"),
])
def test_argparse_usage_errors_exit_1_not_the_verify_failed_code(args):
    r = run_cli(*args)
    assert r.returncode == 1, r.stdout + r.stderr
    assert "usage: dhm" in r.stderr and "Traceback" not in r.stderr, r.stderr


@pytest.mark.parametrize("args", [["--version"], ["verify", "--help"]])
def test_version_and_help_exit_0(args):
    r = run_cli(*args)
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout


def test_verify_requires_config_or_files():
    r = run_cli("verify")
    assert r.returncode == 1


def test_verify_resolution_sweep_adds_third_grid(tmp_path):
    cfg, out = write_cfg(tmp_path, BASE_CFG.replace("n = 32", "n = 16"))
    r = run_cli("verify", "--config", str(cfg), "--resolution-sweep")
    assert r.returncode in (0, 2)
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["grids"] == [16, 32, 64]


def test_verify_file_mode_runs_identity_suite(tmp_path):
    cfg, out = write_cfg(tmp_path, DISK_CFG)
    assert run_cli("exact", "--config", str(cfg)).returncode == 0
    r = run_cli("verify", "--phi", str(out / "phi.dhm"), "--psi", str(out / "psi.dhm"),
                "--out", str(out))
    assert r.returncode == 0, r.stdout + r.stderr
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["mode"] == "files"
    assert rep["grids"] == [48]
    ids = {rec["id"] for rec in rep["identities"]}
    assert "em_divergence" in ids and "pohozaev_r0.5" in ids
    for rec in rep["identities"]:
        assert rec["refinement_ratio"] is None or rec["id"] == "conformal_invariance"


SMALL_DISK = "[chart]\ntopology = disk\nn = 32\n\n[scenario]\nkind = twistor_pushforward\n"


@pytest.mark.parametrize("text,where", [
    pytest.param(SMALL_DISK, "line 3", id="config_n_32"),
])
def test_verify_on_too_coarse_disk_is_a_config_error(tmp_path, text, where):
    path = tmp_path / "small.cfg"
    path.write_text(text)
    r = run_cli("verify", "--config", str(path), "--out", str(tmp_path / "out"))
    assert r.returncode == 1, r.stdout + r.stderr
    assert r.stderr.startswith(f"config error: {where}: chart.n = "), r.stderr
    assert "n >= 36" in r.stderr and "Traceback" not in r.stderr


def test_file_mode_verify_of_too_coarse_disk_field_is_a_config_error(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_DISK)
    out = tmp_path / "out"
    assert run_cli("exact", "--config", str(path), "--out", str(out)).returncode == 0
    r = run_cli("verify", "--phi", str(out / "phi.dhm"), "--psi", str(out / "psi.dhm"),
                "--out", str(out))
    assert r.returncode == 1, r.stdout + r.stderr
    assert r.stderr.startswith("config error: stored field: chart.n = 32 "), r.stderr
    assert "n >= 36" in r.stderr and "Traceback" not in r.stderr
    assert not (out / "verify_report.json").exists()


PERTURBED = "[chart]\nn = 16\n\n[scenario]\nkind = perturbed_constant\n"

# (config text, command and flags, where the error must point, then
# optionally ": " and the message's start); each of these used to end in a
# traceback, a numpy message, or be accepted and silently ignored.
BAD_INPUTS = [
    pytest.param("[chart]\nwindow = 2\n", ["exact"], "line 2", id="window_2"),
    pytest.param("[chart]\nside = -1\n", ["exact"], "line 2", id="side_negative"),
    pytest.param("[target]\ndim = 0\n", ["exact"], "line 2", id="target_dim_0"),
    pytest.param(PERTURBED + "modes = a,b\n", ["exact"], "line 6", id="modes_not_ints"),
    pytest.param(PERTURBED + "base_point = x,y\n", ["exact"], "line 6", id="base_point_text"),
    pytest.param(PERTURBED + "\n[output]\nseed = -3\n", ["exact"], "line 8",
                 id="seed_negative"),
    pytest.param(PERTURBED + "\n[solver]\ndt = 1\n", ["flow"], "line 8", id="dt_above_bound"),
    pytest.param("[chart]\ntopology = disk\n\n[scenario]\nkind = elliptic_pair\n", ["exact"],
                 "line 5", id="elliptic_on_disk"),
    pytest.param(PERTURBED + "\n[solver]\ntrace_every = 0\n", ["flow"], "line 8",
                 id="trace_every_0"),
    pytest.param("[chart]\nn = 16\n\n[solver]\nreproject_every = 0\n", ["flow"], "line 5",
                 id="reproject_every_0"),
    pytest.param("[target]\nkind = flat\ndim = 3\n", ["exact"], "line 2",
                 id="flat_target_on_twistor"),
    pytest.param("[target]\ndim = 3\n\n[scenario]\nkind = harmonic_wrap\n", ["exact"],
                 "line 2", id="target_dim_on_wrap"),
    pytest.param("[chart]\ntopology = disk\nwindow = 0.5\n", ["exact"], "line 3",
                 id="window_on_disk"),
    pytest.param("[chart]\ntopology = disk\nn = 10\n", ["exact"], "line 3",
                 id="disk_interior_empty"),
    pytest.param("[chart]\nn = 9\nwindow = 0.001\n", ["flow"], "line 2",
                 id="window_interior_empty"),
    pytest.param(PERTURBED + "base_point = 0,1\n", ["exact"], "line 5: scenario "
                 "perturbed_constant: base point needs 3 components, got 2\n",
                 id="base_point_2_on_perturbed"),
    pytest.param(PERTURBED + "base_point = 0,0,0,1\n", ["flow"], "line 5: scenario "
                 "perturbed_constant: base point needs 3 components, got 4\n",
                 id="base_point_4_on_perturbed_flow"),
    pytest.param("[target]\ndim = 1\n\n[scenario]\nkind = constant_spinor\n", ["exact"],
                 "line 5: scenario constant_spinor: base point needs 2 components, got 3\n",
                 id="base_point_3_on_circle"),
]


@pytest.mark.parametrize("text,command,where", BAD_INPUTS)
def test_bad_config_exits_1_naming_the_line(tmp_path, text, command, where):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    r = run_cli(command[0], "--config", str(path), "--out", str(tmp_path / "out"), *command[1:])
    assert r.returncode == 1, r.stdout + r.stderr
    line, _, message = where.partition(": ")
    assert r.stderr.startswith(f"config error: {line}: {message}"), r.stderr
    assert "Traceback" not in r.stderr


# Inputs that once ended in a traceback or in numpy warnings deep in the
# numerics: (config text, command, exit code, what stderr must name).  A
# side of 1e300 overflowed h^2 and one of 1e-300 underflowed it to zero; a
# spinor amplitude whose |psi|^4 overflows once broke the first kernel solve
# down, ended verify in a failed report, or let exact write an infinite
# energy.  Now check_pair rejects that pair where build_pair makes it.  The
# coupled flow runs at both ends of the side range.
_HUGE_PSI1 = "[chart]\nn = 24\n\n[scenario]\nkind = twistor_pushforward\npsi1 = {},1\n"
NUMERIC_EXTREMES = [
    pytest.param("[chart]\nside = 1e300\n", "verify", 1, "config error: line 2: chart.side",
                 id="side_1e300_verify"),
    pytest.param("[chart]\nn = 16\nside = 1e-300\n", "flow", 1,
                 "config error: line 3: chart.side", id="side_1e-300_flow"),
    *(pytest.param(_HUGE_PSI1.format(amplitude), command, 1,
                   "config error: line 5: scenario twistor_pushforward: the pair's energy "
                   "overflows", id=f"psi1_{amplitude}_{command}")
      for amplitude, command in (("1e300", "flow"), ("1e300", "exact"), ("1e300", "verify"),
                                 ("1e100", "exact"), ("1e160", "verify"))),
    *(pytest.param(f"[chart]\nn = 16\nside = {side}\n\n[solver]\nmax_iters = 50\n", "flow", 0, "",
                   id=f"side_{side}_flow") for side in ("1e-30", "1e30")),
]


# The flows CI runs, each followed by verify on the field files it writes:
# the heat flow's pair (zero spinor) passes; the coupled flow stops at
# max_iters short of a solution and fails.
FLOW_THEN_VERIFY = [
    pytest.param(PERTURBED + "\n[solver]\nmax_iters = 200\n", 0, id="heat"),
    pytest.param("[chart]\nn = 16\n\n[scenario]\nkind = twistor_pushforward\n\n[solver]\n"
                 "max_iters = 100\n", 2, id="coupled"),
]


@pytest.mark.parametrize("text,code", FLOW_THEN_VERIFY)
def test_flow_fields_verify_with_their_exit_code(tmp_path, text, code):
    path = tmp_path / "flow.cfg"
    path.write_text(text)
    flow = tmp_path / "flow"
    r = run_cli("flow", "--config", str(path), "--out", str(flow))
    assert r.returncode == 0, r.stderr
    r = run_cli("verify", "--phi", str(flow / "phi_final.dhm"), "--psi", str(flow / "psi_final.dhm"),
                "--out", str(tmp_path / "verify"))
    assert r.returncode == code, r.stdout + r.stderr
    assert "Traceback" not in r.stderr, r.stderr


def test_flow_from_a_tiny_constant_spinor_refines_it_like_its_unscaled_self(tmp_path):
    # 2^-50 times the unit components: a power-of-two scale, exact throughout.
    spinors = []
    for components in ("1,0", repr(2.0**-50) + ",0"):
        path = tmp_path / "constant.cfg"
        path.write_text("[chart]\nn = 16\n\n[scenario]\nkind = constant_spinor\n"
                        f"spinor_components = {components}\n")
        out = tmp_path / components
        assert run_cli("flow", "--config", str(path), "--out", str(out)).returncode == 0
        spinors.append(sha(out / "psi_final.dhm"))
    assert spinors[0] == spinors[1]


@pytest.mark.parametrize("text,command,code,named", NUMERIC_EXTREMES)
def test_numeric_extremes_exit_with_their_code_and_no_traceback(tmp_path, text, command,
                                                                 code, named):
    path = tmp_path / "extreme.cfg"
    path.write_text(text)
    r = run_cli(command, "--config", str(path), "--out", str(tmp_path / "out"))
    assert r.returncode == code, r.stdout + r.stderr
    assert named in r.stderr and "Traceback" not in r.stderr, r.stderr
    assert "RuntimeWarning" not in r.stderr, r.stderr
    if code == 1:  # rejected before any output
        assert r.stderr.count("\n") == 1 and not (tmp_path / "out").exists(), r.stderr


def test_flat_pair_read_back_keeps_one_target(tmp_path):
    text = ("[chart]\nn = 16\n\n[target]\nkind = flat\ndim = 3\n\n"
            "[scenario]\nkind = constant_spinor\nbase_point = 0.3,2,-1\n")
    path = tmp_path / "flat.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    r = run_cli("exact", "--config", str(path), "--out", str(out))
    assert r.returncode == 0, r.stderr
    phi, psi = _read_fields(out / "phi.dhm", out / "psi.dhm")
    assert isinstance(phi.target, dh.Flat)
    assert (psi.target.kind, psi.target.ambient_dim) == (phi.target.kind, phi.target.ambient_dim)


@pytest.fixture(scope="module")
def bad_field_files(tmp_path_factory):
    """A disk pair's files plus a K = 4 flat map, a non-tangent spinor and
    the pair's spinor times 1e100 and 1e300, whose |psi|^4 and |psi|^2
    overflow, on the same chart."""
    out = tmp_path_factory.mktemp("fields")
    phi, psi = dh.build_pair(dh.parse_config(DISK_CFG.format(out=out)))
    chart = phi.chart
    files = {"phi": phi, "psi": psi,
             "flat4": dh.MapField.constant(chart, dh.Flat(4), (0.0, 0.0, 0.0, 1.0)),
             "not_tangent": dh.TwistedSpinorField(chart, phi.target,
                                                  np.ones(chart.shape + (3, 2))),
             "huge100": dh.TwistedSpinorField(chart, phi.target, psi.values * 1e100),
             "huge": dh.TwistedSpinorField(chart, phi.target, psi.values * 1e300)}
    for name, field in files.items():
        dh.write_field(out / f"{name}.dhm", field)
    return out


@pytest.mark.parametrize("command", ["verify", "probe"])
@pytest.mark.parametrize("phi,psi,code", [
    pytest.param("psi", None, "not_a_map", id="spinor_as_phi"),
    pytest.param("phi", "phi", "not_a_spinor", id="map_as_psi"),
    pytest.param("flat4", "psi", "dim_mismatch", id="psi_of_other_K"),
    pytest.param("phi", "not_tangent", "not_tangent", id="non_tangent_psi"),
    pytest.param("phi", "huge", "bad_values", id="overflowing_psi"),
    pytest.param("phi", "huge100", "bad_values", id="overflowing_psi_energy"),
])
def test_bad_field_inputs_are_named_errors(bad_field_files, tmp_path, command, phi, psi, code):
    args = [command, "--phi", str(bad_field_files / f"{phi}.dhm"), "--out", str(tmp_path)]
    if psi:
        args += ["--psi", str(bad_field_files / f"{psi}.dhm")]
    r = run_cli(*args)
    assert r.returncode == 1, r.stdout + r.stderr
    assert r.stderr.startswith(f"field file error [{code}]: "), r.stderr
    assert "Traceback" not in r.stderr and "RuntimeWarning" not in r.stderr, r.stderr


# Paths the CLI cannot read or write; each used to end in a traceback.
BAD_PATHS = [
    pytest.param(["dump", "{dir}"], "{dir}", id="dump_a_directory"),
    pytest.param(["verify", "--phi", "{dir}"], "{dir}", id="phi_a_directory"),
    pytest.param(["verify", "--config", "{dir}"], "{dir}", id="config_a_directory"),
    pytest.param(["exact", "--config", "{cfg}", "--out", "{file}"], "{file}", id="out_a_file"),
    pytest.param(["exact", "--config", "{cfg}", "--out", "{file}/sub"], "{file}/sub",
                 id="out_under_a_file"),
    pytest.param(["exact", "--config", "{latin1}"], "{latin1}", id="config_not_utf8"),
]


@pytest.mark.parametrize("args,named", BAD_PATHS)
def test_unusable_path_exits_1_naming_it(tmp_path, args, named):
    paths = {"dir": tmp_path / "adir", "cfg": tmp_path / "ok.cfg",
             "file": tmp_path / "afile", "latin1": tmp_path / "latin1.cfg"}
    paths["dir"].mkdir()
    paths["cfg"].write_text(PERTURBED)
    paths["file"].write_text("")
    paths["latin1"].write_bytes("[chart]\n# côté\nn = 16\n".encode("latin-1"))
    r = run_cli(*(a.format(**paths) for a in args))
    assert r.returncode == 1, r.stdout + r.stderr
    assert named.format(**paths) in r.stderr and "Traceback" not in r.stderr, r.stderr


@pytest.mark.parametrize("extra,flag", [
    pytest.param(["--config", "{cfg}", "--psi", "{psi}"], "--psi", id="psi_without_phi"),
    pytest.param(["--phi", "{phi}", "--psi", "{psi}", "--resolution-sweep"],
                 "--resolution-sweep", id="sweep_with_phi"),
])
def test_verify_rejects_flags_its_mode_ignores(bad_field_files, tmp_path, extra, flag):
    paths = {"cfg": tmp_path / "ok.cfg", "phi": bad_field_files / "phi.dhm",
             "psi": bad_field_files / "psi.dhm"}
    paths["cfg"].write_text(PERTURBED)
    out = tmp_path / "out"
    r = run_cli("verify", *(a.format(**paths) for a in extra), "--out", str(out))
    assert r.returncode == 1, r.stdout + r.stderr
    assert flag in r.stderr and "Traceback" not in r.stderr, r.stderr
    assert not out.exists()


@pytest.mark.parametrize("text,error", [
    pytest.param("[chart]\nn = 999\n", "line 2: chart.n", id="chart_n"),
    pytest.param("[chart]\nside = 7\n", "line 2: chart.side", id="chart_side"),
    pytest.param("[output]\nseed = 3\n\n[solver]\nmax_iters = 10\n", "line 5: solver.max_iters",
                 id="solver_section"),
    pytest.param("[output]\nseed = 3\n", None, id="output_only"),
])
def test_file_mode_verify_rejects_config_keys_it_does_not_read(bad_field_files, tmp_path,
                                                                text, error):
    cfg = tmp_path / "file_mode.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    r = run_cli("verify", "--phi", str(bad_field_files / "phi.dhm"),
                "--psi", str(bad_field_files / "psi.dhm"), "--config", str(cfg), "--out", str(out))
    if error is None:
        assert r.returncode == 0, r.stdout + r.stderr
        assert json.loads((out / "verify_report.json").read_text())["seed"] == 3
        return
    assert r.returncode == 1, r.stdout + r.stderr
    assert r.stderr.startswith(f"config error: {error} is not read by verify with --phi"), r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()
