import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.config import build_chart, build_pair, build_solver_config

FULL = """
# full configuration exercise
[chart]
topology = disk
n = 32
side = 2.4

[scenario]
kind = twistor_pushforward
rational_num = 0,1
rational_den = 1
psi0 = 1,0
psi1 = 0.2,-0.1j

[solver]
max_iters = 50
residual_tol = 1e-3
power_iters = 2

[output]
out_dir = /tmp/somewhere
seed = 99
"""


def test_full_config_parses_and_builds():
    # The retired twistor map_scale and a restated [target] are rejected
    # naming their line; without them the config builds.
    with pytest.raises(dh.ConfigError, match="^line 12: scenario.map_scale is only read for "
                                             "elliptic_pair$"):
        dh.parse_config(FULL.replace("psi0", "map_scale = 1.5\npsi0"))
    with pytest.raises(dh.ConfigError, match="^line 9: target.kind is only read for "
                                             "constant_spinor$"):
        dh.parse_config(FULL.replace("[scenario]", "[target]\nkind = sphere\n\n[scenario]"))
    cfg = dh.parse_config(FULL)
    chart = build_chart(cfg)
    assert chart.topology == "disk" and chart.n == 32 and chart.side == 2.4
    solver = build_solver_config(cfg)
    assert solver.max_iters == 50 and solver.seed == 99
    phi, psi = build_pair(cfg)
    assert phi.target.kind == "sphere" and phi.values.shape == (32, 32, 3)
    assert dh.tangency_defect(phi, psi) < 1e-10


def test_defaults_give_torus_twistor_scenario():
    cfg = dh.parse_config("")
    phi, psi = build_pair(cfg)
    assert phi.chart.topology == "torus"
    assert phi.values.shape == (64, 64, 3)


def test_unknown_section_line_number():
    with pytest.raises(dh.ConfigError, match="line 2"):
        dh.parse_config("\n[nonsense]\n")


def test_unknown_key_line_number():
    with pytest.raises(dh.ConfigError, match="line 3: unknown key 'colour'"):
        dh.parse_config("\n[chart]\ncolour = blue\n")


@pytest.mark.parametrize("key, value", [("dt", "1e-5"), ("spinor_norm_target", "2.5"),
                                        ("cg_tol", "1e-8"), ("cg_max_iters", "50")])
def test_retired_solver_keys_rejected(key, value):
    with pytest.raises(dh.ConfigError, match=f"line 4: unknown key '{key}' in \\[solver\\]"):
        dh.parse_config(f"[solver]\nmax_iters = 10\n\n{key} = {value}\n")


def test_solver_defaults_come_from_solver_config():
    assert build_solver_config(dh.parse_config("")) == dh.SolverConfig(seed=1234)


def test_entry_before_section():
    with pytest.raises(dh.ConfigError, match="before any"):
        dh.parse_config("n = 12\n")


def test_malformed_line():
    with pytest.raises(dh.ConfigError, match="line 2"):
        dh.parse_config("[chart]\nthis is not an assignment\n")


def test_bad_topology_rejected():
    with pytest.raises(dh.ConfigError, match="topology"):
        dh.parse_config("[chart]\ntopology = klein\n")


def test_bad_numbers_rejected():
    with pytest.raises(dh.ConfigError, match="not an integer"):
        dh.parse_config("[chart]\nn = few\n")
    cfg = dh.parse_config("[scenario]\nkind = twistor_pushforward\npsi0 = pear\n")
    with pytest.raises(dh.ConfigError, match="complex"):
        build_pair(cfg)


def test_out_of_range_grid():
    with pytest.raises(dh.ConfigError, match="outside"):
        dh.parse_config("[chart]\nn = 6\n")


def test_unknown_scenario_rejected():
    with pytest.raises(dh.ConfigError, match="scenario.kind"):
        dh.parse_config("[scenario]\nkind = vortex\n")


@pytest.mark.parametrize("kind", ["twistor_pushforward", "elliptic_pair",
                                  "harmonic_wrap", "constant_spinor",
                                  "perturbed_constant"])
def test_every_scenario_builds(kind):
    cfg = dh.parse_config(f"[chart]\nn = 16\n\n[scenario]\nkind = {kind}\n")
    phi, psi = build_pair(cfg)
    assert (phi.target.kind, phi.target.ambient_dim) == ("sphere", 3)
    assert np.isfinite(phi.values).all()
    assert np.isfinite(psi.values).all()


def test_n_override():
    cfg = dh.parse_config("[chart]\nn = 16\n")
    phi, _ = build_pair(cfg, n_override=24)
    assert phi.chart.n == 24


def test_comments_and_blank_lines_ignored():
    cfg = dh.parse_config("# top\n\n[chart]\nn = 16  # inline\n")
    assert cfg.chart["n"] == "16"


@pytest.mark.parametrize("kind", ["twistor_pushforward", "elliptic_pair",
                                  "harmonic_wrap", "perturbed_constant"])
def test_sphere_scenarios_reject_target(kind):
    # Only constant_spinor reads [target]; the others map into S^2.
    for key, value in (("kind", "sphere"), ("dim", "2")):
        with pytest.raises(dh.ConfigError, match=f"^line 5: target.{key} is only read for "
                                                 "constant_spinor$"):
            dh.parse_config(f"[chart]\nn = 16\n\n[target]\n{key} = {value}\n\n"
                            f"[scenario]\nkind = {kind}\n")


def test_key_of_another_scenario_rejected():
    with pytest.raises(dh.ConfigError, match="line 3: scenario.winding is only read for "
                                             "harmonic_wrap"):
        dh.parse_config("[scenario]\nkind = twistor_pushforward\nwinding = 2\n")


# (scenario, row with {v} where the value goes, whether the row is complex)
SCENARIO_ROWS = [("twistor_pushforward", "psi0 = {v},0", True),
                 ("twistor_pushforward", "psi1 = 0,{v}", True),
                 ("twistor_pushforward", "rational_num = 0,{v}", True),
                 ("twistor_pushforward", "rational_den = {v}", True),
                 ("elliptic_pair", "map_scale = {v}", True),
                 ("perturbed_constant", "amplitude = {v}", False),
                 ("perturbed_constant", "base_point = 0,{v},1", False),
                 ("constant_spinor", "base_point = {v},0,1", False),
                 ("constant_spinor", "spinor_direction = 1,{v},0", False),
                 ("constant_spinor", "spinor_components = {v},0", True)]


@pytest.mark.parametrize("kind,row,value", [
    (kind, row, value) for kind, row, is_complex in SCENARIO_ROWS
    for value in ("nan", "inf", "-inf") + (("nanj", "1+infj") if is_complex else ())])
def test_non_finite_numbers_rejected_naming_the_line(kind, row, value):
    cfg = dh.parse_config(f"[chart]\nn = 16\n\n[scenario]\nkind = {kind}\n"
                          + row.format(v=value) + "\n")
    with pytest.raises(dh.ConfigError, match=r"^line 6: scenario\.\w+: not a finite number"):
        build_pair(cfg)


@pytest.mark.parametrize("row,message", [
    ("map_scale = {v}", "scenario.map_scale is only read for elliptic_pair"),
    ("map_center = {v}", "unknown key 'map_center' in \\[scenario\\]")])
@pytest.mark.parametrize("value", ["1.5", "nan", "inf", "-inf", "nanj", "1+infj"])
def test_retired_twistor_rows_rejected_naming_the_line(row, message, value):
    # A rational map of s (z - c) is another rational map, so rational_num
    # and rational_den are the twistor map's one setter.
    with pytest.raises(dh.ConfigError, match=f"^line 6: {message}$"):
        dh.parse_config(f"[chart]\nn = 16\n\n[scenario]\nkind = twistor_pushforward\n"
                        + row.format(v=value) + "\n")


def test_integer_beyond_the_float_range_rejected():
    # A winding of 10^400 is an integer, but 2 pi winding / side has no float.
    cfg = dh.parse_config("[scenario]\nkind = harmonic_wrap\nwinding = 1" + "0" * 400 + "\n")
    with pytest.raises(dh.ConfigError, match="^line 3: scenario.winding: not a finite number"):
        build_pair(cfg)
    with pytest.raises(dh.ConfigError, match="^line 2: output.seed: not a finite number"):
        dh.parse_config("[output]\nseed = " + "9" * 400 + "\n")


# (config text with {v} where the bounded value goes, its top value)
BOUNDED = [
    pytest.param("[chart]\nn = 8\n\n[target]\ndim = {v}\n\n[scenario]\nkind = constant_spinor\n"
                 "base_point = 1{z},0\nspinor_direction = 0,1{z}\n", 16, id="target_dim"),
    pytest.param("[chart]\nn = 8\n\n[scenario]\nkind = perturbed_constant\nmodes = {v}\n", 32,
                 id="modes"),
]


@pytest.mark.parametrize("text,top", BOUNDED)
def test_dimension_and_modes_are_bounded(text, top):
    # The top value builds (S^16 takes 17 ambient components); above it is rejected.
    zeros = ",0" * (top - 1)
    assert build_pair(dh.parse_config(text.format(v=top, z=zeros)))[0].chart.n == 8
    for bad in (top + 1, 999999999999):
        with pytest.raises(dh.ConfigError, match=f"outside \\[1, {top}\\]"):
            build_pair(dh.parse_config(text.format(v=bad, z=zeros)))


def test_pair_with_a_non_finite_value_rejected_naming_the_scenario():
    # A finite spinor amplitude whose pushforward overflows: psi0 * dphi.
    cfg = dh.parse_config("[chart]\nn = 16\n\n[scenario]\nkind = twistor_pushforward\n"
                          "psi0 = 1e308,0\n")
    with pytest.raises(dh.ConfigError, match="^line 5: scenario twistor_pushforward: the pair "
                                             "has a non-finite value"):
        build_pair(cfg)
