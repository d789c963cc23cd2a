"""Seeded input fuzzer over the command line.

Config texts are drawn from the rows of ``config.KEYS`` with a table of
edge values (NaN, +-inf, 1e+-300, 1e100, signed zeros, huge integers),
and field files are written from exact pairs and then mutated in their
header or payload, with the payload CRC recomputed so that the deeper
checks are reached.  Each draw runs through ``cli.main``, in process, and
must end in exit 0, 1, 2 or 3 with no exception escaping it; a draw that
exits 0 must have written JSON with finite numbers only.

Grids stay small (n <= 24 on the torus, n <= 36 on the disk), and the two
iteration counts a run does by request, ``solver.max_iters`` and
``solver.power_iters``, are drawn from small values, so the whole draw
fits in seconds.  The named regression cases at the end run the console
entry point in a subprocess and read its stderr.
"""

import json
import random
import struct
import subprocess
import sys
import traceback
import zlib
from functools import partial

import numpy as np
import pytest

from diracharmonic import cli
from diracharmonic.config import KEYS
from diracharmonic.fieldio import _HEADER

SEED = 0
CONFIG_DRAWS = 250
FILE_DRAWS = 100
ROW_RATE = 0.15

HUGE_INT = "9" * 400
INT_EDGES = ("0", "-1", "1", "2", "3", "7", "999999999999", "-999999999999", HUGE_INT)
# 1e100 is a finite amplitude whose |psi|^4 overflows.
FLOAT_EDGES = ("nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "0", "-0", "1", "-1",
               "0.5", "2.5", "1e30", "1e-30", "999999999999", "1e100")
COMPLEX_EDGES = FLOAT_EDGES + ("1e300j", "nanj", "inf+1j", "1+1e300j", "-0j", "0.2-0.1j")
SCALARS = {"int": INT_EDGES, "float": FLOAT_EDGES, "complex": COMPLEX_EDGES}
KINDS = ("twistor_pushforward", "elliptic_pair", "harmonic_wrap", "constant_spinor",
         "perturbed_constant")
# Iteration counts a run performs by request: drawn small, so the draw stays fast.
SMALL_COUNTS = {"max_iters": ("0", "1", "5", "20"), "power_iters": ("1", "2", "3")}
EXIT_CODES = (0, 1, 2, 3)


def _value(rng, key):
    """A value for ``key``'s row: mostly of its type, sometimes any edge."""
    if key.name in SMALL_COUNTS and key.section == "solver":
        return rng.choice(SMALL_COUNTS[key.name])
    if " | " in key.type:
        words = key.type.split(" | ")
        return rng.choice(words + ["", "none", "nan"])
    if key.type == "text":
        return rng.choice(["runs", ""])
    scalar, _, is_list = key.type.partition(" ")
    pool = SCALARS[scalar] if rng.random() < 0.8 else COMPLEX_EDGES + INT_EDGES
    count = (key.size or rng.randint(1, 4)) if is_list else 1
    if is_list and rng.random() < 0.1:
        count += rng.choice((-1, 1))
    return ",".join(rng.choice(pool) for _ in range(max(count, 0)))


def _config(rng):
    """A config text: a scenario on a small chart with some rows at edge values."""
    kind = rng.choice(KINDS)
    topology = "torus" if kind == "elliptic_pair" else rng.choice(("torus", "disk"))
    n = rng.randint(8, 24 if topology == "torus" else 36)
    scope = {topology, kind}
    entries = {("chart", "topology"): topology, ("chart", "n"): str(n),
               ("scenario", "kind"): kind, ("solver", "max_iters"): "20"}
    for key in KEYS:
        if key.readers and not scope & set(key.readers):
            continue
        if (key.section, key.name) in (("chart", "topology"), ("scenario", "kind")):
            continue
        if key.section == "chart" and key.name == "n":
            continue
        if rng.random() < ROW_RATE:
            entries[(key.section, key.name)] = _value(rng, key)
    sections = {}
    for (section, name), value in entries.items():
        sections.setdefault(section, []).append(f"{name} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n\n" for s, lines in sections.items())


def _finite_only(constant):
    raise ValueError(f"{constant} in a JSON output")


def _run(args, capsys, out):
    """None, or what is wrong with ``cli.main(args)``: the traceback of what
    escaped it, an exit code outside EXIT_CODES, or, after exit 0, a JSON
    file under ``out`` holding NaN or Infinity."""
    try:
        code = cli.main(args)
    except (Exception, SystemExit):  # anything escaping main is the finding
        capsys.readouterr()
        return traceback.format_exc()
    err = capsys.readouterr().err
    if code not in EXIT_CODES or "Traceback" in err:
        return f"exit {code}\n{err}"
    for path in sorted(out.glob("*.json")) if code == 0 else ():
        try:
            json.loads(path.read_text(), parse_constant=_finite_only)
        except ValueError as exc:
            return f"exit 0 wrote {path.name}: {exc}"
    return None


def test_config_draws_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(SEED)
    failures = []
    for i in range(CONFIG_DRAWS):
        text = _config(rng)
        command = rng.choice(("exact", "verify", "flow"))
        path = tmp_path / f"draw{i}.cfg"
        path.write_text(text)
        out = tmp_path / f"out{i}"
        with np.errstate(all="ignore"):
            found = _run([command, "--config", str(path), "--out", str(out)], capsys, out)
        if found:
            failures.append(f"draw {i}: dhm {command}\n{text}{found}")
    assert not failures, "\n\n".join(failures[:5]) + f"\n\n{len(failures)} failing draws"


# -- field files -------------------------------------------------------------------

SOURCES = (
    "[chart]\ntopology = disk\nn = 28\n\n[scenario]\nkind = twistor_pushforward\n",
    "[chart]\nn = 16\n\n[scenario]\nkind = elliptic_pair\n",
    "[chart]\nn = 12\n\n[target]\nkind = flat\ndim = 1\n\n[scenario]\nkind = constant_spinor\n"
    "base_point = 0.5\nspinor_direction = 1\n",
    "[chart]\nn = 12\n\n[target]\ndim = 3\n\n[scenario]\nkind = constant_spinor\n"
    "base_point = 0,0,0,1\nspinor_direction = 1,0,0,0\n",
)
# Header slots: magic, version, topology, kind, K, n, side, window, target, layout,
# payload bytes, CRC.
HEADER_EDGES = {
    1: (0, 1, 3, 2**32 - 1),
    2: (0, 1, 2, 255),
    3: (0, 1, 2, 255),
    4: (0, 1, 2, 3, 4, 6, 65535),
    5: (0, 7, 8, 9, 12, 16, 2**32 - 1),
    6: (float("nan"), float("inf"), -1.0, 0.0, 1e300, 1e-300, 1e-30, 1e30, 2.0, 2.2, 1.0),
    7: (float("nan"), float("inf"), -1.0, 0.0, 1e-300, 1e-3, 0.5, 1.0, 1.5),
    8: (0, 1, 2, 255),
    9: (b"map:f64le", b"spin:f64le:rifg", b"", b"\xff" * 16),
    10: (0, 8, 2**64 - 1),
}
PAYLOAD_EDGES = (float("nan"), float("inf"), -float("inf"), 1e300, -0.0, 0.0, 2.0, 1e-300)


def _parts(blob):
    return list(_HEADER.unpack(blob[:_HEADER.size])), bytearray(blob[_HEADER.size:])


def _pack(head, raw):
    head[-1] = zlib.crc32(raw)
    return _HEADER.pack(*head) + bytes(raw)


def _mutate(rng, blob):
    """One mutation of a valid field file, its CRC recomputed; the payload
    is resized to the header when the draw asks for a consistent file."""
    head, raw = _parts(blob)
    what = rng.choice(("header", "header", "consistent", "payload"))
    if what == "payload":
        for _ in range(rng.randint(1, 3)):
            struct.pack_into("<d", raw, 8 * rng.randrange(len(raw) // 8),
                             rng.choice(PAYLOAD_EDGES))
    else:
        slot = rng.choice((4, 5, 3) if what == "consistent" else tuple(HEADER_EDGES))
        head[slot] = rng.choice(HEADER_EDGES[slot])
        if slot == 9:
            head[slot] = head[slot].ljust(16, b"\0")
        if what == "consistent":
            # Match the payload length to the header, as far as that stays small.
            width = 16 if head[3] == 1 else 8
            size = head[4] * head[5] ** 2 * width
            if size <= 1 << 22:
                raw = (raw * (size // max(len(raw), 1) + 1))[:size]
                head[10] = size
    return _pack(head, raw)


@pytest.fixture(scope="module")
def exact_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_exact")
    pairs = []
    for i, text in enumerate(SOURCES):
        cfg = root / f"src{i}.cfg"
        cfg.write_text(text)
        assert cli.main(["exact", "--config", str(cfg), "--out", str(root / f"src{i}")]) == 0
        pairs.append(((root / f"src{i}" / "phi.dhm").read_bytes(),
                      (root / f"src{i}" / "psi.dhm").read_bytes()))
    return pairs


def test_field_file_draws_end_in_an_exit_code(exact_files, tmp_path, capsys):
    rng = random.Random(SEED)
    failures = []
    for i in range(FILE_DRAWS):
        phi, psi = rng.choice(exact_files)
        which = rng.choice(("phi", "psi"))
        blobs = {"phi": phi, "psi": psi}
        blobs[which] = _mutate(rng, blobs[which])
        paths = {}
        for name, blob in blobs.items():
            paths[name] = tmp_path / f"draw{i}_{name}.dhm"
            paths[name].write_bytes(blob)
        out = tmp_path / f"out{i}"
        command = rng.choice(("dump", "verify", "verify_phi_only", "probe"))
        args = {"dump": ["dump", str(paths[which])],
                "verify": ["verify", "--phi", str(paths["phi"]), "--psi", str(paths["psi"]),
                           "--out", str(out)],
                "verify_phi_only": ["verify", "--phi", str(paths[which]), "--out", str(out)],
                "probe": ["probe", "--phi", str(paths["phi"]), "--psi", str(paths["psi"]),
                          "--out", str(out)]}[command]
        with np.errstate(all="ignore"):
            found = _run(args, capsys, out)
        if found:
            failures.append(f"draw {i}: {' '.join(args[:2])} ({which} mutated, header "
                            f"{_parts(blobs[which])[0]})\n{found}")
    assert not failures, "\n\n".join(failures[:5]) + f"\n\n{len(failures)} failing draws"


# -- named regression cases ---------------------------------------------------------

def _edited_map(tmp_path, edit):
    """The exact disk map file at n = 48, fine enough for verify to pass
    on it, with its payload changed in place by ``edit`` under a
    recomputed CRC."""
    cfg = tmp_path / "disk.cfg"
    cfg.write_text("[chart]\ntopology = disk\nn = 48\n\n[scenario]\nkind = twistor_pushforward\n")
    assert cli.main(["exact", "--config", str(cfg), "--out", str(tmp_path / "exact")]) == 0
    head, raw = _parts((tmp_path / "exact" / "phi.dhm").read_bytes())
    edit(raw)
    path = tmp_path / "edited_phi.dhm"
    path.write_bytes(_pack(head, raw))
    return path


def _nan_value(raw):
    struct.pack_into("<d", raw, 8 * 100, float("nan"))


def _scaled_off_the_sphere(raw, factor=1.0 + 2e-9):
    """Every value times ``factor``: at 1 + 2e-9, |phi|^2 - 1 = 4e-9, 40
    times ON_MANIFOLD_TOL."""
    vals = np.frombuffer(raw, dtype="<f8") * factor
    raw[:] = vals.astype("<f8").tobytes()


# (config text, or a payload edit of the exact disk map file for verify
# --phi, command, what stderr must name).
REGRESSIONS = [
    pytest.param("[chart]\nn = 16\n\n[scenario]\nkind = perturbed_constant\n"
                 "base_point = nan,0,1\n", "exact", "line 6: scenario.base_point",
                 id="nan_base_point"),
    pytest.param("[chart]\nn = 16\n\n[scenario]\nkind = twistor_pushforward\n"
                 "rational_den = 1e300,1\n", "exact", "scenario twistor_pushforward",
                 id="rational_den_1e300"),
    # Exited 0 with "energy": Infinity in exact_summary.json.
    pytest.param("[chart]\nn = 16\n\n[scenario]\nkind = twistor_pushforward\n"
                 "psi1 = 1e100,1\n", "exact", "scenario twistor_pushforward: the pair's energy",
                 id="psi1_1e100"),
    pytest.param("[chart]\nn = 16\n\n[target]\nkind = sphere\ndim = 999999999999\n\n"
                 "[scenario]\nkind = constant_spinor\n", "exact", "line 6: target.dim",
                 id="target_dim_huge"),
    pytest.param(_nan_value, "verify", "bad_values", id="nan_payload_map"),
    # Exited 0: read_field built the map with its on-target check off.
    pytest.param(_scaled_off_the_sphere, "verify", "[off_target]", id="off_target_map"),
    # Exited 2: a map 2e-6 off S^2 was read as a flat R^3 map, which has no
    # target to be off, and failed the equations instead.
    pytest.param(partial(_scaled_off_the_sphere, factor=1.0 + 1e-6), "verify", "[off_target]",
                 id="off_target_map_1e-6"),
]


@pytest.mark.parametrize("text,command,named", REGRESSIONS)
def test_regressions_exit_1_naming_the_error(tmp_path, text, command, named):
    if callable(text):
        args = ["--phi", str(_edited_map(tmp_path, text))]
    else:
        (tmp_path / "case.cfg").write_text(text)
        args = ["--config", str(tmp_path / "case.cfg")]
    r = subprocess.run([sys.executable, "-m", "diracharmonic.cli", command, *args,
                        "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert r.returncode == 1, r.stdout + r.stderr
    assert named in r.stderr and "Traceback" not in r.stderr, r.stderr
    assert "RuntimeWarning" not in r.stderr, r.stderr
    assert r.stderr.startswith(("config error: ", "field file error ")), r.stderr
