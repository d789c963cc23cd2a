import json
import struct
import zlib

import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.fieldio import _HEADER

from conftest import elliptic_pair, torus_deg1_pair


def test_map_round_trip_bit_identical(tmp_path):
    _, phi, _ = elliptic_pair(32)
    path = tmp_path / "phi.dhm"
    dh.write_field(path, phi)
    again = dh.read_field(path)
    assert np.array_equal(again.values, phi.values)
    assert again.chart.n == 32
    assert again.chart.topology == "torus"
    assert again.target.kind == "sphere"
    dh.write_field(tmp_path / "copy.dhm", again)
    assert (tmp_path / "copy.dhm").read_bytes() == path.read_bytes()


def test_spinor_round_trip(tmp_path):
    _, phi, psi = elliptic_pair(32)
    path = tmp_path / "psi.dhm"
    dh.write_field(path, psi)
    again = dh.read_field(path)
    assert np.array_equal(again.values, psi.values)


def test_spinor_round_trip_keeps_every_bit(tmp_path):
    # Signed zeros in either part survive: the payload is the values' bytes.
    chart = dh.DomainChart.torus(8)
    vals = np.zeros(chart.shape + (1, 2), dtype=complex)
    vals.real[::2] = -0.0
    vals.imag[:, ::2] = -1.0
    vals.imag[1::2, 1::2] = -0.0
    psi = dh.TwistedSpinorField(chart, dh.Flat(1), vals)
    dh.write_field(tmp_path / "psi.dhm", psi)
    again = dh.read_field(tmp_path / "psi.dhm")
    assert again.values.tobytes() == psi.values.tobytes()


def test_header_fields(tmp_path):
    chart = dh.DomainChart.disk(48, side=2.4)
    phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
    path = tmp_path / "d.dhm"
    dh.write_field(path, phi)
    hd = dh.read_header(path)
    assert (hd.topology, hd.kind, hd.ambient_dim, hd.n) == ("disk", "map", 3, 48)
    assert hd.side == 2.4
    assert (hd.version, hd.window, hd.target) == (2, None, "sphere")
    assert hd.payload_bytes == 48 * 48 * 3 * 8
    assert _HEADER.size == 61 and len(path.read_bytes()) == 61 + hd.payload_bytes


def test_window_and_target_round_trip(tmp_path):
    # The header stores the chart's window and the target's kind, and the
    # reader rebuilds exactly them.
    _, phi, psi = torus_deg1_pair(16)
    for name, field in (("phi.dhm", phi), ("psi.dhm", psi)):
        dh.write_field(tmp_path / name, field)
        again = dh.read_field(tmp_path / name)
        assert again.chart.window == 0.5 and again.target.kind == "sphere"
        assert np.array_equal(again.chart.interior_mask, phi.chart.interior_mask)
        assert dh.read_header(tmp_path / name).window == 0.5


def test_payload_layout_is_documented_interleave(tmp_path):
    # Decode the spinor payload by hand straight from the documented bytes.
    chart = dh.DomainChart.torus(8, side=1.0)
    vals = np.zeros(chart.shape + (3, 2), dtype=complex)
    vals[0, 0, 0] = 1.0 + 2.0j
    vals[0, 0, 1] = complex(3.0, -4.0)
    phi = dh.MapField.constant(chart, dh.Sphere(2), (0, 0, 1))
    psi = dh.project_spinor(phi, vals)
    path = tmp_path / "s.dhm"
    dh.write_field(path, psi)
    blob = path.read_bytes()
    payload = np.frombuffer(blob[_HEADER.size:], dtype="<f8").reshape(8, 8, 3, 4)
    assert payload[0, 0, 0].tolist() == [psi.values[0, 0, 0, 0].real,
                                         psi.values[0, 0, 0, 0].imag,
                                         psi.values[0, 0, 0, 1].real,
                                         psi.values[0, 0, 0, 1].imag]


def _valid_blob(tmp_path):
    _, phi, _ = elliptic_pair(16)
    path = tmp_path / "ok.dhm"
    dh.write_field(path, phi)
    return bytearray(path.read_bytes())


@pytest.mark.parametrize("mutate,code", [
    (lambda b: b"XXXX" + bytes(b[4:]), "bad_magic"),
    (lambda b: bytes(b[:4]) + struct.pack("<I", 9) + bytes(b[8:]), "bad_version"),
    (lambda b: bytes(b[:-8]), "bad_size"),
    (lambda b: bytes(b[:60]) + bytes([b[60] ^ 0xFF]) + bytes(b[61:]), "bad_checksum"),
    (lambda b: bytes(b[:20]), "truncated"),
    (lambda b: bytes(b) + bytes(8), "bad_size"),
])
def test_malformed_files_have_distinct_codes(tmp_path, mutate, code):
    blob = _valid_blob(tmp_path)
    bad = tmp_path / "bad.dhm"
    bad.write_bytes(mutate(blob))
    with pytest.raises(dh.FieldFileError) as err:
        dh.read_field(bad)
    assert err.value.code == code


@pytest.mark.parametrize("extra", [-8, 8], ids=["short", "long"])
def test_payload_size_error_gives_both_lengths(tmp_path, extra):
    blob = _valid_blob(tmp_path)
    size = len(blob) - _HEADER.size
    bad = tmp_path / "bad.dhm"
    bad.write_bytes(bytes(blob[:extra]) if extra < 0 else bytes(blob) + bytes(extra))
    with pytest.raises(dh.FieldFileError, match=f"payload has {size + extra} bytes, "
                                                f"header says {size}$"):
        dh.read_field(bad)


def _with_payload_value(blob, index, value):
    """``blob`` with the float64 at payload ``index`` set to ``value`` and
    the CRC recomputed, so only the value check can reject it."""
    raw = bytearray(blob[_HEADER.size:])
    struct.pack_into("<d", raw, 8 * index, value)
    head = list(_HEADER.unpack(bytes(blob[:_HEADER.size])))
    head[-1] = zlib.crc32(raw)
    return _HEADER.pack(*head) + bytes(raw)


@pytest.mark.parametrize("kind", ["map", "spinor"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_payload_is_bad_values(tmp_path, capsys, kind, value):
    from diracharmonic import cli

    _, phi, psi = elliptic_pair(16)
    for name, field in (("phi.dhm", phi), ("psi.dhm", psi)):
        dh.write_field(tmp_path / name, field)
    path = tmp_path / ("phi.dhm" if kind == "map" else "psi.dhm")
    # Payload index 4: the real part of node 0's second spinor component,
    # or node 1's second map component.
    path.write_bytes(_with_payload_value(path.read_bytes(), 4, value))
    with pytest.raises(dh.FieldFileError) as err:
        dh.read_field(path)
    assert err.value.code == "bad_values"
    files = ["--phi", str(tmp_path / "phi.dhm"), "--psi", str(tmp_path / "psi.dhm")]
    for args in (["verify", *files, "--out", str(tmp_path)], ["dump", str(path)]):
        assert cli.main(args) == 1
        assert capsys.readouterr().err.startswith("field file error [bad_values]: ")


def test_header_without_components_is_bad_dim(tmp_path, capsys):
    from diracharmonic import cli

    # K = 0 under a consistent, empty payload: no target has zero dimensions.
    path = tmp_path / "k0.dhm"
    path.write_bytes(_HEADER.pack(b"DHM1", 2, 0, 0, 0, 8, 1.0, 0.0, 1,
                                  b"map:f64le".ljust(16, b"\0"), 0, zlib.crc32(b"")))
    with pytest.raises(dh.FieldFileError) as err:
        dh.read_header(path)
    assert err.value.code == "bad_dim"
    for args in (["dump", str(path)], ["verify", "--phi", str(path), "--out", str(tmp_path)]):
        assert cli.main(args) == 1
        assert capsys.readouterr().err.startswith("field file error [bad_dim]: ")


def _map_file(path, topology=0, n=8, side=1.0, window=0.0, target=0, K=3, version=2):
    """A constant map file whose header carries the given chart, target and
    version fields, with a payload of the matching size and a valid CRC."""
    payload = np.zeros((n, n, K), dtype="<f8")
    payload[..., -1] = 1.0
    raw = payload.tobytes()
    path.write_bytes(_HEADER.pack(b"DHM1", version, topology, 0, K, n, side, window, target,
                                  b"map:f64le".ljust(16, b"\0"), len(raw), zlib.crc32(raw))
                     + raw)
    return path


@pytest.mark.parametrize("fields,code", [
    pytest.param(dict(topology=7), "bad_topology", id="topology_byte_7"),
    pytest.param(dict(n=4), "bad_grid", id="n_4"),
    pytest.param(dict(side=-1.0), "bad_side", id="negative_side"),
    pytest.param(dict(side=0.0), "bad_side", id="zero_side"),
    pytest.param(dict(side=float("nan")), "bad_side", id="nan_side"),
    pytest.param(dict(side=float("inf")), "bad_side", id="infinite_side"),
    pytest.param(dict(side=1e300), "bad_side", id="side_1e300"),
    pytest.param(dict(side=1e-300), "bad_side", id="side_1e-300"),
    pytest.param(dict(topology=1, n=16, side=2.0), "bad_side", id="disk_side_2"),
    pytest.param(dict(window=float("nan")), "bad_window", id="nan_window"),
    pytest.param(dict(window=-1.0), "bad_window", id="negative_window"),
    pytest.param(dict(window=1.5), "bad_window", id="window_1.5"),
    pytest.param(dict(topology=1, n=16, side=2.2, window=0.5), "bad_window", id="disk_window"),
    pytest.param(dict(target=2), "bad_target", id="target_byte_2"),
    pytest.param(dict(target=255), "bad_target", id="target_byte_255"),
    pytest.param(dict(K=1), "bad_dim", id="sphere_k1"),
    pytest.param(dict(version=1), "bad_version", id="version_1"),
])
def test_header_chart_fields_are_validated(tmp_path, capsys, fields, code):
    from diracharmonic import cli

    path = _map_file(tmp_path / "bad.dhm", **fields)
    with pytest.raises(dh.FieldFileError) as err:
        dh.read_header(path)
    assert err.value.code == code
    for args in (["dump", str(path)], ["verify", "--phi", str(path), "--out", str(tmp_path)]):
        assert cli.main(args) == 1
        assert capsys.readouterr().err.startswith(f"field file error [{code}]: ")


@pytest.mark.parametrize("topology,n,side", [(0, 8, 1.0), (1, 16, 2.2)])
def test_header_chart_fields_at_their_limits_are_read(tmp_path, topology, n, side):
    phi = dh.read_field(_map_file(tmp_path / "ok.dhm", topology, n, side))
    assert (phi.chart.topology, phi.chart.n, phi.chart.side) == (("torus", "disk")[topology],
                                                                 n, side)


@pytest.mark.parametrize("window,target,K", [(1.0, 0, 2), (1e-300, 1, 1), (-0.0, 1, 1)],
                         ids=["whole_window_circle", "tiny_window_line", "negative_zero_line"])
def test_header_window_and_target_at_their_limits_are_read(tmp_path, window, target, K):
    # n = 8 puts a node at the centre, which any positive window keeps.
    phi = dh.read_field(_map_file(tmp_path / "ok.dhm", window=window, target=target, K=K))
    assert phi.chart.window == (window or None)
    assert (phi.target.kind, phi.target.ambient_dim) == (("sphere", "flat")[target], K)


def test_version_1_file_is_bad_version(tmp_path, capsys):
    from diracharmonic import cli

    # The version-1 layout: no window or target between the side and the tag.
    raw = np.zeros((8, 8, 3), dtype="<f8").tobytes()
    path = tmp_path / "v1.dhm"
    path.write_bytes(struct.pack("<4sIBBHId16sQI", b"DHM1", 1, 0, 0, 3, 8, 1.0,
                                 b"map:f64le".ljust(16, b"\0"), len(raw), zlib.crc32(raw)) + raw)
    with pytest.raises(dh.FieldFileError, match="version 1 carries no window or target") as err:
        dh.read_field(path)
    assert err.value.code == "bad_version"
    assert cli.main(["dump", str(path)]) == 1
    assert capsys.readouterr().err.startswith("field file error [bad_version]: ")


@pytest.mark.parametrize("fields,code", [
    pytest.param(dict(n=17, window=1e-3), "bad_window", id="torus_window_1e-3_n17"),
    pytest.param(dict(topology=1, n=8, side=2.2), "bad_grid", id="disk_n8"),
])
def test_header_chart_without_interior_node_is_rejected(tmp_path, capsys, fields, code):
    # The header values each lie in their ranges, but the chart they build
    # leaves no node in its interior, the rule config.build_chart applies.
    from diracharmonic import cli

    path = _map_file(tmp_path / "empty.dhm", **fields)
    with pytest.raises(dh.FieldFileError, match="leaves no node in the chart's interior") as err:
        dh.read_field(path)
    assert err.value.code == code
    for args in (["dump", str(path)], ["verify", "--phi", str(path), "--out", str(tmp_path)],
                 ["probe", "--phi", str(path), "--out", str(tmp_path)]):
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"field file error [{code}]: ") and "Traceback" not in err


def test_chart_mismatch_rejected(tmp_path):
    _, phi, _ = elliptic_pair(16)
    path = tmp_path / "ok.dhm"
    dh.write_field(path, phi)
    # Another n, and the same grid with only a window added.
    for chart, given in ((dh.DomainChart.torus(32), "(32, 'torus', 1.0, None)"),
                         (dh.DomainChart.torus(16, window=0.5), "(16, 'torus', 1.0, 0.5)")):
        with pytest.raises(dh.FieldFileError) as err:
            dh.read_field(path, chart=chart)
        assert err.value.code == "chart_mismatch"
        assert str(err.value) == (f"{path}: stored chart (n, topology, side, window) "
                                  f"(16, 'torus', 1.0, None) differs from the given {given}")


def test_given_target_must_match_the_stored_one(tmp_path):
    _, phi, _ = elliptic_pair(16)
    path = tmp_path / "ok.dhm"
    dh.write_field(path, phi)
    assert dh.read_field(path, target=phi.target).target is phi.target
    for target, code in ((dh.Flat(3), "target_mismatch"), (dh.Sphere(3), "dim_mismatch"),
                         (dh.Flat(4), "dim_mismatch")):
        with pytest.raises(dh.FieldFileError) as err:
            dh.read_field(path, target=target)
        assert err.value.code == code


def test_flat_map_target_is_stored(tmp_path):
    # A flat map whose values happen to lie on S^2 stays flat: the reader
    # takes the target from the header, never from the values.
    chart = dh.DomainChart.torus(16)
    for value in (2.0, 0.0):
        vals = np.full(chart.shape + (3,), value)
        vals[..., 2] = 1.0
        phi = dh.MapField(chart, dh.Flat(3), vals)
        path = tmp_path / "flat.dhm"
        dh.write_field(path, phi)
        again = dh.read_field(path)
        assert (again.target.kind, again.target.ambient_dim) == ("flat", 3)
        assert dh.read_header(path).target == "flat"


def _k1_fields():
    """A K = 1 map whose values are +-1 (so they sit on the unit "sphere"
    S^0) and a spinor along it, on the flat line R^1."""
    chart = dh.DomainChart.torus(16)
    flat = dh.Flat(1)
    phi = dh.MapField(chart, flat, np.where(chart.x < 0, -1.0, 1.0)[..., None])
    rng = np.random.default_rng(3)
    psi = dh.TwistedSpinorField(chart, flat, rng.normal(size=chart.shape + (1, 2))
                                + 1j * rng.normal(size=chart.shape + (1, 2)))
    return phi, psi


def test_k1_fields_round_trip_as_flat_line(tmp_path):
    for field in _k1_fields():
        path = tmp_path / "k1.dhm"
        dh.write_field(path, field)
        again = dh.read_field(path)
        assert type(again) is type(field)
        assert again.target.kind == "flat" and again.target.ambient_dim == 1
        assert np.array_equal(again.values, field.values)
        # A copy of the payload, not the read-only buffer it was read into.
        assert again.values.flags.writeable


def test_dump_reads_k1_files(tmp_path, capsys):
    from diracharmonic import cli

    for name, field in zip(("phi.dhm", "psi.dhm"), _k1_fields()):
        dh.write_field(tmp_path / name, field)
        assert cli.main(["dump", str(tmp_path / name)]) == 0
    assert capsys.readouterr().out.count('"ambient_dim": 1') == 2


# -- round trip through files: dhm exact, then verify --phi --psi ----------------

TWISTOR = "[scenario]\nkind = twistor_pushforward\npsi1 = 0.2,-0.1j\n"
CONSTANT = "[scenario]\nkind = constant_spinor\n"
# (config text, the exit code verify gives in both modes)
ROUND_TRIPS = [
    pytest.param("[chart]\ntopology = disk\nn = 48\n\n" + TWISTOR, 0, id="twistor_disk"),
    pytest.param("[chart]\nn = 64\nwindow = 0.5\n\n[scenario]\nkind = twistor_pushforward\n"
                 "rational_num = 0.1,1,0.3\nrational_den = 1,0.2\npsi1 = 0.3,0.1j\n", 0,
                 id="twistor_windowed_torus"),
    pytest.param("[chart]\nn = 32\n\n[scenario]\nkind = elliptic_pair\n", 2, id="elliptic"),
    pytest.param("[chart]\nn = 16\n\n[scenario]\nkind = harmonic_wrap\nwinding = 2\n", 0,
                 id="harmonic_wrap_torus"),
    pytest.param("[chart]\ntopology = disk\nn = 48\n\n[scenario]\nkind = harmonic_wrap\n", 0,
                 id="harmonic_wrap_disk"),
    # The map sits on S^2 and the spinor along its normal: a pair on flat R^3 only.
    pytest.param("[chart]\nn = 16\n\n[target]\nkind = flat\ndim = 3\n\n" + CONSTANT
                 + "spinor_direction = 0,0,1\n", 0, id="constant_flat_r3"),
    pytest.param("[chart]\nn = 16\n\n[target]\ndim = 3\n\n" + CONSTANT
                 + "base_point = 0,0,0,1\nspinor_direction = 1,0,0,0\n", 0, id="constant_s3"),
    pytest.param("[chart]\nn = 16\n\n[target]\nkind = flat\ndim = 1\n\n" + CONSTANT
                 + "base_point = 0.5\nspinor_direction = 1\n", 0, id="constant_flat_r1"),
    pytest.param("[chart]\ntopology = disk\nn = 48\n\n" + CONSTANT, 0, id="constant_disk"),
    pytest.param("[chart]\nn = 32\n\n[scenario]\nkind = perturbed_constant\n", 2,
                 id="perturbed_constant"),
]


@pytest.mark.parametrize("text,code", ROUND_TRIPS)
def test_file_round_trip_keeps_the_verdict(tmp_path, capsys, text, code):
    """The files ``dhm exact`` writes carry the pair's whole geometry:
    ``verify --phi --psi`` on them gives the exit code, the pass flags and
    the first-grid defect bits ``verify --config`` gives, record by record."""
    from diracharmonic import cli

    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    exact = tmp_path / "exact"
    assert cli.main(["exact", "--config", str(cfg), "--out", str(exact)]) == 0
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "cfg")]) == code
    assert cli.main(["verify", "--phi", str(exact / "phi.dhm"), "--psi", str(exact / "psi.dhm"),
                     "--out", str(tmp_path / "files")]) == code
    capsys.readouterr()
    by_mode = [{rec["id"]: rec for rec in json.loads(
        (tmp_path / mode / "verify_report.json").read_text())["identities"]}
        for mode in ("cfg", "files")]
    both = by_mode[0].keys() & by_mode[1].keys()
    assert len(both) >= 10
    for rid in sorted(both):
        scenario, files = by_mode[0][rid], by_mode[1][rid]
        assert files["pass"] == scenario["pass"], rid
        assert ([d.hex() for d in files["defects"][:1]]
                == [d.hex() for d in scenario["defects"][:1]]), rid
