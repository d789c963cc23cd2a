import struct
import zlib

import numpy as np
import pytest

import diracharmonic as dh
from diracharmonic.fieldio import _HEADER

from conftest import elliptic_pair


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
    assert hd.payload_bytes == 48 * 48 * 3 * 8


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
])
def test_malformed_files_have_distinct_codes(tmp_path, mutate, code):
    blob = _valid_blob(tmp_path)
    bad = tmp_path / "bad.dhm"
    bad.write_bytes(mutate(blob))
    with pytest.raises(dh.FieldFileError) as err:
        dh.read_field(bad)
    assert err.value.code == code


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
    path.write_bytes(_HEADER.pack(b"DHM1", 1, 0, 0, 0, 8, 1.0, b"map:f64le".ljust(16, b"\0"),
                                  0, zlib.crc32(b"")))
    with pytest.raises(dh.FieldFileError) as err:
        dh.read_header(path)
    assert err.value.code == "bad_dim"
    for args in (["dump", str(path)], ["verify", "--phi", str(path), "--out", str(tmp_path)]):
        assert cli.main(args) == 1
        assert capsys.readouterr().err.startswith("field file error [bad_dim]: ")


def _map_file(path, topology=0, n=8, side=1.0):
    """A constant map file on S^2 whose header carries the given chart
    fields, with a payload of the matching size and a valid CRC."""
    payload = np.zeros((n, n, 3), dtype="<f8")
    payload[..., 2] = 1.0
    raw = payload.tobytes()
    path.write_bytes(_HEADER.pack(b"DHM1", 1, topology, 0, 3, n, side,
                                  b"map:f64le".ljust(16, b"\0"), len(raw), zlib.crc32(raw))
                     + raw)
    return path


@pytest.mark.parametrize("topology,n,side,code", [
    pytest.param(7, 8, 1.0, "bad_topology", id="topology_byte_7"),
    pytest.param(0, 4, 1.0, "bad_grid", id="n_4"),
    pytest.param(0, 8, -1.0, "bad_side", id="negative_side"),
    pytest.param(0, 8, 0.0, "bad_side", id="zero_side"),
    pytest.param(0, 8, float("nan"), "bad_side", id="nan_side"),
    pytest.param(0, 8, float("inf"), "bad_side", id="infinite_side"),
    pytest.param(0, 8, 1e300, "bad_side", id="side_1e300"),
    pytest.param(0, 8, 1e-300, "bad_side", id="side_1e-300"),
    pytest.param(1, 16, 2.0, "bad_side", id="disk_side_2"),
])
def test_header_chart_fields_are_validated(tmp_path, capsys, topology, n, side, code):
    from diracharmonic import cli

    path = _map_file(tmp_path / "bad.dhm", topology, n, side)
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


def test_chart_mismatch_rejected(tmp_path):
    _, phi, _ = elliptic_pair(16)
    path = tmp_path / "ok.dhm"
    dh.write_field(path, phi)
    with pytest.raises(dh.FieldFileError) as err:
        dh.read_field(path, chart=dh.DomainChart.torus(32))
    assert err.value.code == "chart_mismatch"


def test_flat_map_inferred(tmp_path):
    chart = dh.DomainChart.torus(16)
    flat = dh.Flat(3)
    phi = dh.MapField(chart, flat, np.full(chart.shape + (3,), 2.0))
    path = tmp_path / "flat.dhm"
    dh.write_field(path, phi)
    again = dh.read_field(path)
    assert again.target.kind == "flat"


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
