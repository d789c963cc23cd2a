"""Binary field files ("DHM1").

Byte layout, little-endian throughout:

    offset  size  field
    0       4     magic b"DHM1"
    4       4     u32 format version (currently 1)
    8       1     u8 topology: 0 = torus, 1 = disk
    9       1     u8 kind: 0 = map, 1 = spinor
    10      2     u16 ambient dimension K
    12      4     u32 n (nodes per side)
    16      8     f64 physical side length
    24      16    payload layout tag, ASCII, zero-padded
    40      8     u64 payload length in bytes
    48      4     u32 CRC32 of the payload (zlib)
    52      ...   payload

Payloads are row-major (y outer) float64.  A map stores (n, n, K); a
spinor stores (n, n, K, 4) with the last axis interleaving
(Re f, Im f, Re g, Im g) per ambient component.  Round trips are
bit-exact.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .charts import MAX_SIDE, MIN_SIDE, DomainChart, empty_planes
from .fields import MapField, TwistedSpinorField
from .targets import Flat, Sphere, TargetGeometry

MAGIC = b"DHM1"
VERSION = 1
_LAYOUTS = {0: b"map:f64le", 1: b"spin:f64le:rifg"}
_HEADER = struct.Struct("<4sIBBHId16sQI")


class FieldFileError(Exception):
    """Malformed field file; ``code`` distinguishes the failure mode."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class FieldHeader:
    version: int
    topology: str
    kind: str
    ambient_dim: int
    n: int
    side: float
    payload_bytes: int
    crc32: int


def _pack_payload(field) -> tuple[int, np.ndarray]:
    if isinstance(field, MapField):
        return 0, np.ascontiguousarray(field.values, dtype="<f8")
    if isinstance(field, TwistedSpinorField):
        v = field.values
        quad = np.stack([v[..., 0].real, v[..., 0].imag,
                         v[..., 1].real, v[..., 1].imag], axis=-1)
        return 1, np.ascontiguousarray(quad, dtype="<f8")
    raise TypeError(f"cannot serialize {type(field).__name__}")


def write_field(path, field) -> None:
    """Serialize a map or spinor field; see the module docstring for bytes."""
    kind, payload = _pack_payload(field)
    chart = field.chart
    # The C-order payload is already the byte layout: write it as a buffer
    # rather than through a bytes copy.
    raw = memoryview(payload).cast("B")
    header = _HEADER.pack(
        MAGIC, VERSION,
        0 if chart.topology == "torus" else 1,
        kind,
        field.target.ambient_dim,
        chart.n,
        chart.side,
        _LAYOUTS[kind].ljust(16, b"\0"),
        len(raw),
        zlib.crc32(raw) & 0xFFFFFFFF,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raw)


def read_header(path) -> FieldHeader:
    with open(path, "rb") as fh:
        blob = fh.read(_HEADER.size)
    if len(blob) < _HEADER.size:
        raise FieldFileError("truncated", f"{path}: shorter than the fixed header")
    magic, version, topo, kind, K, n, side, layout, nbytes, crc = _HEADER.unpack(blob)
    if magic != MAGIC:
        raise FieldFileError("bad_magic", f"{path}: magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FieldFileError("bad_version", f"{path}: unsupported version {version}")
    if topo not in (0, 1):
        raise FieldFileError("bad_topology", f"{path}: unknown topology byte {topo}")
    topology = "torus" if topo == 0 else "disk"
    # The limits DomainChart sets, so a readable header always builds a chart.
    if n < 8:
        raise FieldFileError("bad_grid", f"{path}: n = {n}, a chart needs n >= 8")
    least = "> 2" if topology == "disk" else f">= {MIN_SIDE:g}"
    if not (MIN_SIDE <= side <= MAX_SIDE and (topology == "torus" or side > 2.0)):
        raise FieldFileError("bad_side", f"{path}: side {side} on a {topology} chart, "
                                         f"which needs a side {least} and <= {MAX_SIDE:g}")
    if kind not in _LAYOUTS:
        raise FieldFileError("bad_kind", f"{path}: unknown field kind {kind}")
    if layout.rstrip(b"\0") != _LAYOUTS[kind]:
        raise FieldFileError("bad_layout", f"{path}: layout tag {layout!r}")
    comps = K if kind == 0 else 4 * K
    if nbytes != n * n * comps * 8:
        raise FieldFileError("bad_size", f"{path}: payload length {nbytes} != {n * n * comps * 8}")
    return FieldHeader(version=version, topology=topology,
                       kind="map" if kind == 0 else "spinor", ambient_dim=K,
                       n=n, side=side, payload_bytes=nbytes, crc32=crc)


def read_field(path, chart: DomainChart | None = None,
               target: TargetGeometry | None = None):
    """Load a field file back into a MapField or TwistedSpinorField.

    The chart is rebuilt from the header unless one is supplied (a supplied
    chart must match the stored geometry, a supplied target its ambient
    dimension K).  The target defaults to the unit sphere S^(K-1) when
    K >= 2 and map values sit on it, flat space otherwise; spinor files
    default to that sphere when K >= 2 and to flat R^1 when K = 1.
    """
    hd = read_header(path)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        raw = fh.read()
    if len(raw) != hd.payload_bytes:
        raise FieldFileError("bad_size", f"{path}: payload truncated")
    if (zlib.crc32(raw) & 0xFFFFFFFF) != hd.crc32:
        raise FieldFileError("bad_checksum", f"{path}: CRC mismatch")
    if chart is None:
        chart = DomainChart(hd.n, hd.side, hd.topology, None)
    elif chart.n != hd.n or chart.topology != hd.topology or chart.side != hd.side:
        raise FieldFileError("chart_mismatch", f"{path}: stored chart differs from the given one")
    if target is not None and target.ambient_dim != hd.ambient_dim:
        raise FieldFileError("dim_mismatch", f"{path}: K = {hd.ambient_dim} != {target.ambient_dim}")
    K = hd.ambient_dim
    if hd.kind == "map":
        vals = empty_planes((hd.n, hd.n, K))
        vals[...] = np.frombuffer(raw, dtype="<f8").reshape(hd.n, hd.n, K)
        if target is None:
            on_sphere = K >= 2 and np.abs((vals**2).sum(axis=-1) - 1.0).max() < 1e-8
            target = Sphere(K - 1) if on_sphere else Flat(K)
        return MapField(chart, target, vals, check=False)
    quad = np.frombuffer(raw, dtype="<f8").reshape(hd.n, hd.n, K, 4)
    vals = empty_planes((hd.n, hd.n, K, 2), np.complex128)
    vals[..., 0] = quad[..., 0] + 1j * quad[..., 1]
    vals[..., 1] = quad[..., 2] + 1j * quad[..., 3]
    if target is None:
        target = Sphere(K - 1) if K >= 2 else Flat(1)
    return TwistedSpinorField(chart, target, vals)
