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

A payload is the field values' C-order (y outer) little-endian bytes:
a map's (n, n, K) as ``<f8`` and a spinor's (n, n, K, 2) as ``<c16``,
whose (re, im) pairs interleave (Re f, Im f, Re g, Im g) per ambient
component.  Round trips are bit-exact, and a payload with a non-finite
value is rejected on read (``bad_values``).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .charts import MAX_SIDE, MIN_DISK_SIDE, MIN_N, MIN_SIDE, DomainChart, empty_planes
from .fields import MapField, TwistedSpinorField
from .targets import Flat, Sphere, TargetGeometry

MAGIC = b"DHM1"
VERSION = 1
# kind byte -> (name, field class, layout tag, payload dtype, trailing value axes)
_KINDS = {0: ("map", MapField, b"map:f64le", "<f8", ()),
          1: ("spinor", TwistedSpinorField, b"spin:f64le:rifg", "<c16", (2,))}
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


def write_field(path, field) -> None:
    """Serialize a map or spinor field; see the module docstring for bytes."""
    kind = next((k for k, row in _KINDS.items() if isinstance(field, row[1])), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(field).__name__}")
    _, _, layout, dtype, _ = _KINDS[kind]
    payload = np.ascontiguousarray(field.values, dtype=dtype)
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
        layout.ljust(16, b"\0"),
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
    if n < MIN_N:
        raise FieldFileError("bad_grid", f"{path}: n = {n}, a chart needs n >= {MIN_N}")
    least = f"> {MIN_DISK_SIDE:g}" if topology == "disk" else f">= {MIN_SIDE:g}"
    if not (MIN_SIDE <= side <= MAX_SIDE and (topology == "torus" or side > MIN_DISK_SIDE)):
        raise FieldFileError("bad_side", f"{path}: side {side} on a {topology} chart, "
                                         f"which needs a side {least} and <= {MAX_SIDE:g}")
    if K < 1:  # as the targets require
        raise FieldFileError("bad_dim", f"{path}: K = {K}, a field needs K >= 1")
    if kind not in _KINDS:
        raise FieldFileError("bad_kind", f"{path}: unknown field kind {kind}")
    name, _, tag, dtype, trail = _KINDS[kind]
    if layout.rstrip(b"\0") != tag:
        raise FieldFileError("bad_layout", f"{path}: layout tag {layout!r}")
    size = n * n * K * int(np.prod(trail)) * np.dtype(dtype).itemsize
    if nbytes != size:
        raise FieldFileError("bad_size", f"{path}: payload length {nbytes} != {size}")
    return FieldHeader(version=version, topology=topology, kind=name, ambient_dim=K,
                       n=n, side=side, payload_bytes=nbytes, crc32=crc)


def read_field(path, chart: DomainChart | None = None,
               target: TargetGeometry | None = None):
    """Load a field file back into a MapField or TwistedSpinorField.

    The chart is rebuilt from the header unless one is supplied (a supplied
    chart must match the stored geometry, a supplied target its ambient
    dimension K).  The target defaults to the unit sphere S^(K-1) when
    K >= 2 and map values sit on it to 1e-8 (``check_pair`` then holds
    them to 1e-10), flat space otherwise; spinor files default to that
    sphere when K >= 2 and to flat R^1 when K = 1.
    """
    hd = read_header(path)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        raw = fh.read()
    if len(raw) != hd.payload_bytes:
        raise FieldFileError("bad_size", f"{path}: payload has {len(raw)} bytes, "
                                         f"header says {hd.payload_bytes}")
    if (zlib.crc32(raw) & 0xFFFFFFFF) != hd.crc32:
        raise FieldFileError("bad_checksum", f"{path}: CRC mismatch")
    if chart is None:
        chart = DomainChart(hd.n, hd.side, hd.topology, None)
    elif chart.n != hd.n or chart.topology != hd.topology or chart.side != hd.side:
        raise FieldFileError("chart_mismatch", f"{path}: stored chart differs from the given one")
    if target is not None and target.ambient_dim != hd.ambient_dim:
        raise FieldFileError("dim_mismatch", f"{path}: K = {hd.ambient_dim} != {target.ambient_dim}")
    K = hd.ambient_dim
    _, cls, _, dtype, trail = next(k for k in _KINDS.values() if k[0] == hd.kind)
    shape = (hd.n, hd.n, K) + trail
    # A copy, never the read-only buffer: as_planes would keep a K = 1 map's.
    vals = empty_planes(shape, np.dtype(dtype).newbyteorder("="))
    vals[...] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if not np.isfinite(vals).all():
        raise FieldFileError("bad_values", f"{path}: payload holds a non-finite value")
    if target is None:  # map values decide; a spinor read alone takes the sphere
        on_sphere = K >= 2 and (cls is TwistedSpinorField or Sphere(K - 1).off_target(vals) < 1e-8)
        target = Sphere(K - 1) if on_sphere else Flat(K)
    return cls(chart, target, vals)
