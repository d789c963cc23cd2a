"""Binary field files ("DHM1").

Byte layout, little-endian throughout:

    offset  size  field
    0       4     magic b"DHM1"
    4       4     u32 format version (currently 2)
    8       1     u8 topology: 0 = torus, 1 = disk
    9       1     u8 kind: 0 = map, 1 = spinor
    10      2     u16 ambient dimension K
    12      4     u32 n (nodes per side)
    16      8     f64 physical side length
    24      8     f64 torus window, a side fraction in (0, 1]; 0 = none
    32      1     u8 target: 0 = unit sphere S^(K-1), 1 = flat R^K
    33      16    payload layout tag, ASCII, zero-padded
    49      8     u64 payload length in bytes
    57      4     u32 CRC32 of the payload (zlib)
    61      ...   payload

The header states the field's whole geometry, which ``read_field``
rebuilds; version 1, which carried no window or target, is rejected.

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
VERSION = 2
_TARGETS = ("sphere", "flat")  # target byte -> TargetGeometry.kind
# kind byte -> (name, field class, layout tag, payload dtype, trailing value axes)
_KINDS = {0: ("map", MapField, b"map:f64le", "<f8", ()),
          1: ("spinor", TwistedSpinorField, b"spin:f64le:rifg", "<c16", (2,))}
_HEADER = struct.Struct("<4sIBBHIddB16sQI")


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
    window: float | None
    target: str
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
    header = _HEADER.pack(MAGIC, VERSION, 0 if chart.topology == "torus" else 1, kind,
                          field.target.ambient_dim, chart.n, chart.side, chart.window or 0.0,
                          _TARGETS.index(field.target.kind), layout.ljust(16, b"\0"),
                          len(raw), zlib.crc32(raw) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raw)


def read_header(path) -> FieldHeader:
    with open(path, "rb") as fh:
        blob = fh.read(_HEADER.size)
    if len(blob) < _HEADER.size:
        raise FieldFileError("truncated", f"{path}: shorter than the fixed header")
    magic, version, topo, kind, K, n, side, window, target, layout, nbytes, crc = \
        _HEADER.unpack(blob)
    if magic != MAGIC:
        raise FieldFileError("bad_magic", f"{path}: magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FieldFileError("bad_version", f"{path}: version {version}, not {VERSION} "
                                            "(version 1 carries no window or target)")
    if topo not in (0, 1):
        raise FieldFileError("bad_topology", f"{path}: unknown topology byte {topo}")
    topology = "torus" if topo == 0 else "disk"
    # The limits DomainChart sets on each value; read_field's chart adds the interior rule.
    if n < MIN_N:
        raise FieldFileError("bad_grid", f"{path}: n = {n}, a chart needs n >= {MIN_N}")
    least = f"> {MIN_DISK_SIDE:g}" if topology == "disk" else f">= {MIN_SIDE:g}"
    if not (MIN_SIDE <= side <= MAX_SIDE and (topology == "torus" or side > MIN_DISK_SIDE)):
        raise FieldFileError("bad_side", f"{path}: side {side} on a {topology} chart, "
                                         f"which needs a side {least} and <= {MAX_SIDE:g}")
    if window != 0.0 and not (topology == "torus" and 0.0 < window <= 1.0):
        raise FieldFileError("bad_window", f"{path}: window {window} on a {topology} chart; "
                                           "a torus window lies in (0, 1], a disk has none")
    if target >= len(_TARGETS):
        raise FieldFileError("bad_target", f"{path}: unknown target byte {target}")
    if K < 2 - target:  # as the targets require: S^(K-1) needs K >= 2, R^K K >= 1
        raise FieldFileError("bad_dim", f"{path}: K = {K}, a {_TARGETS[target]} target "
                                        f"needs K >= {2 - target}")
    if kind not in _KINDS:
        raise FieldFileError("bad_kind", f"{path}: unknown field kind {kind}")
    name, _, tag, dtype, trail = _KINDS[kind]
    if layout.rstrip(b"\0") != tag:
        raise FieldFileError("bad_layout", f"{path}: layout tag {layout!r}")
    size = n * n * K * int(np.prod(trail)) * np.dtype(dtype).itemsize
    if nbytes != size:
        raise FieldFileError("bad_size", f"{path}: payload length {nbytes} != {size}")
    return FieldHeader(version=version, topology=topology, kind=name, ambient_dim=K,
                       n=n, side=side, window=window or None, target=_TARGETS[target],
                       payload_bytes=nbytes, crc32=crc)


def read_field(path, chart: DomainChart | None = None,
               target: TargetGeometry | None = None):
    """Load a field file into a MapField or TwistedSpinorField on the chart
    and target its header stores; a given chart (n, topology, side, window)
    or target (K, kind) must match them, and is then used."""
    hd = read_header(path)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        raw = fh.read()
    if len(raw) != hd.payload_bytes:
        raise FieldFileError("bad_size", f"{path}: payload has {len(raw)} bytes, "
                                         f"header says {hd.payload_bytes}")
    if (zlib.crc32(raw) & 0xFFFFFFFF) != hd.crc32:
        raise FieldFileError("bad_checksum", f"{path}: CRC mismatch")
    stored = (hd.n, hd.topology, hd.side, hd.window)
    if chart is None:
        try:
            chart = DomainChart(hd.n, hd.side, hd.topology, hd.window)
        except ValueError as exc:  # what the header checks leave: an interior without a node
            raise FieldFileError("bad_window" if hd.window else "bad_grid",
                                 f"{path}: (n, topology, side, window) {stored} {exc}") from None
    elif (given := (chart.n, chart.topology, chart.side, chart.window)) != stored:
        raise FieldFileError("chart_mismatch", f"{path}: stored chart (n, topology, side, "
                                               f"window) {stored} differs from the given {given}")
    K = hd.ambient_dim
    if target is None:
        target = Sphere(K - 1) if hd.target == "sphere" else Flat(K)
    elif target.ambient_dim != K:
        raise FieldFileError("dim_mismatch", f"{path}: K = {K} != {target.ambient_dim}")
    elif target.kind != hd.target:
        raise FieldFileError("target_mismatch", f"{path}: stored target {hd.target} "
                                                f"differs from the given {target.kind}")
    _, cls, _, dtype, trail = next(k for k in _KINDS.values() if k[0] == hd.kind)
    shape = (hd.n, hd.n, K) + trail
    # A copy, never the read-only buffer: as_planes would keep a K = 1 map's.
    vals = empty_planes(shape, np.dtype(dtype).newbyteorder("="))
    vals[...] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if not np.isfinite(vals).all():
        raise FieldFileError("bad_values", f"{path}: payload holds a non-finite value")
    return cls(chart, target, vals)
