"""Discrete flat 2D charts: periodic torus and unit disk.

Grids are uniform with n nodes per side.  Arrays are indexed [iy, ix]
(row-major, y outer) and extra trailing axes carry field components.

This module owns every finite-difference stencil: the centered
difference ``difference`` (``derivative`` is it over 2h), the compact
second difference ``second_difference`` and the five-point ``laplacian``;
the last two share one per-axis kernel.  All are second order and wrap;
there are no one-sided boundary stencils.  Their Fourier symbols over
the FFT frequency index sit beside them (``difference_symbol``,
``second_difference_symbol``), and the solver's FFT preconditioner
builds its symbol from them.

On the disk, fields live on the full square but only the region |z| <= 1
is the chart; identities are evaluated on the interior mask
|z| <= 1 - 4h.  ``DomainChart.block`` is the chart over a square block of
a chart's nodes: work on a field that is constant outside a small support
runs on the block around it, and its integrals keep the whole chart's
bits.

Field arrays keep the shapes (n, n, *comp) but are stored component-major:
a field is the transposed view of a C-contiguous (*comp, n, n) buffer, so
each component is one contiguous n x n plane and pointwise work over the
component axes runs over whole planes.  numpy's ufuncs (order "K"),
``np.roll``, ``empty_like`` and ``zeros_like`` carry that order through;
``np.stack``, ``np.concatenate`` and fancy indexing fall back to C order,
so new code that builds a component axis passes them ``out=empty_planes(...)``
(or an ``empty_like`` of a plane-ordered input), or writes the pieces there
one at a time where stacking would keep several grid-sized temporaries
alive; constructors store through ``as_planes``.  Each elementwise kernel
gives the same bits on either order.  Sums over component axes or over
whole fields are plain numpy sums, which add in memory order: their last
bits hold per machine, numpy build and dispatch path, not per storage order.
"""

from __future__ import annotations

import copy
import math

import numpy as np

_GRID_AXES = {"x": -1, "y": -2}   # in the (*comp, n, n) planes of a field
# The side lengths a chart accepts: h^2 and 1/h^2 are finite normal floats
# for every n, and so are the kernel CG's pairings, which scale like h^-4 (at
# side 1e60 they underflow and the coupled flow breaks down).
MIN_SIDE, MAX_SIDE = 1e-30, 1e30
MIN_N = 8             # the least nodes per side
MIN_DISK_SIDE = 2.0   # a disk chart's side exceeds it, so the square holds the unit disk


def empty_planes(shape, dtype=float, zero: bool = False) -> np.ndarray:
    """Uninitialised (n, n, *comp) array stored component-major: the
    transposed view of a C-contiguous (*comp, n, n) buffer.  ``zero``
    allocates it as ``np.zeros`` does, untouched pages and all."""
    lead = len(shape) - 2
    buf = (np.zeros if zero else np.empty)(tuple(shape[2:]) + tuple(shape[:2]), dtype)
    return buf.transpose((lead, lead + 1) + tuple(range(lead)))


def as_planes(values) -> np.ndarray:
    """``values`` as a component-major (n, n, *comp) array; no copy when it
    already is one."""
    values = np.asarray(values)
    if values.transpose(tuple(range(2, values.ndim)) + (0, 1)).flags.c_contiguous:
        return values
    out = empty_planes(values.shape, values.dtype)
    out[...] = values
    return out


def _lines(a, axis):
    """A component-major field's flat buffer, its planes with ``axis`` last,
    and the buffer stride of one step along ``axis``."""
    planes = a.transpose(tuple(range(2, a.ndim)) + (0, 1))
    if not planes.flags.c_contiguous:
        raise ValueError("stencil arrays must be stored component-major")
    g = _GRID_AXES[axis]
    return planes.reshape(-1), planes.swapaxes(-1, g), planes.strides[g] // a.itemsize


def _add_neighbours(f, out, axis):
    """out += f[i + 1], then out += f[i - 1], along ``axis``:
    ``laplacian``'s and ``second_difference``'s one per-axis kernel.
    Both adds are contiguous passes over the whole buffer, where line ends
    pair with the neighbouring lines; the two line ends, saved first, are
    then redone with their wrap partners.  Returns ``out``."""
    (ff, fa, step), (fo, oa, _) = _lines(f, axis), _lines(out, axis)
    last = oa.shape[-1] - 1
    ends = oa[..., ::last].copy()
    fo[:-step] += ff[step:]
    fo[step:] += ff[:-step]
    ends += fa[..., 1::-1]
    ends += fa[..., :-3:-1]
    oa[..., ::last] = ends
    return out


def difference_symbol(n: int) -> np.ndarray:
    """The Fourier symbol of ``DomainChart.difference`` along one axis of n
    nodes: it multiplies the mode e^{2 pi i m j / n} by 2i sin(2 pi m / n),
    for the FFT frequency index m = 0 ... n - 1."""
    return 2j * np.sin(2.0 * np.pi * np.arange(n) / n)


def second_difference_symbol(n: int) -> np.ndarray:
    """The Fourier symbol of ``DomainChart.second_difference`` along one
    axis of n nodes: -4 sin^2(pi m / n) on the mode of ``difference_symbol``.
    ``laplacian``'s is the two axes' sum over h^2."""
    return -4.0 * np.sin(np.pi * np.arange(n) / n) ** 2


class DomainChart:
    """Uniform n x n grid over a square of physical side length ``side``,
    with the flat metric: node coordinates and the domain and interior masks.

    ``topology`` is "torus" (all stencils wrap) or "disk" (unit disk inside
    the square; wrap values outside the disk are never trusted).  ``window``
    optionally restricts the evaluation region of a torus chart to the
    central square of that side fraction, used when sampling non-periodic
    fields whose seam must stay out of every norm; a disk chart takes none.

    The chart is immutable after construction; all methods are pure.
    """

    def __init__(self, n: int, side: float, topology: str, window: float | None):
        if n < MIN_N:
            raise ValueError(f"grid needs n >= {MIN_N}")
        if not MIN_SIDE <= side <= MAX_SIDE:
            raise ValueError(f"side must be positive and lie in [{MIN_SIDE:g}, {MAX_SIDE:g}]")
        if topology not in ("torus", "disk"):
            raise ValueError(f"unknown topology {topology!r}")
        if window is not None and not (topology == "torus" and 0.0 < window <= 1.0):
            raise ValueError("a torus window must lie in (0, 1]; a disk chart takes none")
        if topology == "disk" and side <= MIN_DISK_SIDE:
            raise ValueError(f"disk chart needs side > {MIN_DISK_SIDE:g} to contain the unit disk")
        self.n, self.side, self.topology, self.window = n, side, topology, window
        self._parent = None   # (parent chart, index slices) on a block
        self.h = h = side / n
        self.shape = (n, n)
        if topology == "torus":
            coords = -0.5 * side + h * np.arange(n)
        else:
            # Cell-centered: symmetric about 0, no node at the origin or
            # exactly on |z| = 1.
            coords = -0.5 * side + h * (np.arange(n) + 0.5)
        self.x, self.y = np.meshgrid(coords, coords, indexing="xy")
        self.z = self.x + 1j * self.y
        if topology == "disk":
            r = np.abs(self.z)
            self.domain_mask = r <= 1.0
            self.interior_mask = r <= 1.0 - 4.0 * h
        else:
            self.domain_mask = np.ones((n, n), dtype=bool)
            if window is None:
                self.interior_mask = self.domain_mask
            else:
                half = 0.5 * window * side
                self.interior_mask = (np.abs(self.x) <= half) & (np.abs(self.y) <= half)
        if not self.interior_mask.any():  # every sup and integral runs over it
            raise ValueError("leaves no node in the chart's interior (|z| <= 1 - 4h on a disk, "
                             "the window on a torus)")

    # -- constructors ------------------------------------------------------

    @classmethod
    def torus(cls, n: int, side: float = 1.0, window: float | None = None) -> "DomainChart":
        return cls(n, side, "torus", window)

    @classmethod
    def disk(cls, n: int, side: float = 2.2) -> "DomainChart":
        return cls(n, side, "disk", None)

    def block(self, i0: int, j0: int, m: int) -> "DomainChart":
        """The chart over the m x m block of this chart's nodes whose first
        node is [i0, j0]: the same h and topology, and the slices of ``x``,
        ``y``, ``z`` and both masks.  Its stencils wrap at the block's
        edges, as on any chart, so they agree with this chart's at nodes
        at least one node inside the block; ``interp`` reads its weights
        off the block's first node, so it agrees with this chart's to
        rounding.  ``integrate`` sums a block field in this chart's order
        (see there)."""
        if not (3 <= m and 0 <= i0 and 0 <= j0 and i0 + m <= self.n and j0 + m <= self.n):
            raise ValueError(f"a {m} x {m} block at [{i0}, {j0}] does not fit an "
                             f"{self.n} x {self.n} chart")
        at = (slice(i0, i0 + m), slice(j0, j0 + m))
        out = copy.copy(self)
        out.n, out.side, out.shape, out._parent = m, m * self.h, (m, m), (self, at)
        for name in ("x", "y", "z", "domain_mask", "interior_mask"):
            setattr(out, name, np.ascontiguousarray(getattr(self, name)[at]))
        return out

    # -- stencil calculus ----------------------------------------------------

    def difference(self, f, axis, out=None) -> np.ndarray:
        """Unscaled centered difference f[i + 1] - f[i - 1] along "x" or "y",
        written into ``out`` (a component-major array shaped like ``f``
        that does not overlap it) when given.

        Stencils always wrap; on disk charts the wrap touches only nodes
        outside the unit disk, which no mask ever selects.
        """
        f = as_planes(f)
        out = empty_planes(f.shape, np.result_type(f, 1.0)) if out is None else out
        (ff, fa, step), (fo, oa, _) = _lines(f, axis), _lines(out, axis)
        # The bits of roll(f, -1) - roll(f, 1): one contiguous pass over the whole
        # buffer (line ends pair with the neighbouring lines), then the two ends.
        np.subtract(ff[2 * step:], ff[:-2 * step], out=fo[step:-step])
        np.subtract(fa[..., 1::-1], fa[..., :-3:-1], out=oa[..., ::self.n - 1])
        return out

    def derivative(self, f, axis, out=None) -> np.ndarray:
        """Centered O(h^2) first derivative: ``difference`` divided by 2h."""
        out = self.difference(f, axis, out=out)
        fo = _lines(out, axis)[0]
        # numpy divides a complex out by 2h + 0j as (re + im * 0) * (1 / 2h) per
        # part; the real reciprocal differs only in the sign of exact zeros.
        if np.iscomplexobj(fo):
            fo.view(fo.real.dtype)[...] *= 1.0 / (2.0 * self.h)
        else:
            fo /= 2.0 * self.h
        return out

    def second_difference(self, f, axis, out=None) -> np.ndarray:
        """Unscaled compact second difference f[i + 1] - 2 f[i] + f[i - 1]
        along "x" or "y", written into ``out`` as for ``difference``; it
        wraps like every stencil."""
        f = as_planes(f)
        return _add_neighbours(f, np.multiply(-2.0, f, out=out), axis)

    def laplacian(self, f, out=None) -> np.ndarray:
        """Five-point Laplacian, O(h^2): the two axes' second differences
        over h^2, each node summed as
        (((-4 f + f[y + 1]) + f[y - 1]) + f[x + 1]) + f[x - 1].  Written
        into ``out`` (a component-major array shaped like ``f`` that does
        not overlap it) when given."""
        f = as_planes(f)
        out = np.multiply(-4.0, f, out=out)
        for axis in ("y", "x"):
            _add_neighbours(f, out, axis)
        out /= self.h**2
        return out

    # -- quadrature -----------------------------------------------------------

    def integrate(self, f, region=None) -> float | complex:
        """h^2-weighted node sum over the domain (or a boolean ``region``).

        A block writes its values into a zero grid of its parent's shape and
        sums that by the parent's rule, so the node sum adds in the parent's
        order: a field that is zero outside the block has the bits of its
        whole-chart integral."""
        f = np.asarray(f)
        if self._parent is not None:
            parent, at = self._parent
            whole = np.zeros(parent.shape + f.shape[2:], f.dtype)
            whole[at] = f
            return parent.integrate(whole, region)
        mask = self.domain_mask if region is None else region
        out = f[mask].sum() * self.h**2
        return complex(out) if np.iscomplexobj(f) else float(out)

    def interp(self, f, px, py) -> np.ndarray:
        """Bilinear interpolation of a node field at physical points.

        Node indices wrap on both topologies (a disk chart rejects points
        outside its square).  A multi-component field is gathered from its
        component-major view, so the result has the points' shape plus the
        component axes and is stored component-major as well."""
        f = np.asarray(f)
        n, h = self.n, self.h
        gx = (np.asarray(px) - self.x[0, 0]) / h
        gy = (np.asarray(py) - self.y[0, 0]) / h
        if self.topology == "disk" and not ((0 <= gx) & (gx <= n - 1)
                                            & (0 <= gy) & (gy <= n - 1)).all():
            raise ValueError("interpolation point outside the disk chart square")
        ix0 = np.floor(gx).astype(int)
        iy0 = np.floor(gy).astype(int)
        tx = gx - ix0
        ty = gy - iy0
        ix0 %= n
        iy0 %= n
        ix1 = (ix0 + 1) % n
        iy1 = (iy0 + 1) % n
        # Gather from the (*comp, n * n) planes: np.take keeps the component
        # axes outermost, where fancy indexing would put the points there.
        planes = f.transpose(tuple(range(2, f.ndim)) + (0, 1)).reshape(f.shape[2:] + (n * n,))

        def at(iy, ix):
            return np.take(planes, iy * n + ix, axis=-1)

        out = ((1 - tx) * (1 - ty) * at(iy0, ix0) + tx * (1 - ty) * at(iy0, ix1)
               + (1 - tx) * ty * at(iy1, ix0) + tx * ty * at(iy1, ix1))
        lead = out.ndim - tx.ndim
        return out.transpose(tuple(range(lead, out.ndim)) + tuple(range(lead)))

    def circle_points(self, r: float, n_theta: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Equispaced angles and the corresponding points on |z| = r."""
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        return theta, r * np.cos(theta), r * np.sin(theta)

    def _check_radius(self, r: float) -> None:
        """Raise ValueError unless circle quadrature at radius r fits this disk
        chart, 4h <= r <= 1 - 4h; the message names the least n that fits."""
        if self.topology != "disk":
            raise ValueError("circle quadrature requires a disk chart")
        if not (4.0 * self.h <= r <= 1.0 - 4.0 * self.h):
            edge = min(r, 1.0 - r)
            least = f"n >= {math.ceil(4.0 * self.side / edge)}" if edge > 0 else "no n fits"
            raise ValueError(f"radius {r} outside [4h, 1 - 4h] = "
                             f"[{4 * self.h:.4f}, {1 - 4 * self.h:.4f}], so {least}")


def bandlimited_field(chart: DomainChart, rng, components=(), kmax: int = 3,
                      amplitude: float = 1.0, modes=None) -> np.ndarray:
    """Random smooth field: a real trigonometric polynomial per component,
    sum over k != 0 of a_k cos(k . t) + b_k sin(k . t), scaled so that its
    peak magnitude is ``amplitude``.

    Periodic on the chart's square, so it is smooth on the torus.  ``modes``
    optionally restricts which |k| enter (e.g. (2, 3) to exclude the slowest
    heat mode).  The coefficients are drawn kx outer, ky inner, a then b.
    The synthesis is separable: by the addition formulas it contracts the
    drawn coefficients with 1-D cos/sin tables over kx, then over ky, so no
    full-grid trigonometric evaluation is made.
    """
    shape = tuple(components)
    ks = np.arange(-kmax, kmax + 1)
    m = len(ks)
    # One draw fills the kept modes in C order (kx outer, ky inner), a then b
    # per mode: the stream order of one draw per coefficient block.
    radius = np.abs(ks).tolist()
    kept = np.array([[0 < max(rx, ry) and (modes is None or max(rx, ry) in modes)
                      for ry in radius] for rx in radius])
    drawn = rng.normal(size=(int(kept.sum()), 2) + shape)
    a = np.zeros((m, m) + shape)
    b = np.zeros((m, m) + shape)
    a[kept], b[kept] = drawn[:, 0], drawn[:, 1]
    a = a.reshape(m, m, -1)
    b = b.reshape(m, m, -1)
    tx = ks[:, None] * (2.0 * np.pi * (chart.x[0] / chart.side))
    ty = ks[:, None] * (2.0 * np.pi * (chart.y[:, 0] / chart.side))
    # cos(kx tx + ky ty) = cx cy - sx sy and sin(...) = sx cy + cx sy:
    # contract over kx into the coefficients of cy and of sy, then over ky.
    x_table = np.concatenate([np.cos(tx), np.sin(tx)])
    of_cy = np.einsum("kyc,kj->yjc", np.concatenate([a, b]), x_table)
    of_sy = np.einsum("kyc,kj->yjc", np.concatenate([b, -a]), x_table)
    out = np.einsum("yi,yjc->ijc", np.concatenate([np.cos(ty), np.sin(ty)]),
                    np.concatenate([of_cy, of_sy]))
    out = out.reshape(chart.shape + shape)
    peak = np.abs(out).max()
    if peak > 0:
        out /= peak
        out *= amplitude
    return out


class MoebiusMap:
    """Fractional linear map f(z) = (a z + b) / (c z + d), normalized ad - bc = 1.

    The holomorphic square root of the derivative, s(z) = 1 / (c z + d)
    with f'(z) = s(z)^2, is globally single-valued thanks to the
    normalization, which is what the half-spinor pullback needs.
    """

    def __init__(self, a, b, c, d):
        det = a * d - b * c
        if abs(det) < 1e-14:
            raise ValueError("degenerate Moebius coefficients")
        root = np.sqrt(complex(det))
        self.a, self.b, self.c, self.d = (np.complex128(t / root) for t in (a, b, c, d))

    @classmethod
    def disk_automorphism(cls, a, theta: float = 0.0) -> "MoebiusMap":
        """f(z) = e^{i theta} (z - a) / (1 - conj(a) z) with |a| < 1."""
        a = complex(a)
        if abs(a) >= 1.0:
            raise ValueError("disk automorphism needs |a| < 1")
        w = np.exp(1j * theta)
        return cls(w, -w * a, -np.conj(a), 1.0)

    def __call__(self, z):
        """f(z); raises if z hits the pole."""
        z = np.asarray(z, dtype=np.complex128)
        den = self.c * z + self.d
        if (np.abs(den) < 1e-12).any():
            raise ValueError("Moebius pole inside the evaluation set")
        return (self.a * z + self.b) / den

    def sqrt_derivative(self, z) -> np.ndarray:
        """The global holomorphic root s(z) = 1/(c z + d), s^2 = f'."""
        z = np.asarray(z, dtype=np.complex128)
        return 1.0 / (self.c * z + self.d)
