"""Extrinsic geometry of the target manifold.

Two targets are implemented: the round unit sphere S^n inside R^{n+1}
and flat R^K.  Each supplies one primitive, the unit normal frame at a
point: ``(p,)`` on the sphere (the outward normal is the point itself)
and ``()`` for flat space.  Everything else is built from the frame, once,
on the base class: the tangent projection X - sum_nu nu <nu, X>, the
second fundamental form A, the shape operator P, and the curvature tensor
assembled from A through the Gauss equation

    R(X, Y) Z = P(A(Y, Z); X) - P(A(X, Z); Y)      (flat ambient space).

Both targets are totally umbilic with unit principal curvatures along
every normal, so A(X, Y) = -<X, Y> sum_nu nu and P(xi; X) =
-sum_nu <xi, nu> X.  On the unit sphere this gives R(X, Y) Z =
<Y, Z> X - <X, Z> Y and sectional curvature +1; in flat space all three
vanish.

All methods broadcast: points and vectors are arrays with the ambient
index last, and vector slots accept complex arrays (the same formulas
extended complex-linearly), which is how spinor-valued tangent vectors
are handled.
"""

from __future__ import annotations

import numpy as np

from .charts import empty_planes


def _dot(u, v, out=None):
    """<u, v> over the ambient axis; ``out`` receives the products."""
    return np.multiply(u, v, out=out).sum(axis=-1)


def frame_sum(terms, shape, dtype=float):
    """Sum of per-normal terms, zeros of ``shape`` over an empty frame.

    The sum starts from the first term, so a one-normal frame returns that
    term bit for bit.
    """
    terms = list(terms)
    return sum(terms[1:], terms[0]) if terms else np.zeros(shape, dtype)


def ambient_pairing(v, arr, out=None, work=None):
    """<v, arr> for an array whose ambient axis is -2 (v carries it last),
    summed in index order over slices: no reduction over a strided axis.

    ``out`` receives the pairing and ``work``, an array shaped like it,
    each further product; neither may overlap ``v`` or ``arr``, and each
    is allocated when None."""
    out = np.multiply(v[..., 0, None], arr[..., 0, :], out=out)
    for i in range(1, arr.shape[-2]):
        out += np.multiply(v[..., i, None], arr[..., i, :], out=work)
    return out


def normal_part(frame, arr, out=None):
    """sum_nu nu (x) <nu, arr>, the normal part of an array whose ambient
    axis is -2; tangent projection is ``arr - normal_part(frame, arr)``.

    Written into ``out``, an array shaped like ``arr`` that does not overlap
    it, or a new component-major array; zeros over an empty frame.  The
    first normal's pairing is formed in ``out``'s first ambient slot, each
    product in its last, so one normal needs no other array; each further
    normal adds a new term."""
    out = empty_planes(arr.shape, arr.dtype) if out is None else out
    if not frame:
        out[...] = 0
        return out
    nu, *rest = frame
    ambient_pairing(nu, arr, out=out[..., 0, :], work=out[..., -1, :])
    # The pairing, as the first ambient slot; one view of it as both input
    # and output of the last product, which numpy then runs in place.
    pairing = out[..., :1, :]
    np.multiply(nu[..., 1:, None], pairing, out=out[..., 1:, :])
    np.multiply(nu[..., :1, None], pairing, out=pairing)
    for nu in rest:
        out += normal_part((nu,), arr)
    return out


class TargetGeometry:
    """Common interface; subclasses supply project_point and normal_frame."""

    ambient_dim: int
    kind: str

    def project_point(self, p, out=None):
        raise NotImplementedError

    def normal_frame(self, p) -> tuple:
        """Orthonormal normal fields at p, each shaped like p."""
        raise NotImplementedError

    def off_target(self, p) -> float:
        """Sup over the frame of | |nu|^2 - 1 |: the frame is unit only on
        the target, so on the sphere this is | |p|^2 - 1 |; 0.0 for flat."""
        return max((float(np.abs(_dot(nu, nu) - 1.0).max()) for nu in self.normal_frame(p)),
                   default=0.0)

    def tangent_project(self, p, X, out=None):
        """X - sum_nu nu <nu, X>, written into ``out`` (not overlapping X)
        when given."""
        X = np.asarray(X)
        normal = normal_part(self.normal_frame(p), X[..., None],
                             out=None if out is None else out[..., None])[..., 0]
        return np.subtract(X, normal, out=normal)

    def second_fundamental(self, p, X, Y):
        """A(X, Y) = -<X, Y> sum_nu nu after projecting X, Y tangent."""
        X = self.tangent_project(p, X)
        Y = self.tangent_project(p, Y)
        xy = _dot(X, Y)[..., None]
        return frame_sum((-xy * nu for nu in self.normal_frame(p)),
                         np.broadcast_shapes(X.shape, Y.shape))

    def shape_operator(self, p, xi, X):
        """P(xi; X) = -sum_nu <xi, nu> X; X is projected tangent first."""
        X = self.tangent_project(p, X)
        xi = np.asarray(xi)
        return frame_sum((-_dot(xi, nu)[..., None] * X for nu in self.normal_frame(p)),
                         X.shape)

    def curvature(self, p, X, Y, Z):
        """Gauss-equation curvature from A and P; inputs are projected first."""
        p = np.asarray(p)
        X = self.tangent_project(p, X)
        Y = self.tangent_project(p, Y)
        Z = self.tangent_project(p, Z)
        return (self.shape_operator(p, self.second_fundamental(p, Y, Z), X)
                - self.shape_operator(p, self.second_fundamental(p, X, Z), Y))


class Sphere(TargetGeometry):
    """Round unit sphere S^dim embedded in R^{dim+1}."""

    def __init__(self, dim: int = 2):
        if dim < 1:
            raise ValueError("sphere dimension must be >= 1")
        self.dim = dim
        self.ambient_dim = dim + 1
        self.kind = "sphere"

    def project_point(self, p, out=None):
        """p / |p|, written into ``out`` (not overlapping p) when given; out
        holds the squares of p until the division."""
        p = np.asarray(p, dtype=float)
        out = np.empty_like(p) if out is None else out
        norm = np.sqrt(_dot(p, p, out=out))
        if (norm < 1e-300).any():
            raise ValueError("cannot project the origin to the sphere")
        return np.divide(p, norm[..., None], out=out)

    def normal_frame(self, p) -> tuple:
        return (np.asarray(p),)


class Flat(TargetGeometry):
    """R^K with the identity chart: no normals, so A, P and the curvature
    all vanish."""

    def __init__(self, ambient_dim: int):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        self.ambient_dim = ambient_dim
        self.kind = "flat"

    def project_point(self, p, out=None):
        p = np.asarray(p, dtype=float)
        if out is None:
            return p
        out[...] = p
        return out

    def normal_frame(self, p) -> tuple:
        return ()

