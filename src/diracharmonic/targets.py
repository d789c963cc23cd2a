"""Extrinsic geometry of the target manifold.

Two targets are implemented: the round unit sphere S^n inside R^{n+1}
and flat R^K.  Each supplies one primitive, its unit normal at a point
or none: ``p`` on the sphere (the outward normal is the point itself)
and ``None`` for flat space.  The tangent projection X - nu <nu, X> is
built from it once, on the base class.

The coupling terms of ``fields`` and ``identities`` read the geometry
through the same normal: the unit sphere is totally umbilic with unit
principal curvatures, so A(X, Y) = -<X, Y> nu and the Gauss equation
gives R(X, Y) Z = <Y, Z> X - <X, Z> Y (sectional curvature +1); flat
space has no normal and all of them vanish.

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


def normal_part(nu, arr, out=None):
    """nu (x) <nu, arr>, the normal part of an array whose ambient axis is
    -2; tangent projection is ``arr - normal_part(nu, arr)``.

    Written into ``out``, an array shaped like ``arr`` that does not overlap
    it, or a new component-major array; zeros when ``nu`` is None (no
    normal).  The pairing is formed in ``out``'s first ambient slot, each
    product in its last, so no other array is needed."""
    out = empty_planes(arr.shape, arr.dtype) if out is None else out
    if nu is None:
        out[...] = 0
        return out
    ambient_pairing(nu, arr, out=out[..., 0, :], work=out[..., -1, :])
    # The pairing, as the first ambient slot; one view of it as both input
    # and output of the last product, which numpy then runs in place.
    pairing = out[..., :1, :]
    np.multiply(nu[..., 1:, None], pairing, out=out[..., 1:, :])
    np.multiply(nu[..., :1, None], pairing, out=pairing)
    return out


class TargetGeometry:
    """Common interface; subclasses supply project_point and normal."""

    ambient_dim: int
    kind: str

    def project_point(self, p, out=None):
        raise NotImplementedError

    def normal(self, p):
        """The unit normal field at p, shaped like p, or None (no normal)."""
        raise NotImplementedError

    def off_target(self, p) -> float:
        """| |nu|^2 - 1 |: the normal is unit only on the target, so on the
        sphere this is | |p|^2 - 1 |; 0.0 without a normal."""
        nu = self.normal(p)
        return 0.0 if nu is None else float(np.abs(_dot(nu, nu) - 1.0).max())

    def tangent_project(self, p, X, out=None):
        """X - nu <nu, X>, written into ``out`` (not overlapping X) when
        given."""
        X = np.asarray(X)
        normal = normal_part(self.normal(p), X[..., None],
                             out=None if out is None else out[..., None])[..., 0]
        return np.subtract(X, normal, out=normal)


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

    def normal(self, p):
        return np.asarray(p)


class Flat(TargetGeometry):
    """R^K with the identity chart: no normal, so the second fundamental
    form and the curvature vanish."""

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

    def normal(self, p):
        return None

