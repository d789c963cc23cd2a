# Exact critical pairs of the coupled map/spinor functional
#
# Three closed-form families solve the coupled system
#     tension(phi) = curvature_term(phi, psi),    D psi = 0:
#
#   1. a harmonic map with zero spinor,
#   2. a constant map with a constant (harmonic) tangent spinor,
#   3. the twistor pushforward psi^i = sum_a (e_a . Psi) d_a phi^i of an
#      affine twistor spinor along a conformal map.
#
# This script builds each family and checks the residuals at two grid
# resolutions: second-order stencils make every residual shrink by ~4x
# when h is halved.

import numpy as np

import diracharmonic as dh

print(__doc__ or "")

# %% Family 1: the equator-wrapping geodesic of the torus --------------------
print("== harmonic map family (geodesic wrap, psi = 0)")
for n in (64, 128):
    chart = dh.DomainChart.torus(n)
    phi = dh.harmonic_wrap(chart)
    psi = dh.TwistedSpinorField.zero(chart, phi.target)
    res = dh.el_residual(phi, psi)
    print(f"  n={n:4d}  map residual sup = {res.norms['map_sup']:.3e}")

# %% Family 2: constant map + constant tangent spinor -------------------------
print("== constant map + harmonic spinor family")
chart = dh.DomainChart.torus(64)
phi, psi = dh.constant_spinor_pair(chart, dh.Sphere(2), base_point=(0, 0, 1),
                                   spinor_direction=(1, 0, 0), spinor_components=(1, 0.5j))
res = dh.el_residual(phi, psi)
print(f"  residuals: map {res.norms['map_sup']:.1e}, "
      f"spinor {res.norms['spinor_sup']:.1e}  (exact at machine precision)")

# %% Family 3: twistor pushforward along a degree-1 conformal map -------------
# The map is the inverse stereographic image of R(z) = z, sampled on a
# torus chart whose central window keeps the (non-periodic) seam out of
# every norm.
print("== twistor pushforward family (windowed torus)")
for n in (64, 128):
    chart = dh.DomainChart.torus(n, side=1.0, window=0.5)
    phi = dh.conformal_map_field(dh.RationalMap([0, 1]), chart)
    psi = dh.twistor_pushforward(phi, dh.spinor(1, 0), dh.spinor(0.2, -0.1j))
    res = dh.el_residual(phi, psi)
    print(f"  n={n:4d}  map {res.norms['map_sup']:.3e}  "
          f"spinor {res.norms['spinor_sup']:.3e}  "
          f"tangency {dh.tangency_defect(phi, psi):.1e}  "
          f"curvature term {np.abs(dh.curvature_term(phi, psi)).max():.1e}")

# %% A fully periodic variant --------------------------------------------------
# Quotients of theta functions give a degree-2 elliptic conformal map of
# the whole square torus: the same pushforward construction with a
# constant twistor seed then yields an exact pair with no window at all.
print("== elliptic (doubly periodic) pushforward family")
for n in (64, 128):
    chart = dh.DomainChart.torus(n)
    phi = dh.elliptic_conformal_field(chart, scale=0.7)
    psi = dh.twistor_pushforward(phi, dh.spinor(1, 0.5j), dh.spinor(0, 0))
    res = dh.el_residual(phi, psi)
    print(f"  n={n:4d}  map {res.norms['map_sup']:.3e}  "
          f"spinor {res.norms['spinor_sup']:.3e}")
E = dh.DomainChart.torus(192)
phi = dh.elliptic_conformal_field(E, scale=0.7)
energy = E.integrate((phi.analytic_gradient ** 2).sum(axis=(-2, -1)))
print(f"  Dirichlet energy {energy:.6f} = 16 pi = {16 * np.pi:.6f} (degree 2)")
