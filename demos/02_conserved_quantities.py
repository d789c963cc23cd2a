# Conserved quantities as measurable defects
#
# Solutions of the coupled system carry a symmetric divergence-free
# energy-momentum tensor and a holomorphic quadratic differential; every
# twisted spinor satisfies a Weitzenboeck identity unconditionally, and
# solutions additionally satisfy a Bochner identity for |psi|^2 and a
# Pohozaev-type circle balance on the disk.  Each identity becomes a
# defect functional: ~0 at stencil order on solutions, order one on
# generic fields.

import numpy as np

import diracharmonic as dh

print(__doc__ or "")


def exact_pair(n, topology):
    if topology == "torus":
        chart = dh.DomainChart.torus(n, side=1.0, window=0.5)
    else:
        chart = dh.DomainChart.disk(n)
    phi = dh.conformal_map_field(dh.RationalMap([0, 1]), chart)
    psi = dh.twistor_pushforward(phi, dh.spinor(1, 0), dh.spinor(0.2, -0.1j))
    return chart, phi, psi


def random_pair(n):
    chart = dh.DomainChart.torus(n)
    rng = np.random.default_rng(0)
    sphere = dh.Sphere(2)
    base = np.zeros(chart.shape + (3,))
    base[..., 2] = 1.0
    phi = dh.MapField(chart, sphere, sphere.project_point(
        base + dh.bandlimited_field(chart, rng, components=(3,), kmax=2, amplitude=0.6)))
    psi = dh.project_spinor(phi, dh.bandlimited_field(chart, rng, components=(3, 2), kmax=2)
                            + 1j * dh.bandlimited_field(chart, rng, components=(3, 2), kmax=2))
    return chart, phi, psi


# %% Energy-momentum tensor ----------------------------------------------------
# em_defects reads all three conservation laws off one T = energy_momentum(phi, psi).
print("== energy-momentum tensor: symmetry and divergence")
for n in (64, 128):
    _, phi, psi = exact_pair(n, "torus")
    sym, div, _ = dh.em_defects(phi, psi)
    print(f"  n={n:4d}  |T12 - T21| = {sym:.2e}   L2 divergence = {div:.3e}")
_, phi, psi = random_pair(64)
print(f"  random fields: L2 divergence = {dh.em_defects(phi, psi)[1]:.3e}   (negative control)")

# %% Quadratic differential ------------------------------------------------------
print("== quadratic differential T dz^2, T = T11 - i T12")
for n in (64, 128):
    _, phi, psi = exact_pair(n, "torus")
    print(f"  n={n:4d}  dbar defect = {dh.em_defects(phi, psi)[2]:.3e}")
_, phi, _ = exact_pair(96, "torus")
d = phi.analytic_gradient  # the map part of T from the exact gradient
dx, dy = d[..., 0, :], d[..., 1, :]
map_part = (dx**2).sum(-1) - (dy**2).sum(-1) - 2j * (dx * dy).sum(-1)
print(f"  conformal map alone: sup |T| = {np.abs(map_part).max():.2e} "
      "(conformality kills the map part exactly)")

# %% Weitzenboeck and Bochner -----------------------------------------------------
print("== second-order spinor identities")
for n in (64, 128):
    _, phi, psi = random_pair(n)
    print(f"  n={n:4d}  unconditional defect = {dh.weitzenboeck_defect(phi, psi):.3e}"
          "  (random pair: still holds)")
for n in (64, 128):
    _, phi, psi = exact_pair(n, "torus")
    print(f"  n={n:4d}  conditional |psi|^2 Laplacian defect = "
          f"{dh.bochner_defect(phi, psi, dh.field_scale(phi, psi)):.3e}")

# %% Pohozaev circle balance --------------------------------------------------------
print("== circle balance on the disk")
for n in (64, 128):
    _, phi, psi = exact_pair(n, "disk")
    for r in (0.25, 0.5, 0.75):
        print(f"  n={n:4d} r={r}: balance defect (larger of radial, angular) "
              f"{dh.pohozaev_defect(phi, psi, r):.2e}")
