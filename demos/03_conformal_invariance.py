# Conformal invariance pins the spinor rescaling convention
#
# Composing with a conformal self-map f of the chart leaves the action
# and the quartic energy invariant once the spinor is rescaled by a half
# power of the conformal factor -- but "conformal factor" admits two
# readings.  With the rescaling written psi~ = lambda^(-1/2) psi o f,
# lambda = |f'| and lambda = 1/|f'| cannot both work: this script
# measures which one does.
#
# The pullback also carries the holomorphic half-spinor phases
# (conj(s), s) with s^2 = f', taken from the globally defined root
# s = 1/(cz + d); with modulus-only factors the action is not invariant
# under automorphisms whose derivative rotates.

import diracharmonic as dh
from diracharmonic.verify import canonical_compact_pair

print(__doc__ or "")

maps = [("disk automorphism a=0.4", dh.MoebiusMap.disk_automorphism(0.4)),
        ("disk automorphism a=0.25+0.2i, rotated", dh.MoebiusMap.disk_automorphism(0.25 + 0.2j, theta=0.7)),
        ("similarity 0.8 z + 0.05", dh.MoebiusMap(0.8, 0.05, 0.0, 1.0))]

for name, f in maps:
    print(f"== {name}")
    # One call per grid: (action, energy) per convention.
    defects = [dh.conformal_invariance_defect(*canonical_compact_pair(n), [f]) for n in (64, 128)]
    for conv, label in (("inverse_fprime", "lambda = 1/|f'|  (psi x |f'|^+1/2)"),
                        ("fprime", "lambda = |f'|    (psi x |f'|^-1/2)")):
        (a0, e0), (a1, e1) = defects[0][conv], defects[1][conv]
        print(f"   {label}")
        print(f"     action defect {a0:.2e} -> {a1:.2e}  (ratio {a0 / a1:4.2f})")
        print(f"     energy defect {e0:.2e} -> {e1:.2e}  (ratio {e0 / e1:4.2f})")
    print()

print("A ratio of ~4 under grid doubling marks second-order vanishing: the")
print("lambda = 1/|f'| reading (equivalently, multiplying psi by |f'|^(1/2))")
print("is the invariant one.  The same exponent appears in the blow-up")
print("rescaling psi(x) -> |x0|^(1/2) psi(x0 + |x0| x) that preserves the")
print("energy near a singularity.")
