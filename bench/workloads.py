"""Workload definitions shared by the harness and the operation process.

A benchmark seed selects one of VARIANTS input variants (seed mod
VARIANTS).  Variant 0 is the default scenario of each workload.  The other
variants keep the work of one operation the same, so that timings taken on
different seeds are comparable:

- verify-disk-n128 changes the config's ``output.seed``, which draws the
  random inputs of the algebra, flat-Dirac, twistor and self-adjointness
  checks and the compact pair of the conformal-invariance check.
- flow-coupled-n64 applies a target rotation and a grid translation, both
  symmetries of the map flow, to the initial map.  The solver's seeded
  random spinor start is not transformed, so every variant extracts a
  different near-kernel spinor.
- flow-heat-n64 rescales the torus side L and the residual tolerance by
  1/L^2.  The discrete zero-spinor flow is invariant under that rescaling,
  so every variant takes the same steps on arrays that differ at round-off.

This module imports nothing outside the standard library.
"""

from __future__ import annotations

VARIANTS = 8

VERIFY = "verify-disk-n128"
COUPLED = "flow-coupled-n64"
HEAT = "flow-heat-n64"
WORKLOADS = (VERIFY, COUPLED, HEAT)

VERIFY_CONFIG_SEEDS = tuple(7 + 1000 * v for v in range(VARIANTS))
HEAT_SIDES = (1.0, 1.1, 0.9, 1.25, 0.8, 1.5, 0.7, 1.3)
HEAT_TOL = 1e-2

# flow-coupled-n64, the acceptance-09 scenario: perturbation and solver.
COUPLED_N = 64
COUPLED_PERTURBATION = {"rng_seed": 9, "kmax": 3, "amplitude": 0.05, "modes": (2, 3)}
COUPLED_SOLVER = {"seed": 4, "reproject_every": 100, "power_iters": 4,
                  "trace_every": 50, "residual_tol": 1e-2, "max_iters": 2000}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def verify_config(variant: int) -> str:
    return ("[chart]\ntopology = disk\nn = 128\n\n"
            "[scenario]\nkind = twistor_pushforward\npsi1 = 0.2,-0.1j\n\n"
            f"[output]\nseed = {VERIFY_CONFIG_SEEDS[variant]}\n")


def heat_residual_tol(variant: int) -> float:
    return HEAT_TOL / HEAT_SIDES[variant] ** 2


def heat_config(variant: int) -> str:
    return (f"[chart]\ntopology = torus\nn = 64\nside = {HEAT_SIDES[variant]!r}\n\n"
            "[scenario]\nkind = perturbed_constant\namplitude = 0.5\nmodes = 2,3\n\n"
            f"[solver]\nresidual_tol = {heat_residual_tol(variant)!r}\n"
            "max_iters = 4000\ntrace_every = 50\n\n"
            "[output]\nseed = 5\n")


def config_text(workload: str, variant: int) -> str | None:
    """Config file the CLI workloads hand to ``dhm``; None for the library one."""
    if workload == VERIFY:
        return verify_config(variant)
    if workload == HEAT:
        return heat_config(variant)
    return None
