"""Coupled harmonic-map / spinor fields on flat 2D charts: exact solutions,
conserved-quantity verification, and a relaxation solver."""

__version__ = "0.1.0"

from .charts import DomainChart, MoebiusMap, bandlimited_field
from .fields import (ELResidual, InadmissiblePair, MapField, TwistedSpinorField, action,
                     check_pair, curvature_term, dirac_along_map, el_residual, energy,
                     field_scale, project_spinor, tangency_defect, tension)
from .identities import (bochner_defect, conformal_invariance_defect, decay_profile,
                         em_defects, energy_momentum, pohozaev_defect,
                         self_adjointness_defect, weitzenboeck_defect)
from .config import ConfigError, RunConfig, build_pair, load_config, parse_config
from .fieldio import FieldFileError, FieldHeader, read_field, read_header, write_field
from .solutions import (RationalMap, conformal_map_field, constant_spinor_pair,
                        elliptic_conformal_field, harmonic_wrap, stereo_pair,
                        twistor_pushforward)
from .solver import SolveReport, SolverConfig, dirac_project, flow_step, solve
from .spinors import (clifford_mul, flat_dirac, re_pairing, spinor,
                      spinor_norm2, twistor_defect, twistor_field)
from .targets import Flat, Sphere, TargetGeometry
from .verify import run_verification, run_verification_on_fields
