"""solvlie: exact orbital data and admissibility for groups N x| H.

Input: structure constants of a nilpotent algebra n with an abelian algebra
h acting diagonalizably (no purely imaginary roots). Output: adapted bases,
jump-set layers, orbit cross-sections, little-group and Plancherel data,
and the admissibility verdict for the natural representation on L^2(N).
"""

from .algebra import (HypothesisViolation, LieAlgebraSpec, SpecFormatError,
                      load_spec, parse_spec_text, require_noncommutative,
                      spec_from_dict, trace_ad, validate_spec)
from .adapted import AdaptableBasis, ConstructionFailedError, HintInvalidError, \
    build_adaptable_basis
from .functionals import (Functional, NeedsFloatError, NotUnipotentError,
                          exp_h_coadjoint, exp_unipotent_coadjoint,
                          sample_functional)
from .gaussian import GaussianRational, parse_gaussian
from .linalg import Subspace
from .strata import (InconsistentSamplingError, JumpData, LayerDescriptor,
                     LayerMismatchError, NotSkewError, OddDimensionError,
                     SectionVectors, UnsupportedCaseError, generic_layer,
                     jump_data, layer_descriptor, pfaffian, section_vectors)
from .sections import (NormalizationFailedError, NotInSectionError,
                       SectionOracle, StabilizerData, UnsupportedLayerError,
                       h_project, sample_lambda_nu, sample_sigma_circ,
                       stabilizer_data)
from .admissibility import (INFINITE, AdmissibilityReport, CenterData,
                            IsotropyError, PolarizationData, center_data,
                            disintegration_check, multiplicity,
                            polarization_data, unimodularity,
                            verdict_from_parts)
from .workbench import PipelineError, Workbench

__version__ = "0.1.0"
