"""cfz: point counts, Frobenius traces and local zeta factors for a
special cubic fourfold and its associated K3 surface."""

from .cache import CountCache
from .cmforms import (CANDIDATE_FORMS, CornacchiaSolution, CubicCharacter,
                      EisensteinInt, NewformDescriptor, ap_base,
                      ap_via_eisenstein, cornacchia_4p, fermat_comparison,
                      identify_form, twisted_ap)
from .counting import (CountRecord, VarietySpec, builtin_variety,
                       count_fermat_cubic, count_pairsum_convolution,
                       count_points_generic, count_S_fibered, count_variety,
                       points_on_variety)
from .fields import (FiniteField, enumerate_projective, field_of_order,
                     field_tables, find_irreducible, quadratic_root_count)
from .fourfold import (LinearMapP5, automorphism_subgroup,
                       verify_pfaffian_map_identity)
from .grassmann import (PlueckerVector, is_decomposable,
                        max_linear_subspace_dim, pluecker_relations)
from .lattice import (GramMatrix2, associated_k3_degree, discriminant,
                      special_admissible)
from .polynomials import MultiHomPoly, Poly, parse_poly
from .zeta import (LocalFactor, TraceRecord, algebraic_trace_split,
                   assemble_fourfold_factors, fourfold_count_from_surface,
                   hilbert_square_count, local_factor_cm, reconstruct_count,
                   residue_zero_check, trace_from_count)

__version__ = "0.1.0"
