"""Exact workbench for Hom-Lie superalgebras and the ternary brackets
induced by supertrace functionals of their representations."""

from .binary import (HomLieSuper, SuperBracket2, change_of_basis, is_ideal,
                     is_subalgebra, verify_hom_jacobi, verify_morphism,
                     verify_multiplicative, verify_skew, yau_twist)
from .cohomology import (Cochain, apply_coboundaries, apply_coboundary,
                         binary_adjoint_cocycle_space,
                         bracket_cochain, coboundary_matrix, cochain_keys,
                         cocycles, cohomology_dims, induce_cocycle,
                         make_cochain, verify_1cocycle_transfer,
                         verify_class_transfer, verify_lemma_identity)
from .extensions import (CentralExtensionData, build_central_extension,
                         extension_isomorphism, induce_extension,
                         verify_extension)
from .graded import (GradedMap, GradedSpace, HomAlgebra, canonicalize,
                     graded_space, identity_map, koszul_sign, skew_basis,
                     supertrace, zero_map)
from .linalg import (Fraction, InputError, Matrix, PreconditionError,
                     Subspace, frac, kernel, rank, solve)
from .reps import (Representation, TraceFunctional, adjoint_representation,
                   trace_functional, trace_kernel, verify_representation,
                   zero_representation)
from .series import (SeriesResult, binary_center, binary_central_series,
                     binary_derived_series, central_series,
                     compare_central_series, derived_series, find_unit,
                     ternary_center, verify_center_transfer,
                     verify_solvability_theorem)
from .ternary import (SuperBracket3, TernaryHomLieSuper, check_twist_commutes,
                      ideal_criterion, induce_ternary, verify_hom_nambu,
                      verify_induced_homomorphism, verify_ternary_multiplicative,
                      verify_ternary_skew)

__version__ = "0.1.0"
