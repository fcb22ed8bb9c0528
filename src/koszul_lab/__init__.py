"""Cubes of modules over polynomial rings: Koszul cubes, admissibility,
directional homology, and constructive resolution by typical cubes."""

from .arith import (
    ParseError,
    Poly,
    RingMismatchError,
    RingSpec,
    parse_poly,
)
from .groebner import (
    IdealBasis,
    SubmoduleBasis,
    grade,
    ideal_dimension,
    ideal_intersection,
    ideal_quotient,
    module_quotient,
    radical_membership,
    syzygies,
)
from .modcalc import (
    CapExceededError,
    Complex,
    FPModule,
    FreeMap,
    LiftError,
    cokernel,
    determinant_of_square,
    fitting_ideal,
    homology,
    is_injective,
    is_zero_module,
    min_annihilating_power,
    zero_spherical,
)
from .cube import (
    ADMISSIBILITY_STRATEGIES,
    Cube,
    ModCube,
    Report,
    degenerate_directions,
    directional_homology,
    is_admissible,
    iterated_h0,
    nondegenerate_part,
    restrict,
    subset_key,
    total_complex,
    validate_cube,
)
from .koszul import (
    KoszulVerdict,
    SequenceReport,
    be_acyclicity,
    det_is_a_sequence,
    determinant,
    factor_sequence_check,
    generators_presentation,
    is_A_sequence,
    is_koszul_cube,
    is_reduced_koszul,
    is_regular_sequence,
    random_koszul,
    typical_cube,
    verify_weight_decomposition,
)
from .resolve import (
    ResolutionInput,
    ResolutionOutput,
    ResolutionStage,
    check_resolution,
    find_exponents,
    koszul_resolve,
)

__version__ = "0.1.0"
