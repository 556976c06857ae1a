"""Local-ring computational algebra and singularity-theory toolkit for
scalar bifurcation problems g(x, lambda)."""

from .jets import (
    BlockOrder,
    GrLexOrder,
    Jet,
    LexOrder,
    LocalOrder,
    monomials_upto,
)
from .germexpr import (
    GermSyntaxError,
    NonUnitDivisorError,
    UnknownVariableError,
    parse_and_expand,
    parse_germ,
    taylor_expand,
)
from .localalg import (
    DivisionResult,
    InfiniteCodimensionError,
    StandardBasis,
    buchberger,
    codimension,
    colon_ideal,
    eliminate,
    ideal_intersection,
    mora_divide,
    mult_matrix,
    normal_set,
    standard_basis,
)
from .intrinsic import (
    IntrinsicIdeal,
    high_order_part,
    intrinsic_part,
    smallest_intrinsic,
    verify_germ,
    verify_ideal,
    working_degree,
)
from .singularity import (
    NotEquivalentError,
    ParameterCountError,
    UnfoldingGerm,
    ZeroGermError,
    alg_objects,
    check_universal,
    equivalent,
    make_unfolding,
    normal_form,
    recognition_normal_form,
    recognition_unfolding,
    restricted_tangent,
    tangent_perp,
    tangent_space,
    transformation,
    universal_unfolding,
)
from .bifurcation import (
    Diagram,
    RegionCatalog,
    TransitionSet,
    bifurcation_diagram,
    classify_regions,
    nonpersistent_sets,
    render_diagram,
    render_transition_slice,
    transition_set,
)

__version__ = "0.1.0"
