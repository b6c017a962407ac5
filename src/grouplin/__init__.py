"""Promise 3-LIN over finite group templates, verifiable at desk scale."""

from .errors import (
    CapExceeded,
    DecompositionFailed,
    DimensionMismatch,
    GroupLinError,
    IncompleteTable,
    InvalidParams,
    MissingVariable,
    NoExtension,
    NoIdentity,
    NoInverse,
    NoOmega,
    NonIntegerMultiplicity,
    NotAssociative,
)
from .groups import (
    FiniteGroup,
    GroupPower,
    Homomorphism,
    Subgroup,
    Template,
    fold,
    full_subgroup,
    identity_hom,
    make_group,
    make_homomorphism,
    subgroup,
    subgroup_closure,
    trivial_subgroup,
    validate_template,
)
from .reps import (
    IrrepSet,
    UnitaryRep,
    eta,
    irreps,
    multiplicity,
    regular_representation,
    right_regular,
)
from .fourier import (
    FourierTable,
    MatrixFn,
    ProductIrrep,
    convolve,
    inverse,
    noise_apply,
    plancherel_gap,
    product_irreps,
    transform,
)
from .reduction import (
    AssignmentFamily,
    LabelCoverInstance,
    LinEquation,
    LinSystem,
    ReductionParams,
    build_system,
    evaluate,
    evaluate_family,
    family_assignment,
    lc_value,
    make_label_cover,
    payoff_distribution,
    projection_family,
)
from .solvers import brute_force_opt, derandomize, derandomized_value, non_cubic_solve, random_expectation
from .decoder import (
    DecoderContext,
    OmegaChoice,
    Strategy,
    alpha,
    decode,
    derandomize_strategy,
    high_degree_mass,
    influence_probs,
    kappa,
    make_context,
    penalized_margin,
    select_omega,
    trivial_term_bound,
)

__version__ = "0.1.0"
