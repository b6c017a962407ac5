"""Promise 3-LIN over finite group templates, verifiable at desk scale.

The public names load their module on first use (PEP 562), so importing the
package, or one module of it, loads no module it does not need.
"""

import importlib

# module -> the public names it exports here
_EXPORTS = {
    "errors": (
        "CapExceeded", "DecompositionFailed", "DimensionMismatch", "GroupLinError", "IncompleteTable",
        "InvalidParams", "MissingVariable", "NoExtension", "NoIdentity", "NoInverse", "NoOmega",
        "NonIntegerMultiplicity", "NotAssociative",
    ),
    "groups": (
        "FiniteGroup", "GroupPower", "Homomorphism", "Subgroup", "Template", "fold", "full_subgroup",
        "identity_hom", "make_group", "make_homomorphism", "subgroup", "subgroup_closure",
        "trivial_subgroup", "validate_template",
    ),
    "reps": ("IrrepSet", "UnitaryRep", "eta", "irreps", "multiplicity", "regular_representation", "right_regular"),
    "fourier": (
        "FourierTable", "MatrixFn", "ProductIrrep", "convolve", "inverse", "noise_apply", "plancherel_gap",
        "product_irreps", "transform",
    ),
    "reduction": (
        "AssignmentFamily", "LabelCoverInstance", "LinEquation", "LinSystem", "ReductionParams",
        "build_system", "evaluate", "evaluate_family", "family_assignment", "lc_value", "make_label_cover",
        "payoff_distribution", "projection_family",
    ),
    "solvers": ("brute_force_opt", "derandomize", "derandomized_value", "non_cubic_solve", "random_expectation"),
    "decoder": (
        "DecoderContext", "OmegaChoice", "Strategy", "alpha", "decode", "derandomize_strategy",
        "high_degree_mass", "influence_probs", "kappa", "make_context", "penalized_margin", "select_omega",
        "trivial_term_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
