"""Projective spectral profiles of unitaries and conjugacy-generation
certificates.

The package computes trace-normalized singular value profiles, their
projective refinements (minimized over a global phase), and constructive
certificates writing a target unitary as a product of conjugates of a base
unitary within explicit length budgets.

`import normgen` loads no submodule: each public name below is imported
from its submodule on first access (PEP 562) and then kept here.
"""

import importlib

# submodule -> the public names it exports at the package level
_EXPORTS = {
    "config": ("TOL", "Tolerances"),
    "errors": (
        "BudgetInfeasibleError",
        "CertificateFormatError",
        "DegenerateInputError",
        "DimensionError",
        "DomainError",
        "EmbeddingBlowupError",
        "HypothesisError",
        "NumericalDegeneracyError",
        "PreconditionError",
        "ValidationError",
    ),
    "spectral": (
        "CircleSpectrum",
        "Monomial",
        "RankDistance",
        "SpectralProfile",
        "UnitaryRep",
        "canon_angle",
        "chord",
        "diagonalize_normal",
        "haar_unitary",
        "one_norm",
        "profile_mean",
        "projective_one_norm",
        "projective_profile",
        "projective_s_number",
        "singular_values",
        "two_norm",
    ),
    "orderings": (
        "AngleSumOrdering",
        "OptimalOrdering",
        "angle_sum_optimalize",
        "center_phase",
        "gap_sandwich_check",
        "optimalize",
    ),
    "su2": ("walk_length",),
    "certificate": (
        "CertRun",
        "CertStep",
        "Certificate",
        "certificate_product",
        "theorem_budget",
        "verify_certificate",
    ),
    "generation": (
        "HypothesisReport",
        "counterexample_pair",
        "generate_full",
        "generate_rank_dependent",
        "generate_rank_independent",
        "hypothesis_check",
    ),
    "symmetries": (
        "Symmetry",
        "block_symmetry_factors",
        "broise_kernel_certificate",
    ),
    "commutator": (
        "aux_inequality_check",
        "llbound_diagnostic",
    ),
    "rational": (
        "RationalSpectrum",
        "approx_stability_check",
        "lcm_embed",
        "pipeline_generate",
        "rational_approximate",
    ),
    "corpus": (
        "admissible_pair",
        "admissible_rational_pair",
        "random_spectrum",
        "run_corpus",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
