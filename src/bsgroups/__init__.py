"""Exact computation in Baumslag-Solitar groups BS(m,n).

BS(m,n) = < a, t | t^-1 a^m t = a^n >.  The package solves the word problem
through Britton normal forms, computes lower-central-series weights for the
solvable groups BS(1,n) through their affine representation over Z[1/n],
does arithmetic in the free-product quotient Z * Z_d with its free
commutator basis, certifies non-membership in lower central series terms
by finite nilpotent quotients, classifies residual properties of every
BS(m,n), and constructs britton-verified commutator witnesses.

The public names below are loaded on first use (PEP 562), so ``import
bsgroups`` is cheap and a program pays only for the modules it touches.
"""

import importlib
import sys

# ``classify`` is also a submodule name.  Importing a submodule sets the
# package attribute of that name to the module, but only when the submodule
# is first loaded; binding the function here, after that load, keeps
# ``bsgroups.classify`` the function whatever is imported later.
from .classify import classify

__version__ = "0.1.0"

_EXPORTS = {
    "affine": (
        "AffineElem", "Weight", "ZnElement", "affine_group", "canonical_word",
        "gamma_quot_image", "lcs_weight", "to_affine", "zn_add", "zn_canon",
    ),
    "britton": (
        "AbImage", "BrittonNF", "BSParams", "abelianize", "bs_group", "nf_equal",
        "nf_invert", "nf_multiply", "normalize",
    ),
    "classify": ("ChainReport", "ClassReport", "canonical_form", "classify", "prop5_chain"),
    "errors": (
        "BsError", "DomainError", "ExponentCapExceeded", "ParseError", "VerificationError",
        "WordSizeExceeded",
    ),
    "finquot": (
        "Certificate", "GammaChain", "SearchBudget", "Semidirect", "Wreath",
        "build_semidirect", "build_wreath", "certify_not_in_gamma", "fq_eval",
        "fq_gamma_series", "quotient_family",
    ),
    "freeprod": (
        "BasisWord", "CentralSplit", "FreeProdWord", "fp_normalize", "fp_rewrite_basis",
        "free_subgroup_probe", "lift_basis", "r_generators", "split_central",
    ),
    "witness": (
        "MembershipWitness", "OmegaStabilityReport", "gamma_membership_witness",
        "lemma2_witness", "omega_stability_check",
    ),
    "words": (
        "Commutator", "Gen", "Group", "Power", "Product", "Word", "evaluate",
        "evaluate_text", "gamma_weight_lower_bound", "parse_expr", "parse_word", "power",
        "pretty_print",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Not cached in the package namespace: every lookup reads the defining
    # module, so a name rebound there (a tracer, a mock) is seen here too.
    # sys.modules first: import_module takes the module's import lock even
    # when it is loaded, which costs several times the lookup itself.
    home = _HOME.get(name)
    if home is not None:
        try:
            return getattr(sys.modules[home], name)
        except (KeyError, AttributeError):  # not loaded, or still loading
            return getattr(importlib.import_module(home), name)
    if not name.startswith("__"):
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
