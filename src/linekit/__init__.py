"""linekit: construction and certification of line sets with few angles.

Importing the package loads no layer module: each public name is imported
from its home module on first access (PEP 562), so a process that needs only
the exact bounds never loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

#: home module -> the public names it exports, in `__all__` order
_EXPORTS = {
    "finite_algebra": (
        "AbelianGroup", "GaloisField", "GaloisRing", "GroupAlgebraElement", "gf_create",
        "gf_trace", "gr_create", "gr_trace", "group_characters",
    ),
    "jacobi": (
        "BoundQuery", "JacobiFamily", "absolute_bound", "dim_harm", "dim_hom",
        "expand_in_basis", "flat_eal_bound", "jacobi_poly", "real_mub_gate",
        "relative_bound", "welch_bound",
    ),
    "linesets": (
        "DegreeSetReport", "DesignReport", "LineSet", "canonical_dephase", "design_strength",
        "gram_degree_set", "lineset_from_json", "lineset_to_json",
        "phase_align_for_doubling", "real_doubling", "verify_equiangular", "verify_mub",
    ),
    "mubs": (
        "MubFamily", "SemifieldTable", "alltop_mubs", "hadamard6", "semifield_from_csv",
        "semifield_mubs", "semifield_to_csv", "spin_model_mubs", "tensor_mubs",
        "type_ii_check", "wf_mubs",
    ),
    "groupcodes": (
        "DifferenceSetReport", "GraphWithSpectrum", "LinearCode", "classify_difference_set",
        "code_to_lines", "code_weights", "coset_spectrum", "cover_graph", "diffset_from_json",
        "diffset_lines", "diffset_to_json", "dual_code", "field_rds", "linear_code_from_csv",
        "linear_code_to_csv", "rds_to_mubs", "semifield_rds", "singer_difference_set",
    ),
    "schemes": (
        "SchemeReport", "SeidelReport", "gram_algebra_check", "jacobi_idempotents",
        "scheme_from_lineset", "scheme_to_json", "seidel_analysis",
    ),
    "sics": (
        "DisplacementGroup", "FiducialCandidate", "almost_flat_params", "appleby_candidates",
        "builtin_fiducial", "displacement", "verify_sic", "wh_orbit",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"linekit.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
