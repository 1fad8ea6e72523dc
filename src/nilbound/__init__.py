"""Bounds, constructions, and exhaustive search for the maximum order of
nilpotent transitive permutation groups."""

from .bounds import (
    asymptotic_coefficient,
    best_composition,
    binomial_lower,
    bound_report,
    class2_exponent,
    combine_multiplicative,
    composition_value,
    elementary_bound,
    f_closed,
    f_upper,
    monomial_count,
)
from .constructions import (
    GroupBlueprint,
    abelian_class2_group,
    affine_unitriangular,
    blueprint_from_json,
    dihedral_times_abelian,
    iterated_wreath_sylow,
    make_blueprint,
    product_action,
    realize,
    wreath_polynomial_group,
)
from .perm import (
    CentralSeries,
    GroupError,
    GuardExceeded,
    PermGroup,
    Permutation,
    center,
    commutator,
    lower_central_series,
)
from .search import (
    audit_row,
    enumerate_subgroups,
    fnil_exact,
)

__all__ = [
    "CentralSeries",
    "GroupBlueprint",
    "GroupError",
    "GuardExceeded",
    "PermGroup",
    "Permutation",
    "abelian_class2_group",
    "affine_unitriangular",
    "asymptotic_coefficient",
    "audit_row",
    "best_composition",
    "binomial_lower",
    "blueprint_from_json",
    "bound_report",
    "center",
    "class2_exponent",
    "combine_multiplicative",
    "commutator",
    "composition_value",
    "dihedral_times_abelian",
    "elementary_bound",
    "enumerate_subgroups",
    "f_closed",
    "f_upper",
    "fnil_exact",
    "iterated_wreath_sylow",
    "lower_central_series",
    "make_blueprint",
    "monomial_count",
    "product_action",
    "realize",
    "wreath_polynomial_group",
]

__version__ = "0.1.0"
