"""Exact calculus for oriented cohomology theories at a truncation order.

The package provides, over exact rational arithmetic:

* sparse truncated multivariate power series (`occ.series`),
* formal group laws: additive, multiplicative and a rational model of the
  universal law with free coefficient generators (`occ.fgl`),
* Chern-class calculus for split bundles via the splitting principle
  (`occ.bundles`),
* projective-bundle quotient rings, towers and residue-formula Gysin
  pushforwards (`occ.projective`),
* K-theory and additive specializations: Chern characters, Todd classes,
  Euler-characteristic and Riemann-Roch style cross-checks
  (`occ.specialization`),
* independent oracles for those checks: the binomial Euler characteristic,
  the closed form of [P(L + O)] and the pushforward in the logarithmic
  coordinate, which import only the series kernel and the laws
  (`occ.oracles`),
* a deterministic command line front end (`occ.cli`).
"""

from .series import (
    CalculusError,
    Context,
    ContextMismatch,
    NotAUnit,
    NotDivisible,
    NotSymmetric,
    Series,
    SubstitutionError,
    Var,
    elementary_symmetric,
    exact_divide,
    exp_of,
    first_difference,
    invert_unit,
    log1p_of,
    symmetric_reduce,
)
from .fgl import (
    ADDITIVE,
    FormalGroupLaw,
    MULTIPLICATIVE,
    UNIVERSAL,
    custom_law,
    make_law,
)
from .bundles import SplitBundle, whitney_check
from .projective import (
    ProjBundleRing,
    class_of_proj_line,
    geometric_fgl_check,
    pb_relation_check,
    projection_formula_check,
    pushforward_p1_formula,
    sequence_extend,
    tower_classes,
)
from .oracles import k_chi_oracle
from .specialization import (
    SpecializationMap,
    ch_a,
    ch_m,
    conner_floyd_check,
    grr_check,
    k_euler_characteristic,
    specialize,
    todd,
    todd_factor,
    twist_class,
)
from .reports import CheckItem, Report

__all__ = [
    "ADDITIVE",
    "CalculusError",
    "CheckItem",
    "Context",
    "ContextMismatch",
    "FormalGroupLaw",
    "MULTIPLICATIVE",
    "NotAUnit",
    "NotDivisible",
    "NotSymmetric",
    "ProjBundleRing",
    "Report",
    "Series",
    "SpecializationMap",
    "SplitBundle",
    "SubstitutionError",
    "UNIVERSAL",
    "Var",
    "ch_a",
    "ch_m",
    "class_of_proj_line",
    "conner_floyd_check",
    "custom_law",
    "elementary_symmetric",
    "exact_divide",
    "exp_of",
    "first_difference",
    "geometric_fgl_check",
    "grr_check",
    "invert_unit",
    "k_chi_oracle",
    "k_euler_characteristic",
    "log1p_of",
    "make_law",
    "pb_relation_check",
    "projection_formula_check",
    "pushforward_p1_formula",
    "sequence_extend",
    "specialize",
    "symmetric_reduce",
    "todd",
    "todd_factor",
    "tower_classes",
    "twist_class",
    "whitney_check",
]
