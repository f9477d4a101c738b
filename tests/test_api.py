"""The public API of `occ` is the list `occ.__all__`, pinned here.

A name added to or removed from the package's surface changes this list,
so the change is made on purpose, with its reason in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

import occ

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = [
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


def test_public_names_are_pinned():
    assert len(PUBLIC) == 45
    assert occ.__all__ == PUBLIC
    assert all(hasattr(occ, name) for name in PUBLIC)


def test_import_loads_no_dataclasses_inspect_or_typing():
    # these three cost about as much to import as occ itself
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import occ, occ.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
