"""`occ.oracles` stays independent of the pushforward it checks.

The oracles are worth something only if they share no code with the
residue template beyond the series kernel and the laws, so this reads the
imports of `src/occ/*.py` and follows those of `occ` modules from
`oracles.py`.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "occ")
ALLOWED = {"oracles", "series", "fgl", "reports"}
FORBIDDEN = ("ProjBundleRing", "pushforward_template", "_line_class", "class_of_proj_line", "tower_classes")


def occ_imports(module):
    """The `occ` modules that `module` imports, relatively or absolutely, anywhere in it."""
    with open(os.path.join(SRC, f"{module}.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
            out.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        # `import occ` and `from occ import x` run the package's __init__
        out.update((n.split(".") + ["__init__"])[1] for n in names if n.split(".")[0] == "occ")
    return out


def import_closure(start):
    seen, todo = set(), [start]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(occ_imports(module))
    return seen


def test_oracles_import_only_the_kernel_and_the_laws():
    assert import_closure("oracles") <= ALLOWED, import_closure("oracles") - ALLOWED
    # the reader is not blind: the checks module reaches the rings
    assert {"projective", "bundles", "oracles"} <= import_closure("specialization")


def test_oracles_never_name_the_pushforward_machinery():
    with open(os.path.join(SRC, "oracles.py"), encoding="utf-8") as fh:
        text = fh.read()
    assert [name for name in FORBIDDEN if name in text] == []

