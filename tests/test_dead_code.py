"""Dead-code guard over ``src/syscat``, read with ``ast`` alone.

A module other than the package's ``__init__`` (whose imports are its
re-exports) uses every name it imports. A public top-level definition that
no code in ``src/`` or ``bench/`` names is test-only; the set of those is
pinned, so a new one, or one that gains a caller, shows up here and in
ROADMAP item 4, which lists them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "syscat"
INIT = PACKAGE / "__init__.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p != INIT)

TEST_ONLY = {
    "booldual": {"compose_bool_morphisms", "identity_hom", "pushout_bool"},
    "carriers": {"product_mediate"},
    "equations": {"compose_equation_morphisms", "identity_equation_morphism"},
    "generalized": {
        "embed_equation_morphism",
        "image_system_morphism",
        "obj_eq",
        "obj_eq_morphism",
        "pullback_gen_equations",
        "pullback_gen_systems",
    },
    "systems": {
        "classify_morphism",
        "compose_morphisms",
        "factors_through",
        "identity_morphism",
        "project_latent",
        "span_into_product",
        "terminal_system",
    },
    "vect": {"projection_onto", "to_sparse"},
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _named(tree: ast.AST) -> set[str]:
    """Every name the code reads: bare names and attributes, not strings or docstrings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree: ast.AST) -> set[str]:
    """The names an import binds, without ``from __future__``'s flags."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    return bound


def test_every_module_uses_what_it_imports():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        unused += [f"{path.stem}: {name}" for name in sorted(_imported(tree) - _named(tree))]
    assert unused == []


def test_the_test_only_definitions_are_the_listed_ones():
    callers = set()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        if path != INIT:
            callers |= _named(_tree(path))
    test_only = {}
    for path in MODULES:
        public = {
            node.name
            for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
        if public - callers:
            test_only[path.stem] = public - callers
    assert test_only == TEST_ONLY
