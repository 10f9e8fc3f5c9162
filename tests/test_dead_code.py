"""Dead-code guard over ``src/syscat``, read with ``ast`` alone.

A module other than the package's ``__init__`` (which binds modules it
never reads) uses every name it imports. A top-level definition that no code
in ``src/`` or ``bench/`` names is test-only; an import alias is not a name
the code reads, so importing a definition does not count as naming it. So is
one that only test-only definitions name: a helper kept for them alone. The
public test-only definitions are pinned, so a new one, or one that gains a
caller, shows up here and in ROADMAP item 4, which lists them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "syscat"
INIT = PACKAGE / "__init__.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p != INIT)

TEST_ONLY = {
    "booldual": {
        "BoolPushout",
        "BoolSystem",
        "BoolSystemMorphism",
        "bool_morphism_of",
        "bool_system_of",
        "compose_bool_morphisms",
        "compose_homs",
        "identity_hom",
        "pushout_bool",
        "system_morphism_of",
        "system_of_bool",
    },
    "carriers": {"product_mediate"},
    "equations": {"compose_equation_morphisms", "identity_equation_morphism"},
    "generalized": {
        "embed_equation",
        "embed_equation_morphism",
        "image_system",
        "image_system_morphism",
        "obj_eq",
        "obj_eq_morphism",
        "pullback_gen_equations",
        "pullback_gen_systems",
    },
    "systems": {
        "MorphismClass",
        "classify_morphism",
        "compose_morphisms",
        "factors_through",
        "identity_morphism",
        "product_systems",
        "project_latent",
        "span_into_product",
        "terminal_system",
    },
    "vect": {"coordinate_map", "projection_onto", "to_sparse"},
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
    trees = {
        path: _tree(path)
        for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    }
    definitions = {
        (path, node.name)
        for path in MODULES
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }

    def unnamed(skipped):
        """The definitions that no top-level statement outside ``skipped`` names."""
        callers = set()
        for path, tree in trees.items():
            for node in tree.body:
                if (path, getattr(node, "name", None)) not in skipped:
                    callers |= _named(node)
        return {(path, name) for path, name in definitions if name not in callers}

    test_only = unnamed(set())
    while more := unnamed(test_only) - test_only:
        test_only |= more
    public = {}
    for path, name in test_only:
        if not name.startswith("_"):
            public.setdefault(path.stem, set()).add(name)
    assert public == TEST_ONLY
