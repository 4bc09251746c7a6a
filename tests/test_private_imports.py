"""The private names one gboost module takes from another, pinned.

A name with a leading underscore is its module's own. Where another module
of the package imports one, the reach is listed in ``ALLOWED``; where it
reads or sets one off an object other than ``self``, and the name is one
another module defines, the reach is listed in ``ALLOWED_ATTRIBUTES``. A
new one fails here until it is listed, and a listed one that is gone fails
until it is struck off. So a reach into another module's internals is a
decision the diff shows, not a drift.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gboost"

# (importing module, imported module, name)
ALLOWED = {
    ("cli", "fst", "_file_digest"),
    ("enhance", "fst", "_check_symbol"),
    ("enhance", "fst", "_derived"),
    ("evaluate", "enhance", "_word_list"),
    ("graph", "fst", "_Columns"),
}

# (reaching module, attribute name)
ALLOWED_ATTRIBUTES = {
    ("enhance", "_sym2lab"),
    ("graph", "_sym2lab"),
    ("graph", "_tables"),
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _on_self(node):
    return isinstance(node.value, ast.Name) and node.value.id == "self"


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def private_imports():
    found = set()
    for stem, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level:  # a relative import: from .fst, from . import fst
                module = f"gboost.{module}" if module else "gboost"
            if module != "gboost" and not module.startswith("gboost."):
                continue
            source = module.removeprefix("gboost").lstrip(".")
            found.update((stem, source, alias.name) for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_cross_module_private_imports_are_pinned():
    found = private_imports()
    assert not found - ALLOWED, (
        f"new imports of another gboost module's private names: {sorted(found - ALLOWED)}; "
        "use a public name, or list the import in ALLOWED")
    assert not ALLOWED - found, (
        f"listed in ALLOWED but no longer imported: {sorted(ALLOWED - found)}; strike them off")


def defined_names(tree):
    """The private top-level and class-body names, slots and ``self`` attributes of a module."""
    names = set()
    for body in [tree.body] + [node.body for node in ast.walk(tree)
                               if isinstance(node, ast.ClassDef)]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(target.id for target in targets if isinstance(target, ast.Name))
                if any(isinstance(target, ast.Name) and target.id == "__slots__"
                       for target in targets):
                    names.update(elt.value for elt in node.value.elts)
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                 and _on_self(node))
    return set(filter(_private, names))


def private_attributes():
    trees = _trees()
    defined = {stem: defined_names(tree) for stem, tree in trees.items()}
    found = set()
    for stem, tree in trees.items():
        others = set().union(*(names for other, names in defined.items() if other != stem))
        found.update((stem, node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and not _on_self(node)
                     and node.attr in others)
    return found


def test_private_attribute_reads_across_modules_are_pinned():
    found = private_attributes()
    assert not found - ALLOWED_ATTRIBUTES, (
        f"new reads of another gboost module's private attributes: "
        f"{sorted(found - ALLOWED_ATTRIBUTES)}; use a public name, or list the read in "
        "ALLOWED_ATTRIBUTES")
    assert not ALLOWED_ATTRIBUTES - found, (
        f"listed in ALLOWED_ATTRIBUTES but no longer read: "
        f"{sorted(ALLOWED_ATTRIBUTES - found)}; strike them off")
