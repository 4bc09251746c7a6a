"""The private names one gboost module imports from another, pinned.

A name with a leading underscore is its module's own. Where another module
of the package imports one, the reach is listed in ``ALLOWED``; a new one
fails here until it is listed, and a listed one that is gone fails until it
is struck off. So a reach into another module's internals is a decision
the diff shows, not a drift.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gboost"

# (importing module, imported module, name)
ALLOWED = {
    ("enhance", "fst", "_check_symbol"),
    ("enhance", "fst", "_derived"),
    ("enhance", "fst", "_rewrite"),
    ("evaluate", "enhance", "_word_list"),
    ("graph", "fst", "_Columns"),
}


def private_imports():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level:  # a relative import: from .fst, from . import fst
                module = f"gboost.{module}" if module else "gboost"
            if module != "gboost" and not module.startswith("gboost."):
                continue
            source = module.removeprefix("gboost").lstrip(".")
            found.update((path.stem, source, alias.name) for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_cross_module_private_imports_are_pinned():
    found = private_imports()
    assert not found - ALLOWED, (
        f"new imports of another gboost module's private names: {sorted(found - ALLOWED)}; "
        "use a public name, or list the import in ALLOWED")
    assert not ALLOWED - found, (
        f"listed in ALLOWED but no longer imported: {sorted(ALLOWED - found)}; strike them off")

