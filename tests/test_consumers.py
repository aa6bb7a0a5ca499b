"""Every public top-level function and class of the package has a consumer in src/ or bench/."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "shascope").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# Public names with no reference in src/ or bench/, kept on purpose.
ALLOWED = set()


def _exported(tree):
    """The names a module lists in a literal __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from (elt.value for elt in node.value.elts)


def _references(tree, module):
    """The names tree references: Name ids, Attribute attrs, and the
    ImportFrom aliases that module (the file holding tree) uses or exports.

    An import alone is no reference: a stale `from .m import name` would
    otherwise keep a dead name alive. Matching is by name alone, so a name
    that is also a method elsewhere (set.add and ffcurve.add) counts as
    consumed: this misses some dead names but never flags a live one.
    """
    used = set(_exported(module))
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names if (a.asname or a.name) in used)


def test_every_public_name_has_a_consumer():
    refs = Counter()
    defs = []  # (module.name, name, references inside its own definition)
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        refs.update(_references(tree, tree))
        if path.parent.name == "shascope":
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                    own = sum(name == node.name for name in _references(node, tree))
                    defs.append((f"{path.stem}.{node.name}", node.name, own))
    assert {qual for qual, name, own in defs if refs[name] == own} == ALLOWED
