"""Guard on the package surface, by static analysis of the sources (``ast``).

1. Every public top-level function or class of ``src/gmult`` is referenced
   by name outside its own definition: in another ``src/gmult``
   definition, in ``tests/test_acceptance.py``, or in backticks in the
   README.  ``cli.main`` is the program's root.  Strings in ``__all__``
   and the imports of ``__init__`` do not count.
2. ``gmult/__init__.py`` re-exports exactly the library names the README
   documents in backticks.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gmult"
#: The program's entry point, which nothing inside the package calls.
ROOTS = {("cli", "main")}


def _modules():
    """Parsed package modules by name, ``__init__`` left out."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def _public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _names_in(node):
    """Identifiers a node refers to, as bare names or attributes; string
    constants (such as the entries of ``__all__``) and the names an
    import statement binds are not references."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _readme_names():
    return set(re.findall(r"`([A-Za-z_]\w*)`",
                          (ROOT / "README.md").read_text()))


def test_every_public_definition_is_referenced():
    modules = _modules()
    outside = _names_in(ast.parse((ROOT / "tests" / "test_acceptance.py")
                                  .read_text())) | _readme_names()
    unreferenced = []
    for mod, tree in modules.items():
        for node in _public_defs(tree):
            if (mod, node.name) in ROOTS or node.name in outside:
                continue
            used = any(node.name in _names_in(other)
                       for other_tree in modules.values()
                       for other in other_tree.body
                       if other is not node)
            if not used:
                unreferenced.append(f"{mod}.{node.name}")
    assert not unreferenced, (
        "public definitions that nothing in src, the acceptance suite or "
        f"the README refers to: {unreferenced}")


def test_init_reexports_exactly_the_documented_names():
    library = {node.name for mod, tree in _modules().items() if mod != "cli"
               for node in _public_defs(tree)}
    documented = _readme_names() & library
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert exported == documented, (
        f"exported but not documented: {sorted(exported - documented)}; "
        f"documented but not exported: {sorted(documented - exported)}")
