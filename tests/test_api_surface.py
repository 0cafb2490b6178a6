"""Guard on the package surface, by static analysis of the sources (``ast``).

1. Every public top-level function, class or instance (a name bound to
   the result of a call) of ``src/gmult`` is referenced by name outside
   its own definition: in another ``src/gmult`` definition, in
   ``tests/test_acceptance.py``, or in backticks in the README.
   ``cli.main`` is the program's root.  Strings in ``__all__`` and the
   imports of ``__init__`` do not count.
2. ``gmult/__init__.py`` re-exports exactly the library names the README
   documents in backticks.
3. Every defaulted parameter of a public function, or of a public method
   of a public class, is passed (by keyword or by position) by some call in
   ``src/gmult`` or ``tests/test_acceptance.py``: an option that no caller
   sets is a constant.  A call with ``*args`` or ``**kwargs`` counts as
   passing every parameter.
4. No function of ``src/gmult`` mutates a module-level name: no subscript
   assignment or deletion on it, no mutating method call on it, no
   ``global``; and no module-level ``functools.cache`` or ``lru_cache``
   exists, whether it decorates a function (or a method of a top-level
   class) or is bound to a name.  Hidden module state makes a result
   depend on what ran before it.  A cache made inside a function, for one
   call, is allowed.
5. Every option of every ``gmult`` subcommand is named in the README.
"""
import ast
import re
from pathlib import Path

import pytest

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


def _public_names(tree):
    """(name, node) of the public definitions and of the public names
    bound at top level to the result of a call, such as an instance."""
    return ([(node.name, node) for node in _public_defs(tree)]
            + [(target.id, node) for node in tree.body
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Call)
               for target in node.targets
               if isinstance(target, ast.Name)
               and not target.id.startswith("_")])


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
        for name, node in _public_names(tree):
            if (mod, name) in ROOTS or name in outside:
                continue
            used = any(name in _names_in(other)
                       for other_tree in modules.values()
                       for other in other_tree.body
                       if other is not node)
            if not used:
                unreferenced.append(f"{mod}.{name}")
    assert not unreferenced, (
        "public definitions that nothing in src, the acceptance suite or "
        f"the README refers to: {unreferenced}")


def test_init_reexports_exactly_the_documented_names():
    library = {name for mod, tree in _modules().items() if mod != "cli"
               for name, _ in _public_names(tree)}
    documented = _readme_names() & library
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert exported == documented, (
        f"exported but not documented: {sorted(exported - documented)}; "
        f"documented but not exported: {sorted(documented - exported)}")


def _public_functions(tree):
    """(function, leading parameters no call passes) for the public
    functions and the public methods of public classes: ``self`` or
    ``cls`` of a method that is not a ``staticmethod``."""
    for node in _public_defs(tree):
        if isinstance(node, ast.FunctionDef):
            yield node, 0
            continue
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in sub.decorator_list)
                yield sub, 0 if static else 1


def _defaulted(fn, bound):
    """(call position or None, name) of each parameter with a default;
    keyword-only parameters have no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _passes(call, position, name):
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_option_is_set_by_some_caller():
    modules = _modules()
    callers = list(modules.values()) + [
        ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())]
    calls = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    unset = [f"{mod}.{fn.name}({name})"
             for mod, tree in modules.items()
             for fn, bound in _public_functions(tree)
             for position, name in _defaulted(fn, bound)
             if not any(_passes(call, position, name)
                        for call in calls.get(fn.name, ()))]
    assert not unset, (
        "defaulted parameters that no call in src or the acceptance suite "
        f"sets; make them constants: {unset}")


#: Module-level state that functions may mutate, each with its measured
#: reason.  None: the probe's fixed rules are constants built at import,
#: and its one walk per scale asks for each band-sized rule once.
MUTABLE_STATE = set()
_MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop",
             "popitem", "clear", "add", "discard", "remove"}


def _module_level_names(tree):
    names = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, (ast.AnnAssign,
                                                      ast.AugAssign))
                   else [])
        names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _local_names(fn):
    """Parameters and names a function binds itself, nested definitions
    included (a shadowing name is not the module's)."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    names |= {sub.id for sub in ast.walk(fn)
              if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
    return names


def _mutated_module_names(fn, module_names):
    """Module-level names the function mutates."""
    hit = set()
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Global):
            hit.update(sub.names)
        elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                              ast.Delete)):
            targets = (sub.targets if isinstance(sub, (ast.Assign, ast.Delete))
                       else [sub.target])
            hit.update(t.value.id for t in targets
                       if isinstance(t, ast.Subscript)
                       and isinstance(t.value, ast.Name))
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
              and sub.func.attr in _MUTATORS
              and isinstance(sub.func.value, ast.Name)):
            hit.add(sub.func.value.id)
    return hit & (module_names - _local_names(fn))


_CACHES = {"cache", "lru_cache"}


def _is_cache(node):
    """Whether an expression is ``functools.cache`` or ``lru_cache``, bare
    or through the module, or a call of one (``lru_cache(maxsize=8)`` and
    ``cache(f)`` alike)."""
    if isinstance(node, ast.Call):
        return _is_cache(node.func)
    return ((isinstance(node, ast.Name) and node.id in _CACHES)
            or (isinstance(node, ast.Attribute) and node.attr in _CACHES))


def _module_caches(tree):
    """Names of the module-level caches: top-level functions and methods
    of top-level classes with a cache decorator, and top-level names bound
    to a cache."""
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    defs += [sub for node in tree.body if isinstance(node, ast.ClassDef)
             for sub in node.body
             if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
    names = {fn.name for fn in defs if any(map(_is_cache, fn.decorator_list))}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value \
                is not None and _is_cache(node.value):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_no_function_mutates_module_state():
    mutated = set()
    for mod, tree in _modules().items():
        names = _module_level_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mutated |= {(mod, name)
                            for name in _mutated_module_names(node, names)}
        mutated |= {(mod, name) for name in _module_caches(tree)}
    assert mutated == MUTABLE_STATE, (
        f"module-level state that functions mutate or caches hold: "
        f"{sorted(mutated)}; only {sorted(MUTABLE_STATE)} may be")


@pytest.mark.parametrize("source, caches", [
    ("import functools\n@functools.cache\ndef f(n): pass", {"f"}),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\n"
     "def f(n): pass", {"f"}),
    ("import functools\ndef f(n): pass\ng = functools.lru_cache(f)",
     {"g"}),
    ("import functools\nh = functools.cache(lambda n: n)", {"h"}),
    ("import functools\nclass A:\n    @functools.cache\n"
     "    def f(self): pass", {"f"}),
    # a cache made inside a function lives for one call
    ("import functools\ndef f(n):\n    @functools.cache\n"
     "    def g(k): pass\n    return g(n)", set()),
    ("import functools\ndef f(n): pass", set()),
])
def test_module_caches_are_found(source, caches):
    assert _module_caches(ast.parse(source)) == caches


def test_every_cli_option_is_in_the_readme():
    from gmult.cli import _build_parser

    readme = (ROOT / "README.md").read_text()
    commands = next(action for action in _build_parser()._actions
                    if action.choices).choices
    missing = sorted(f"{name} {option}"
                     for name, parser in commands.items()
                     for action in parser._actions
                     for option in action.option_strings
                     if option.startswith("--") and option != "--help"
                     and not re.search(re.escape(option) + r"(?![\w-])",
                                       readme))
    assert not missing, f"options the README does not name: {missing}"
