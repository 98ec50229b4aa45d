"""Static checks on ``src/seacurves``, made on the syntax tree alone.

Every name a module imports is used there or exported: listed in its
``__all__``, or imported by a package ``__init__`` that has no ``__all__``
(whose imports are its public names).  Every module-level private name is
referenced somewhere in ``src/`` beyond its own definition.  Names read
only from outside ``src/`` are listed in ``_READ_ELSEWHERE`` with the
reason.  Every defaulted parameter of a module-level private function is
passed, by position or by keyword, by some call in ``src/``: a default no
caller overrides is a constant dressed as an option.  ``object.__setattr__``
appears only in constructors (``__init__``, ``__new__``, ``__post_init__``,
``_from_vec``).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "seacurves").rglob("*.py"))

_READ_ELSEWHERE = {
    ("scalars", "_RAT"): "bench/run.py records it in each run's environment",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text("utf-8"), filename=str(path))


def _exported(path: Path, tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return _imported(tree) if path.name == "__init__.py" else set()


def _loaded(tree: ast.Module) -> set:
    """Every name the module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _imported(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _private_definitions(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _module_name(path: Path) -> str:
    return path.stem if path.stem != "__init__" else path.parent.name


@pytest.mark.parametrize("path", MODULES, ids=_module_name)
def test_every_import_is_used_or_exported(path):
    tree = _tree(path)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    assert sorted(_imported(tree) - loaded - _exported(path, tree)) == []


def test_every_private_name_is_referenced():
    trees = {_module_name(p): _tree(p) for p in MODULES}
    referenced = set().union(*(_loaded(t) for t in trees.values()))
    unused = [(mod, name) for mod, tree in trees.items()
              for name in sorted(_private_definitions(tree) - referenced)
              if (mod, name) not in _READ_ELSEWHERE]
    assert unused == []


def test_read_elsewhere_names_still_exist():
    for mod, name in _READ_ELSEWHERE:
        assert name in _private_definitions(_tree(SRC / "seacurves" / f"{mod}.py"))


def _defaulted_params(func: ast.FunctionDef) -> list:
    """(position or None, name) of each parameter that has a default."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults)
            if d is not None]
    return out


def _passes(call: ast.Call, position, name: str) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_private_default_is_passed_somewhere():
    trees = {_module_name(p): _tree(p) for p in MODULES}
    calls = [node for t in trees.values() for node in ast.walk(t) if isinstance(node, ast.Call)]
    dead = [(mod, func.name, name) for mod, tree in trees.items() for func in tree.body
            if isinstance(func, ast.FunctionDef) and func.name.startswith("_")
            and not func.name.endswith("__")
            for position, name in _defaulted_params(func)
            if not any(_callee(c) == func.name and _passes(c, position, name) for c in calls)]
    assert dead == []


_CONSTRUCTORS = {"__init__", "__new__", "__post_init__", "_from_vec"}


def _setattr_sites(tree: ast.Module) -> list:
    """(enclosing function or None, line) of each ``object.__setattr__``."""
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                sites.append((func, child.lineno))
            visit(child, func)

    visit(tree, None)
    return sites


def test_object_setattr_only_while_constructing():
    """Values are immutable: ``object.__setattr__`` fills a slot of a value
    being built, never one already handed out (a memo written on read)."""
    writes = [(_module_name(p), func, line) for p in MODULES
              for func, line in _setattr_sites(_tree(p)) if func not in _CONSTRUCTORS]
    assert writes == []
