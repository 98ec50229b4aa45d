"""Static checks on ``src/seacurves``, made on the syntax tree alone.

Every name a module imports is used there or exported: listed in its
``__all__``, or imported by a package ``__init__`` that has no ``__all__``
(whose imports are its public names).  Every module-level private name is
referenced somewhere in ``src/`` beyond its own definition.  Names read
only from outside ``src/`` are listed in ``_READ_ELSEWHERE`` with the
reason.  Every private name quoted in backticks in ``src/`` or the
README, after a module or class name or not, names something ``src/``
defines.  Every defaulted parameter of a module-level private function is
passed, by position or by keyword, by some call in ``src/``: a default no
caller overrides is a constant dressed as an option.  ``object.__setattr__``
appears only in constructors (``__init__``, ``__new__``, ``__post_init__``,
``_from_vec``), and only ``Scalar`` writes its own ``__setattr__``: every
other value is a frozen dataclass, and no dataclass field defaults to a
mutable container (``default_factory`` of ``dict``, ``list`` or ``set``).
A dataclass keeps the ``__init__`` and ``__eq__`` the decorator generates:
it neither turns them off nor writes its own (``forms._Cleared`` excepted).
Only ``Scalar`` and the ``forms._Cleared`` family declare ``__slots__`` by
hand, and only they and ``catalog.Catalog`` write ``__reduce__``.  Every
vector of that family is written through one step, ``_Cleared._canonical``:
it alone divides out the content, and no subclass writes ``_from_vec``.
A rational coefficient vector meets Q(sqrt D) with a zero radical part,
``(0,) * len(...)``, built in one function (``forms._lift``) and at no
site that joins fields.  A Scalar's parts, the attributes ``_den``, ``_a``
and ``_b``, are read in ``scalars`` and ``forms`` only, the kernel that
holds the cleared values.  The CLI has one writer: no ``print`` call and no
``sys.stdout`` or ``sys.stderr`` appears outside ``cli.main``.  An input rule
has one home: only ``scalars._require_int`` raises a ``TypeError`` when a
value is not an int, and the placeholder for an unprintable number is
written once in ``src/``.  No pattern given to a function of ``re`` in
``src/`` reads ``\\d``: the grammar's digits are ASCII.  No line in ``src/``
is longer than 100 characters.

Every cache in ``src/`` is listed in ``_MEMOS`` with its bound: a function
under ``functools.cache`` or ``lru_cache``, a method under
``functools.cached_property``, a module-level name bound to an empty dict,
list or set, or one a function rebinds through ``global``; the general plan
cache of ``invariants`` is filled to show its bound holds.

Two checks read ``tests/``: the differential tests share one model,
``tests/reference.py``, so a ``ref_*`` function or ``Ref*`` class is defined
at module level in one file there, and no other file redefines a name the
model defines (its hypothesis strategies included); and the model reads the
package through public names only, so it imports no ``_``-prefixed name of
``seacurves`` and reads none as an attribute of what it imports.
"""

import ast
import re
from pathlib import Path

import pytest

from seacurves import cli, invariants
from seacurves.forms import MAX_DEGREE

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
MODULES = sorted((SRC / "seacurves").rglob("*.py"))
REFERENCE = TESTS / "reference.py"
README = TESTS.parent / "README.md"

# (module, name) -> the bound on what the cache holds, and why it holds
_MEMOS = {
    ("cli", "_build_parser"): "1 entry: the function takes no argument",
    ("catalog", "_last_built"): "1 entry: the last catalog text and the catalog built from it",
    ("transvection", "_TABLES"): "_CACHE_ENTRIES tables within _CACHE_BYTES, oldest out first",
    ("invariants", "_general_plan"): "48 entries: lru_cache sized to the even degrees 6 .. 100",
    ("templates", "_form"): "1 value per template, computed on first read",
    ("templates", "_support"): "1 value per template, computed on first read",
}

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


def _definitions(tree: ast.Module | ast.ClassDef) -> set:
    """The names a module, or a class body, defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.Module) -> set:
    return set(filter(_is_private, _definitions(tree)))


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


def _defined_anywhere(tree: ast.Module) -> set:
    """Every name the module defines at any depth: functions, classes,
    variables, attributes, parameters and the fields a constructor writes
    through ``object.__setattr__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif (isinstance(node, ast.Call) and _callee(node) == "__setattr__"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


# a span of inline code, in single or double backticks; a private name in it,
# bare or after a dot (``templates._form``), not the tail of a longer word
_CODE_SPAN = re.compile(r"(`+)(.+?)\1", re.S)
_PRIVATE_IN_SPAN = re.compile(r"(?<![\w*])_(?!_)\w+")


def test_private_names_in_backticks_exist():
    """Every private name quoted in backticks in ``src/`` or the README names
    something ``src/`` defines, so a deletion leaves no dangling reference."""
    defined = set().union(*(_defined_anywhere(_tree(p)) for p in MODULES))
    dangling = []
    for path in (*MODULES, README):
        # a fenced block is code to run, not a reference
        text = re.sub(r"^```.*?^```", "", path.read_text("utf-8"), flags=re.S | re.M)
        where = str(path.relative_to(TESTS.parent))
        for span in _CODE_SPAN.finditer(text):
            dangling += [(where, name) for name in _PRIVATE_IN_SPAN.findall(span[2])
                         if name not in defined]
    assert dangling == []


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
            if isinstance(func, ast.FunctionDef) and _is_private(func.name)
            for position, name in _defaulted_params(func)
            if not any(_callee(c) == func.name and _passes(c, position, name) for c in calls)]
    assert dead == []


_CONSTRUCTORS = {"__init__", "__new__", "__post_init__", "_from_vec"}


def _sites(tree: ast.Module, match) -> list:
    """(enclosing function or None, line) of each node for which ``match`` holds."""
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                sites.append((func, child.lineno))
            visit(child, func)

    visit(tree, None)
    return sites


def _is_object_setattr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object")


def _is_zero_pad(node: ast.AST) -> bool:
    """``(0,) * len(...)``: a vector of zeros as long as another."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Tuple) and len(node.left.elts) == 1
            and isinstance(node.left.elts[0], ast.Constant) and node.left.elts[0].value == 0
            and isinstance(node.right, ast.Call) and _callee(node.right) == "len")


def test_object_setattr_only_while_constructing():
    """Values are immutable: ``object.__setattr__`` fills a slot of a value
    being built, never one already handed out (a memo written on read)."""
    writes = [(_module_name(p), func, line) for p in MODULES
              for func, line in _sites(_tree(p), _is_object_setattr) if func not in _CONSTRUCTORS]
    assert writes == []


def test_zero_radical_pad_has_one_home():
    """The mixed-field rule has one home: every site where a rational vector
    meets Q(sqrt D) takes its zero radical part from ``forms._lift``."""
    pads = [(_module_name(p), func) for p in MODULES for func, _ in _sites(_tree(p), _is_zero_pad)]
    assert pads == [("forms", "_lift")]


def test_scalar_parts_are_read_only_by_the_kernel():
    """Every rule on a Scalar's cleared value lives in the kernel: outside
    ``scalars`` and ``forms`` a Scalar is read through its public names."""
    readers = sorted({_module_name(p) for p in MODULES for node in ast.walk(_tree(p))
                      if isinstance(node, ast.Attribute) and node.attr in ("_den", "_a", "_b")})
    assert readers == ["forms", "scalars"]


def test_only_scalar_writes_its_own_setattr():
    """Immutability has one idiom, the frozen dataclass; Scalar, whose
    constructor arguments are not its stored state, is the one exception."""
    owners = [(_module_name(p), node.name) for p in MODULES for node in ast.walk(_tree(p))
              if isinstance(node, ast.ClassDef)
              for item in node.body
              if isinstance(item, ast.FunctionDef) and item.name == "__setattr__"]
    assert owners == [("scalars", "Scalar")]


def test_no_field_defaults_to_a_mutable_container():
    """A field made with ``default_factory=dict`` (or ``list``, ``set``) puts a
    mutable container inside a frozen value; a lazy derived value is a
    ``functools.cached_property`` instead."""
    fields = [(_module_name(p), cls.name, item.target.id) for p in MODULES
              for cls in ast.walk(_tree(p)) if isinstance(cls, ast.ClassDef)
              for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.value, ast.Call)
              and _callee(item.value) == "field"
              for k in item.value.keywords
              if k.arg == "default_factory" and isinstance(k.value, ast.Name)
              and k.value.id in ("dict", "list", "set")]
    assert fields == []


def _replaces_generated_methods(cls: ast.ClassDef) -> bool:
    """``cls`` is a dataclass that passes ``init=False`` or ``eq=False``, or
    defines ``__init__`` or ``__eq__`` in its body."""
    decorators = [d for d in cls.decorator_list
                  if getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"]
    turned_off = any(k.arg in ("init", "eq") and getattr(k.value, "value", None) is False
                     for d in decorators for k in getattr(d, "keywords", ()))
    written = any(isinstance(item, ast.FunctionDef) and item.name in ("__init__", "__eq__")
                  for item in cls.body)
    return bool(decorators) and (turned_off or written)


def test_dataclasses_keep_their_generated_init_and_eq():
    """A value is built and compared by the methods its dataclass generates.
    ``forms._Cleared`` is the one exception: its constructor takes Scalars
    and stores their cleared vector, so its arguments are not its state."""
    owners = [(_module_name(p), node.name) for p in MODULES for node in ast.walk(_tree(p))
              if isinstance(node, ast.ClassDef) and _replaces_generated_methods(node)]
    assert owners == [("forms", "_Cleared")]


def _classes_defining(name: str) -> list:
    """(module, class) of each class whose body defines or assigns ``name``."""
    return sorted((_module_name(p), node.name) for p in MODULES for node in ast.walk(_tree(p))
                  if isinstance(node, ast.ClassDef) and name in _definitions(node))


def test_hand_slots_and_reduce_have_few_homes():
    """Hand-declared slots, and the ``__reduce__`` they need to copy and
    pickle, belong to the values the kernel builds on hot paths: ``Scalar``
    and the cleared forms.  ``Catalog`` writes ``__reduce__`` because its
    ``by_id`` proxy does not pickle.  Every other value is a plain frozen
    dataclass that copies and pickles without a method of its own."""
    assert _classes_defining("__slots__") == [
        ("forms", "BinaryForm"), ("forms", "UnivariatePoly"), ("forms", "_Cleared"),
        ("scalars", "Scalar")]
    assert _classes_defining("__reduce__") == [
        ("catalog", "Catalog"), ("forms", "_Cleared"), ("scalars", "Scalar")]


def _methods_where(tree: ast.Module, match) -> set:
    """(class or None, function) of each module-level function or method
    holding a node for which ``match`` holds."""
    scopes = [(node.name, item) for node in tree.body if isinstance(node, ast.ClassDef)
              for item in node.body if isinstance(item, ast.FunctionDef)]
    scopes += [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    return {(cls, func.name) for cls, func in scopes if any(map(match, ast.walk(func)))}


def test_every_vector_is_written_by_one_step():
    """A form's or a polynomial's vector has one canonical step, whether it is
    built from Scalars or from a vector: each write of ``vec`` stores what
    ``_canonical`` returns, only ``_Cleared._canonical`` divides out the
    content, and a subclass extends ``_canonical``, not ``_from_vec``."""
    tree = _tree(SRC / "seacurves" / "forms.py")
    stored = [node.args[2] for node in ast.walk(tree)
              if isinstance(node, ast.Call) and _is_object_setattr(node.func)
              and isinstance(node.args[1], ast.Constant) and node.args[1].value == "vec"]
    assert stored and all(isinstance(v, ast.Call) and _callee(v) == "_canonical" for v in stored)
    assert _methods_where(tree, lambda node: isinstance(node, ast.Call)
                          and _callee(node) == "_content") == {("_Cleared", "_canonical")}
    assert _classes_defining("_from_vec") == [("forms", "_Cleared")]


_CACHE_DECORATORS = ("cache", "lru_cache", "cached_property")


def _is_cache_decorator(node: ast.AST) -> bool:
    """``functools.cache``, ``lru_cache`` or ``cached_property``, bare,
    called or as attributes."""
    node = node.func if isinstance(node, ast.Call) else node
    return (isinstance(node, ast.Attribute) and node.attr in _CACHE_DECORATORS
            or isinstance(node, ast.Name) and node.id in _CACHE_DECORATORS)


def _is_empty_container(node) -> bool:
    """``{}``, ``[]``, ``set()``, ``dict()`` or ``list()``."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not getattr(node, "keys", None) and not getattr(node, "elts", None)
    return (isinstance(node, ast.Call) and _callee(node) in ("dict", "list", "set")
            and not node.args and not node.keywords)


def _memos(tree: ast.Module) -> set:
    """The names of the caches a module defines (see ``_MEMOS``)."""
    names = {method.name for cls in tree.body if isinstance(cls, ast.ClassDef)
             for method in cls.body if isinstance(method, ast.FunctionDef)
             and any(map(_is_cache_decorator, method.decorator_list))}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and any(map(_is_cache_decorator,
                                                         node.decorator_list)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_empty_container(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    names.update(name for node in ast.walk(tree) if isinstance(node, ast.Global)
                 for name in node.names)
    return names


def test_every_cache_is_listed_with_its_bound():
    """A cache no one bounded grows with the inputs of a long-lived process:
    each one in ``src/`` is listed in ``_MEMOS``, and each listed one exists."""
    found = {(_module_name(p), name) for p in MODULES for name in _memos(_tree(p))}
    assert found == set(_MEMOS)


def test_plan_caches_keep_their_bounds():
    """The general plan cache is sized to the 48 even degrees 6 .. MAX_DEGREE
    and holds at most 48 plans after each of them and one past them; the
    parser is built once."""
    assert invariants._general_plan.cache_info().maxsize == 48
    for d in range(6, MAX_DEGREE + 3, 2):
        invariants._general_plan(d)
        assert invariants._general_plan.cache_info().currsize <= 48
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser.cache_info().currsize == 1


def _writes_a_stream(node: ast.AST) -> bool:
    """A ``print`` call, or a reference to ``sys.stdout`` or ``sys.stderr``."""
    if isinstance(node, ast.Call):
        return _callee(node) == "print"
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(a.name in ("stdout", "stderr") for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def test_only_cli_main_writes_to_the_streams():
    """Every command returns its stdout text and ``main`` writes it once, after
    the command has returned, so no error path can have written to stdout."""
    writers = {(_module_name(p), func) for p in MODULES
               for func, _ in _sites(_tree(p), _writes_a_stream)}
    assert writers == {("cli", "main")}


def _is_int_check(node: ast.AST) -> bool:
    """``if not isinstance(x, int): raise TypeError(...)``."""
    if not (isinstance(node, ast.If) and isinstance(node.test, ast.UnaryOp)
            and isinstance(node.test.op, ast.Not) and isinstance(node.test.operand, ast.Call)):
        return False
    call = node.test.operand
    return (_callee(call) == "isinstance" and len(call.args) == 2
            and isinstance(call.args[1], ast.Name) and call.args[1].id == "int"
            and any(isinstance(stmt, ast.Raise) and isinstance(stmt.exc, ast.Call)
                    and _callee(stmt.exc) == "TypeError" for stmt in node.body))


def test_integer_parameters_have_one_check():
    """Every integer parameter of the API is checked by one function, so the
    rule (a bool counts) and the message have one statement."""
    checks = [(_module_name(p), func) for p in MODULES
              for func, _ in _sites(_tree(p), _is_int_check)]
    assert checks == [("scalars", "_require_int")]


def test_unprintable_placeholder_is_written_once():
    """Every message names a number past the digit limit by the one
    placeholder, ``scalars._TOO_LARGE``, read through ``_int_str`` or
    ``_repr_str``."""
    homes = [(_module_name(p), p.read_text("utf-8").count("(too large to print)"))
             for p in MODULES]
    assert [(mod, n) for mod, n in homes if n] == [("scalars", 1)]


def test_no_line_is_longer_than_100_characters():
    long_lines = [(_module_name(p), n) for p in MODULES
                  for n, line in enumerate(p.read_text("utf-8").splitlines(), 1)
                  if len(line) > 100]
    assert long_lines == []


def _is_re_call(node: ast.AST) -> bool:
    """A call of a function of the ``re`` module, such as ``re.compile``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "re")


def test_grammar_patterns_read_ascii_digits():
    """A text grammar reads the digits the package writes, 0-9: ``\\d``
    would match every Unicode decimal digit, so ``x^٢`` would read as x^2."""
    sites = [(_module_name(p), node.lineno) for p in MODULES for node in ast.walk(_tree(p))
             if _is_re_call(node) and any(
                 isinstance(c, ast.Constant) and isinstance(c.value, str) and "\\d" in c.value
                 for arg in node.args[:1] for c in ast.walk(arg))]
    assert sites == []


def test_each_reference_is_defined_once():
    """One home per reference: a ``ref_*`` function or ``Ref*`` class in one
    file under ``tests/``, and no name of the model defined again elsewhere."""
    model = _definitions(_tree(REFERENCE))
    homes: dict = {}
    for path in sorted(TESTS.rglob("*.py")):
        for name in _definitions(_tree(path)):
            if name.startswith(("ref_", "Ref")) or name in model:
                homes.setdefault(name, []).append(str(path.relative_to(TESTS)))
    assert {name: files for name, files in homes.items() if len(files) > 1} == {}


def test_reference_reads_only_public_names():
    """The model shares no code with the kernel it checks: no private name of
    ``seacurves`` is imported, or read from an imported name."""
    tree = _tree(REFERENCE)
    imported, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "seacurves":
                    imported.add(a.asname or "seacurves")
                    private += [a.name for part in a.name.split(".") if _is_private(part)]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "seacurves":
            imported.update(a.asname or a.name for a in node.names)
            private += [f"{node.module}.{a.name}" for a in node.names
                        if _is_private(a.name) or any(map(_is_private, node.module.split(".")))]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                private.append(f"{root.id}...{node.attr}")
    assert imported
    assert private == []
