"""Every name a `vroute` module imports is used in that module, every
option a `vroute` function offers is set by some caller in the package, no
module uses another module's private names, no function returns a value
its callers all discard, and no parameter is one literal at every call.

A stdlib-only stand-in for a linter's unused-import rule: each module under
``src/vroute`` is parsed with :mod:`ast`, and every name bound by an import
statement (module level or inside a function) must appear as a name
somewhere else in the module, in a quoted annotation, or in ``__all__``.

The unused-option rule: every parameter with a default, in every function
under ``src/vroute``, is set by some call in ``src/vroute`` to a function of
that name (a class name calls its ``__init__``), by keyword or with enough
positional arguments.  A call that passes ``**kwargs`` sets every keyword
and one that passes ``*args`` every position.  An option that only tests
set is a knob for the tests alone: make it a constant.

The private-name rule: no module under ``src/vroute`` imports a
``_``-prefixed name from another `vroute` module, or reads one as an
attribute of an imported `vroute` module (``T._name``).  Dunders such as
``__version__`` are exempt.  A name another module needs is public.

The discarded-return rule: no module-level function or method under
``src/vroute`` returns a value that every call to it in ``src/vroute``
throws away as an expression statement.  Nested functions, dunders,
functions no `vroute` code calls and functions some code reads as a value
(a callback, an alias, a property) are exempt.

The fixed-argument rule: no parameter of such a function is set to the same
literal by every call in ``src/vroute``, given or by its default.  That
parameter is a constant dressed as a knob; ``cli.main`` is exempt.

The artifact-name rule: ``cli.ARTIFACTS`` is the one place that names a file
a command writes.  A string constant shaped like such a name must be one of
its patterns and sit in ``cli.py``, and no f-string builds such a name.
"""
import ast
import pathlib
import re

import pytest

from vroute import cli

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "vroute"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(pi)\n")
    used = _used(tree)
    assert [n for n, _ in _imported(tree) if n not in used] == ["os", "tau"]


# Entry points whose defaults are their public calling convention.
_OPTION_EXEMPT = {("cli.py", "main", "argv")}


def _options(tree):
    """(label, names that call it, parameter, position or None, line) for
    every parameter with a default; a method's position skips ``self``."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from _function_options(child, cls)
                yield from visit(child, None)
            else:
                yield from visit(child, cls)

    return list(visit(tree, None))


def _function_options(fn, cls):
    a = fn.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    positional = a.posonlyargs + a.args
    if cls is not None and not static:
        positional = positional[1:]
    label = f"{cls}.{fn.name}" if cls else fn.name
    names = {fn.name} | ({cls} if cls and fn.name == "__init__" else set())
    first = len(positional) - len(a.defaults)
    for pos, arg in enumerate(positional[first:], start=first):
        yield label, names, arg.arg, pos, fn.lineno
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield label, names, arg.arg, None, fn.lineno


def _call_settings(trees):
    """Called name -> (largest positional count, keywords set, any
    ``**kwargs``) over every call in ``trees``."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else func.attr
                    if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            count, keys, star = calls.get(name, (0, set(), False))
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                count = float("inf")
            count = max(count, len(node.args))
            keys = keys | {kw.arg for kw in node.keywords if kw.arg}
            star = star or any(kw.arg is None for kw in node.keywords)
            calls[name] = (count, keys, star)
    return calls


def _unset_options(sources: dict) -> list:
    """``file:line name(param)`` of each option no call in ``sources`` (file
    name -> text) sets."""
    trees = {name: ast.parse(text, filename=name)
             for name, text in sources.items()}
    calls = _call_settings(trees.values())
    unset = []
    for file, tree in trees.items():
        for label, names, param, pos, line in _options(tree):
            if (file, label, param) in _OPTION_EXEMPT:
                continue
            if not any(pos is not None and calls[n][0] > pos
                       or param in calls[n][1] or calls[n][2]
                       for n in names if n in calls):
                unset.append(f"{file}:{line} {label}({param})")
    return unset


def test_every_option_is_set_by_some_caller():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unset = _unset_options(sources)
    assert not unset, ("options no vroute call sets (make them constants): "
                       + ", ".join(unset))


def test_scan_flags_an_unused_option():
    source = (
        "def f(a, b=1, c=2, *, d=3):\n    return a\n"
        "def g(x, y=0):\n    return x\n"
        "class K:\n"
        "    def __init__(self, v, w=None):\n        self.v = v\n"
        "    def m(self, p=1):\n        return p\n"
        "f(0, 5)\ng(1, **{})\nK(1).m(3)\n")
    assert _unset_options({"mod.py": source}) == [
        "mod.py:1 f(c)", "mod.py:1 f(d)", "mod.py:6 K.__init__(w)"]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _foreign_private_names(tree):
    """``name (line n)`` for each private name ``tree`` imports from a
    `vroute` module or reads off an imported `vroute` module."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "vroute":
                    parts = alias.name.split(".")
                    modules |= ({alias.asname} if alias.asname else
                                {".".join(parts[:i + 1])
                                 for i in range(len(parts))})
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "vroute"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{alias.name} (line {node.lineno})")
                if node.module is None or node.module == "vroute":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and _dotted(node.value) in modules):
            found.append(f"{_dotted(node)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_no_private_name_of_another(path):
    found = _foreign_private_names(ast.parse(path.read_text(),
                                             filename=str(path)))
    assert not found, (f"{path.name} uses other modules' private names "
                       f"(make them public): {', '.join(found)}")


def test_scan_flags_a_foreign_private_name():
    tree = ast.parse(
        "from . import tensor as T, __version__\n"
        "from .model import _plan, Prefix\n"
        "import vroute.rng\n"
        "from math import _private_ok\n"
        "y = T._tracked(T.matmul) + vroute.rng._key + T.__name__\n"
        "self._own = Prefix._fields\n")
    assert sorted(_foreign_private_names(tree)) == [
        "T._tracked (line 5)", "_plan (line 2)", "vroute.rng._key (line 5)"]


def _functions(tree):
    """(class name or None, function) for each module-level function and
    method of a module-level class; nested functions are exempt."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, child


def _call_name(call):
    func = call.func
    return (func.id if isinstance(func, ast.Name) else func.attr
            if isinstance(func, ast.Attribute) else None)


def _calls(trees):
    """Called name -> [(call, its parent node)] over every call in ``trees``,
    and the names some code reads other than as a call's function."""
    calls, read = {}, set()
    for tree in trees:
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            parent = parents.get(node)
            if isinstance(node, ast.Call) and _call_name(node):
                calls.setdefault(_call_name(node), []).append((node, parent))
            elif (isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load)
                  and not (isinstance(parent, ast.Call)
                           and parent.func is node)):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return calls, read


def _returns_value(fn):
    """Whether ``fn``'s own body (not a nested function's) returns a value."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Return) and not (
                node.value is None or (isinstance(node.value, ast.Constant)
                                       and node.value.value is None)):
            return True
        todo.extend(ast.iter_child_nodes(node))
    return False


def _discarded_returns(sources: dict) -> list:
    """``file:line name`` of each function whose value every call in
    ``sources`` (file name -> text) discards."""
    trees = {name: ast.parse(text, filename=name)
             for name, text in sources.items()}
    calls, read = _calls(trees.values())
    found = []
    for file, tree in trees.items():
        for cls, fn in _functions(tree):
            sites = calls.get(fn.name, [])
            if (sites and fn.name not in read and _returns_value(fn)
                    and not fn.name.startswith("__")
                    and all(isinstance(p, ast.Expr) for _, p in sites)):
                found.append(f"{file}:{fn.lineno} "
                             + (f"{cls}.{fn.name}" if cls else fn.name))
    return found


def test_no_function_returns_a_value_every_caller_discards():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = _discarded_returns(sources)
    assert not found, ("functions whose value every vroute call discards "
                       "(return nothing): " + ", ".join(found))


def test_scan_flags_a_discarded_return():
    source = (
        "def f(x):\n    return x\n"
        "def g():\n    return None\n"
        "def h():\n    def inner():\n        return 1\n    inner()\n"
        "def cb():\n    return 2\n"
        "class K:\n"
        "    def m(self):\n        return self\n"
        "    def n(self):\n        return 3\n"
        "f(1)\ng()\nh()\ncb()\nk = K()\nk.m()\ny = k.n()\nk.n()\n"
        "use = cb\n")
    assert _discarded_returns({"mod.py": source}) == [
        "mod.py:1 f", "mod.py:12 K.m"]


_FIXED_EXEMPT = {("cli.py", "main")}
_NOT_LITERAL = object()


def _literal(node):
    """``node``'s value as (type name, repr) if it is a literal, else (also
    for None) a marker."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return _NOT_LITERAL
    return type(value).__name__, repr(value)


def _argument(call, param, pos, default):
    """The expression ``call`` binds to ``param`` (at ``pos``, or keyword
    only), its default when it passes none, or None when it cannot be
    told."""
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(kw.arg is None for kw in call.keywords)):
        return None
    if pos is not None and pos < len(call.args):
        return call.args[pos]
    return next((kw.value for kw in call.keywords if kw.arg == param),
                default)


def _fixed_arguments(sources: dict) -> list:
    """``file:line name(param)`` of each parameter that every call in
    ``sources`` sets to one literal."""
    trees = {name: ast.parse(text, filename=name)
             for name, text in sources.items()}
    calls, _ = _calls(trees.values())
    found = []
    for file, tree in trees.items():
        for cls, fn in _functions(tree):
            label = f"{cls}.{fn.name}" if cls else fn.name
            names = {fn.name} | ({cls} if fn.name == "__init__" else set())
            sites = [c for n in names for c, _ in calls.get(n, [])]
            if not sites or (file, label) in _FIXED_EXEMPT:
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = 1 if cls is not None and not static else 0
            defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
            params = [(arg.arg, pos - skip, d) for pos, (arg, d) in
                      enumerate(zip(positional, defaults)) if pos >= skip]
            params += [(arg.arg, None, d)
                       for arg, d in zip(a.kwonlyargs, a.kw_defaults)]
            for param, pos, default in params:
                values = {_literal(_argument(c, param, pos, default))
                          for c in sites}
                if len(values) == 1 and _NOT_LITERAL not in values:
                    found.append(f"{file}:{fn.lineno} {label}({param})")
    return found


def test_no_parameter_is_set_to_one_literal_by_every_caller():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = _fixed_arguments(sources)
    assert not found, ("parameters every vroute call sets to the same "
                       "literal (make them constants): " + ", ".join(found))


def test_scan_flags_a_fixed_argument():
    source = (
        "def f(a, b, c=2, *, d=3):\n    return a\n"
        "def g(x, y=0):\n    return x\n"
        "class K:\n"
        "    def __init__(self, v, w=None):\n        self.v = v\n"
        "f(1, 'label', d=4)\nf(2, 'label', 2, d=-4)\n"
        "g(1, y=0)\ng(*[2])\nK(None)\nK(None, w=None)\n")
    assert _fixed_arguments({"mod.py": source}) == [
        "mod.py:1 f(b)", "mod.py:1 f(c)", "mod.py:6 K.__init__(v)",
        "mod.py:6 K.__init__(w)"]


_FILE_NAME = re.compile(r"[\w{}]+\.(npz|csv|json|svg)")
_FILE_SUFFIX = re.compile(r"\.(npz|csv|json|svg)$")


def _named_artifacts(sources: dict, patterns: set) -> list:
    """File-name-shaped string constants that are not ``patterns`` in
    ``cli.py``, and f-strings whose literal text ends in a file suffix."""
    found = []
    for file, text in sources.items():
        tree = ast.parse(text)
        parts = {id(v) for n in ast.walk(tree) if isinstance(n, ast.JoinedStr)
                 for v in n.values}
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                literal = "".join(v.value for v in node.values
                                  if isinstance(v, ast.Constant))
                if _FILE_SUFFIX.search(literal):
                    found.append(f"{file}:{node.lineno} f-string {literal!r}")
            elif (isinstance(node, ast.Constant) and id(node) not in parts
                  and isinstance(node.value, str)
                  and _FILE_NAME.fullmatch(node.value)
                  and (file != "cli.py" or node.value not in patterns)):
                found.append(f"{file}:{node.lineno} {node.value!r}")
    return sorted(found)


def test_only_the_artifact_table_names_a_file():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    patterns = {p for row in cli.ARTIFACTS.values() for p in row}
    found = _named_artifacts(sources, patterns)
    assert not found, ("artifact names outside cli.ARTIFACTS: "
                       + ", ".join(found))


def test_scan_flags_an_artifact_name_outside_the_table():
    source = ('A = ("model_{variant}.npz", "runs.csv")\n'
              'f"model_{v}.npz"\nf"{v}.tmp"\n'
              '"defaults to OUT/model_VARIANT.npz"\n')
    patterns = {"model_{variant}.npz"}
    assert _named_artifacts({"cli.py": source, "experiment.py": source},
                            patterns) == [
        "cli.py:1 'runs.csv'", "cli.py:2 f-string 'model_.npz'",
        "experiment.py:1 'model_{variant}.npz'", "experiment.py:1 'runs.csv'",
        "experiment.py:2 f-string 'model_.npz'"]
