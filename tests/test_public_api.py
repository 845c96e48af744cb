"""Every public name of ``qsystems`` is used by the package itself.

A name in a module's ``__all__`` must be loaded somewhere in ``src/qsystems``
(as a name, as an attribute or by a ``from ... import``) outside the
top-level statement that defines it.  Re-exports in ``__init__.py`` do not
count as a use.  Likewise every public method and property of an exported
class must be loaded as an attribute outside its own definition.  A name
that only its own tests reach is dead API: delete it rather than export it.

In the same spirit, every parameter with a default is passed, by keyword or
by position, by some call in ``src/qsystems`` that names its function.  A
default that no caller overrides is a setting with one value: make it a
module constant.
"""

import ast
from pathlib import Path

import pytest

from qsystems.suites import SUITE_RUNNERS

PACKAGE = Path(__file__).parents[1] / "src" / "qsystems"
MODULES = sorted(PACKAGE.glob("*.py"))

# Functions that the package never calls by name: the suite runners, reached
# through SUITE_RUNNERS, and the console entry point.
DISPATCHED = {f"suites.{runner.__name__}" for runner in SUITE_RUNNERS.values()} | {"cli.main"}


def _defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _exports(tree: ast.Module) -> list[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and "__all__" in _defined_names(stmt):
            return list(ast.literal_eval(stmt.value))
    return []


def _uses(path: Path, tree: ast.Module):
    """(name, names defined by the enclosing top-level statement) per load."""
    for stmt in tree.body:
        defined = _defined_names(stmt)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, defined
            elif isinstance(node, ast.Attribute):
                yield node.attr, defined
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                for alias in node.names:
                    yield alias.name, defined


def _unused_exports(modules=MODULES) -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in modules}
    used: dict[str, set[tuple[Path, frozenset]]] = {}
    for path, tree in trees.items():
        for name, defined in _uses(path, tree):
            used.setdefault(name, set()).add((path, frozenset(defined)))
    unused = []
    for path, tree in trees.items():
        for name in _exports(tree):
            sites = used.get(name, set())
            if not any(site != path or name not in defined for site, defined in sites):
                unused.append(f"{path.stem}.{name}")
    return unused


def _unused_members(modules=MODULES) -> list[str]:
    """Public methods and properties of exported classes that no attribute
    load reaches outside the member's own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in modules}
    loads = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unused = []
    for path, tree in trees.items():
        exported = set(_exports(tree))
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exported):
                continue
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                inside = {id(node) for node in ast.walk(member)}
                if not any(n.attr == member.name and id(n) not in inside for n in loads):
                    unused.append(f"{path.stem}.{cls.name}.{member.name}")
    return unused


def test_every_exported_name_is_used_inside_the_package():
    assert _unused_exports() == []


def test_every_public_member_of_an_exported_class_is_used_inside_the_package():
    assert _unused_members() == []


def test_member_probe_ignores_self_reference_and_private_members(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "__all__ = ['C']\n"
        "class C:\n"
        "    def used(self):\n        return 0\n"
        "    def alone(self):\n        return self.alone()\n"
        "    @property\n    def idle(self):\n        return 1\n"
        "    def _private(self):\n        return 2\n"
        "class Hidden:\n    def spare(self):\n        return 3\n"
        "def f(c):\n    return c.used()\n",
        encoding="utf-8",
    )
    assert _unused_members([probe]) == ["probe.C.alone", "probe.C.idle"]


@pytest.mark.parametrize(
    "source, unused",
    [
        ("__all__ = ['f']\ndef f():\n    return f()\n", ["probe.f"]),
        ("__all__ = ['f', 'g']\ndef f():\n    return 1\ndef g():\n    return f()\n", ["probe.g"]),
    ],
    ids=["recursion", "caller"],
)
def test_self_reference_is_not_a_use(source, unused, tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(source, encoding="utf-8")
    assert _unused_exports([probe]) == unused


def _functions(node: ast.AST, prefix: str = "", in_class: bool = False):
    """(qualified name, definition, implicit leading arguments) of every
    function below ``node``: a method's ``self`` or ``cls`` is implicit."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            yield prefix + child.name, child, int(in_class and not static)
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.", True)
        else:
            yield from _functions(child, prefix, in_class)


def _defaulted(fn: ast.FunctionDef, implicit: int):
    """(call position or None, name) of each parameter of ``fn`` with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield i - implicit, arg.arg
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call: ast.Call, name: str, position: int | None, param: str) -> bool:
    """Whether ``call`` names the function ``name`` and passes ``param``."""
    func = call.func
    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if called != name:
        return False
    unpacked = any(isinstance(a, ast.Starred) for a in call.args)
    if unpacked or any(k.arg is None for k in call.keywords):
        return True  # an unpacked argument list may pass anything
    if position is not None and len(call.args) > position:
        return True
    return any(k.arg == param for k in call.keywords)


def _unpassed_defaults(modules=MODULES, exempt=DISPATCHED) -> list[str]:
    """``module.function(parameter)`` for every defaulted parameter that no
    call naming its function passes."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in modules}
    calls = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unpassed = []
    for path, tree in trees.items():
        for qualname, fn, implicit in _functions(tree):
            if f"{path.stem}.{qualname}" in exempt:
                continue
            for position, param in _defaulted(fn, implicit):
                if not any(_passes(call, fn.name, position, param) for call in calls):
                    unpassed.append(f"{path.stem}.{qualname}({param})")
    return unpassed


def test_every_default_is_passed_by_some_call_inside_the_package():
    assert _unpassed_defaults() == []


@pytest.mark.parametrize(
    "source, unpassed",
    [
        ("def f(a, b=1):\n    return a\nf(0)\n", ["probe.f(b)"]),
        ("def f(a, b=1):\n    return a\nf(0, 2)\n", []),
        ("def f(a, b=1, *, c=2):\n    return a\nf(0, c=3)\nf(0, b=3)\n", []),
        ("def f(a, *, c=2):\n    return a\nf(0)\n", ["probe.f(c)"]),
        ("def f(a, b=1):\n    return a\nf(*[0, 2])\n", []),
        ("def f(a=1):\n    return a\n", ["probe.f(a)"]),
        ("def run(a=1):\n    return a\n", []),
        ("class C:\n    def m(self, x=1):\n        return x\nC().m(2)\n", []),
        ("class C:\n    def m(self, x=1, y=2):\n        return x\nC().m(2)\n", ["probe.C.m(y)"]),
        ("def f():\n    def g(x=1):\n        return x\n    return g()\n", ["probe.f.g(x)"]),
    ],
    ids=["unpassed", "positional", "keyword", "keyword-only", "unpacked", "never-called",
         "exempt", "method", "method-offset", "nested"],
)
def test_default_probe_counts_positional_keyword_and_method_calls(source, unpassed, tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(source, encoding="utf-8")
    assert _unpassed_defaults([probe], exempt={"probe.run"}) == unpassed
