"""Every public name of ``qsystems`` is used by the package itself.

A name in a module's ``__all__`` must be loaded somewhere in ``src/qsystems``
(as a name, as an attribute or by a ``from ... import``) outside the
top-level statement that defines it.  Re-exports in ``__init__.py`` do not
count as a use.  Likewise every public method and property of an exported
class must be loaded as an attribute outside its own definition.  A name
that only its own tests reach is dead API: delete it rather than export it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "qsystems"
MODULES = sorted(PACKAGE.glob("*.py"))


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
