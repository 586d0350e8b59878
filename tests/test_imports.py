"""No module of the package imports a name it never reads, and the package
reads every private module-level name it defines."""

import ast
from pathlib import Path

import pytest

import vgpricer

_SOURCES = sorted(Path(vgpricer.__file__).parent.glob("*.py"))
_MODULES = [p for p in _SOURCES if p.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    """The names the source imports (outside __future__) and never reads,
    a name listed in its __all__ counting as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    """__init__.py is skipped: its imports are the package's API."""
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport math, os\nfrom . import a, b\n"
    source += "__all__ = ['b']\nprint(math.pi)\n"
    assert _unused_imports(source) == ["os (line 2)", "a (line 3)"]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level _names (not __dunders__) that the sources define by def,
    class or assignment and that none of them reads as a Name or an Attribute."""
    defined, read = {}, set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{file} line {node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{name} ({where})" for name, where in defined.items() if name not in read]


def test_every_private_name_is_read_in_the_package():
    """Reads from the tests and the benchmark do not count: a private name
    that only they reach is dead code."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in _SOURCES}
    assert _unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": "_A = 1\n_B, (_C, __d__) = 2, (3, 4)\ndef _f():\n    return _B\nclass _K: pass\n",
        "b.py": "from . import a\nprint(a._C, a._f())\n",
    }
    assert _unread_private_names(sources) == ["_A (a.py line 1)", "_K (a.py line 5)"]
