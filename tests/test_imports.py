"""No module of the package imports a name it never reads."""

import ast
from pathlib import Path

import pytest

import vgpricer

_MODULES = sorted(p for p in Path(vgpricer.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
