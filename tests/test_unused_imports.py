"""Every name a module of the package imports is used in that module.

__init__.py is left out: its imports are the public re-exports.  A name
counts as used when it is loaded anywhere in the module (as a bare name or
as the base of an attribute chain), so a local import inside a function is
checked against the whole module.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "arrowcat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in loaded]


def test_the_check_sees_an_unused_name():
    source = "from .a import used, unused\nimport os.path\nimport sys as system\n\nused(os.sep)\n"
    assert unused_imports(source) == ["system (line 3)", "unused (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
