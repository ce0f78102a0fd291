"""Import hygiene of the package, checked on its syntax trees with the standard library alone."""

import ast
from pathlib import Path

import pytest

import crprolong

PACKAGE = Path(crprolong.__file__).parent


def _unused_imports(tree) -> list:
    """(line, name) of every name that ``tree`` imports but neither reads nor lists in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read | exported)


def test_unused_import_check_flags_a_leftover_name():
    tree = ast.parse("from .exact import QI, Matrix\nimport json, os.path\n__all__ = ['Matrix']\njson.dumps(os.sep)\n")
    assert _unused_imports(tree) == [(1, "QI")]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_does_not_use(path):
    assert _unused_imports(ast.parse((PACKAGE / path).read_text())) == []
