"""The public surface of the package: ``repairdx.__all__`` against the
names ``repairdx/__init__.py`` imports."""

import ast
from pathlib import Path

import repairdx


def _imported_public_names() -> set[str]:
    tree = ast.parse(Path(repairdx.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if not (alias.asname or alias.name).startswith("_")
    }


def test_every_name_in_all_resolves():
    assert [name for name in repairdx.__all__ if not hasattr(repairdx, name)] == []
    namespace = {}
    exec("from repairdx import *", namespace)
    assert set(repairdx.__all__) <= set(namespace)


def test_every_imported_public_name_is_in_all():
    assert _imported_public_names() - set(repairdx.__all__) == set()


def test_all_lists_each_name_once():
    assert len(repairdx.__all__) == len(set(repairdx.__all__))
