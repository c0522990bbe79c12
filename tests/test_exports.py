"""The public surface of the package: ``repairdx.__all__`` against the
name -> module table that ``repairdx/__init__.py`` serves its names from."""

import importlib

import repairdx


def test_every_name_in_all_resolves():
    assert [name for name in repairdx.__all__ if not hasattr(repairdx, name)] == []
    namespace = {}
    exec("from repairdx import *", namespace)
    assert set(repairdx.__all__) <= set(namespace)


def test_every_imported_public_name_is_in_all():
    # The package imports its public names through `_EXPORTS` only, and
    # each is the object of that name in the module that defines it.
    table = repairdx._EXPORTS
    assert list(table) == repairdx.__all__
    for name, module in table.items():
        value = getattr(repairdx, name)
        assert value is getattr(importlib.import_module(f"repairdx.{module}"), name), name
        assert value.__module__ == f"repairdx.{module}", name


def test_all_lists_each_name_once():
    assert len(repairdx.__all__) == len(set(repairdx.__all__))


def test_dir_lists_every_lazy_name():
    names = dir(repairdx)
    assert names == sorted(names)
    assert set(repairdx.__all__) | {"__version__"} <= set(names)
    assert not [name for name in names if not hasattr(repairdx, name)]
