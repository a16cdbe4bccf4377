"""The docstring examples of every wol module run and pass."""

import doctest
import importlib
import pkgutil

import wol


def test_module_doctests():
    attempted = 0
    failed = {}
    for info in pkgutil.iter_modules(wol.__path__):
        result = doctest.testmod(importlib.import_module(f"wol.{info.name}"))
        attempted += result.attempted
        if result.failed:
            failed[info.name] = result.failed
    assert failed == {}
    assert attempted > 0
