"""Every exported name resolves: tools that walk `__all__` call getattr on each entry."""

import importlib
import pkgutil

import pytest

import sharedsched

MODULES = ["sharedsched"] + [
    f"sharedsched.{info.name}" for info in pkgutil.iter_modules(sharedsched.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert missing == []
