import importlib
import pkgutil

import pytest

import geosid

MODULES = sorted(info.name for info in pkgutil.iter_modules(geosid.__path__, "geosid."))


def test_package_imports():
    assert importlib.import_module("geosid").__version__
    assert len(MODULES) >= 8


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
