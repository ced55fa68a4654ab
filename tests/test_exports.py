"""Every module of the package that declares __all__ exports only names
it defines."""

import importlib
import pkgutil

import pytest

import bchyp

MODULES = sorted(m.name for m in pkgutil.iter_modules(bchyp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name deleted from a module but left in its __all__ breaks
    # `from bchyp.<module> import *` only when someone runs it
    module = importlib.import_module(f"bchyp.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
