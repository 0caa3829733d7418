"""Every name a biquon module exports through __all__ exists."""

import importlib
import pkgutil

import pytest

import biquon

MODULES = sorted(m.name for m in pkgutil.iter_modules(biquon.__path__, "biquon."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
