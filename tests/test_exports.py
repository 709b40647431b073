import importlib
import pkgutil

import pytest

import homsys

MODULES = ["homsys"] + [f"homsys.{m.name}" for m in pkgutil.iter_modules(homsys.__path__)]
WITH_ALL = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", WITH_ALL)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
