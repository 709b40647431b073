import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


def _used_names() -> set[str]:
    """Every name read, or read as an attribute, in the package and the tests.

    A definition, an import and an __all__ entry read no name, so a public
    name is in this set only where some code or test uses it (a name read
    anywhere counts, whichever module it came from)."""
    package = Path(homsys.__file__).parent
    used: set[str] = set()
    for path in [*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_or_a_test():
    # a submodule in the package's __all__ is used through its import statements
    used = _used_names()
    unused = []
    for name in WITH_ALL:
        module = importlib.import_module(name)
        unused += [f"{name}.{n}" for n in module.__all__ if n not in used and not inspect.ismodule(getattr(module, n))]
    assert not unused
