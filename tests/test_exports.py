import argparse
import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import homsys
from homsys import cli

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


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of the parser and its subcommands, argparse's own -h/--help left out."""
    found: set[str] = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _option_strings(sub)
        elif not isinstance(action, argparse._HelpAction):
            found.update(action.option_strings)
    return found


def test_every_cli_option_is_passed_by_some_test():
    # a test passes an option as a string literal of its argv
    literals = {
        node.value
        for path in Path(__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert sorted(_option_strings(cli.build_parser()) - literals) == []


def test_the_package_reads_no_environment_variable():
    # every setting is a command-line option or a parameter, so none can come in through the environment
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted(Path(homsys.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.Name, ast.alias)):  # a bare environ, or its import from os
                name = getattr(node, "id", None) or node.name
            else:
                continue
            if name in names:
                reads.append(f"{path.name}:{node.lineno}")
    assert not reads


def test_no_module_of_the_package_imports_scipy():
    # numpy is the one runtime dependency; scipy is a test extra, read only by the tests' references
    imports = []
    for path in sorted(Path(homsys.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                imports.append(f"{path.name}:{node.lineno}")
    assert not imports


def test_the_benchmark_tracer_finds_every_span_it_reports(monkeypatch):
    # the tracer wraps the public functions by name, and its per-layer metrics look some of them up;
    # a public function that moves or is renamed must fail here, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # reads bench/, writes nothing there
    tracing = importlib.import_module("tracing")
    names = sorted({span for span, *_ in tracing.Tracer()._targets()})
    empty = {key: np.zeros(0, dtype=np.int32) for key in ("name", "parent", "invocation")}
    empty.update({key: np.zeros(0) for key in ("start", "end", "value")}, ok=np.zeros(0, dtype=np.int8))
    metrics = tracing.layer_metrics(names, empty, [], 0.0)
    assert metrics["trace.spans"] == (0, "count")
