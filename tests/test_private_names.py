"""Module names: every private function has a consumer, and __all__ lists the public ones."""
import ast
import importlib
import inspect
import pathlib

import maxext

SRC = pathlib.Path(maxext.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_private_function_is_referenced_in_the_package():
    # a private function that only tests reach is dead code: delete it, or
    # give it a caller
    trees = _trees()
    private = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert private  # the scan found the functions it checks
    assert sorted(f"{module}:{name}" for module, name in private if name not in used) == []


def _is_function_or_class(obj):
    return inspect.isfunction(obj) or inspect.isclass(obj)


def test_all_lists_exactly_the_public_functions_and_classes():
    # every public function or class a module defines is in its __all__, and
    # every function or class in __all__ is one the module defines
    modules = [importlib.import_module(f"maxext.{path.stem}") for path in sorted(SRC.glob("*.py"))
               if not path.stem.startswith("_")]
    checked = 0
    for module in modules:
        if not hasattr(module, "__all__"):
            continue
        checked += 1
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_") and _is_function_or_class(obj)
                   and obj.__module__ == module.__name__}
        listed = {name for name in module.__all__ if _is_function_or_class(getattr(module, name))}
        assert listed == defined, module.__name__
    assert checked >= 6


def test_only_errors_and_cli_import_numbers_or_operator():
    # errors._real and errors._integer hold the rule for every number the
    # library takes; a module importing numbers or operator is writing its own
    # (cli needs numbers only to format its output)
    importers = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {node.module.split(".")[0]}
            else:
                continue
            if names & {"numbers", "operator"}:
                importers.add(module)
    assert importers == {"errors.py", "cli.py"}


def _unused_imports(tree):
    # names an import binds that no expression of the module reads
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used_in_its_module():
    # an import left behind when its last reader is deleted is dead code too
    assert _unused_imports(ast.parse(
        "from __future__ import annotations\nimport os.path\nimport math as m\n"
        "from .norming import _GENERAL, _ALTERNATIVE\nm.pi, _GENERAL\n")) == {"os", "_ALTERNATIVE"}
    assert {module: sorted(names) for module, tree in _trees().items()
            if (names := _unused_imports(tree))} == {}
