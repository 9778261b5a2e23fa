"""Every module-level private function of the package has a consumer in it."""
import ast
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
