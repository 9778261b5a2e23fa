"""No function body reads a Scheme member through its class: ≈ 110 ns a read on CPython 3.11.

The hot paths use the module globals norming._GENERAL, _OPTIMAL and
_ALTERNATIVE instead; module-level code and default arguments, which run
once, may still name `Scheme.<member>`.
"""
import ast
import pathlib

import maxext
from maxext.norming import Scheme

SRC = pathlib.Path(maxext.__file__).parent


def _member_reads_in_bodies(tree):
    """(line, member) of every `Scheme.<member>` read inside a function body."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
        elif isinstance(node, ast.Lambda):
            body = [node.body]
        else:
            continue
        for stmt in body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "Scheme" and sub.attr in Scheme.__members__):
                    found.append((sub.lineno, sub.attr))
    return found


def test_the_scan_flags_a_body_read_and_spares_a_default():
    tree = ast.parse("def f(s=Scheme.GENERAL_POWER):\n"
                     "    return s is Scheme.SQUARE_OPTIMAL\n"
                     "g = lambda: Scheme.SQUARE_ALTERNATIVE\n"
                     "DEFAULT = Scheme.GENERAL_POWER\n")
    assert sorted(_member_reads_in_bodies(tree)) == [(2, "SQUARE_OPTIMAL"),
                                                    (3, "SQUARE_ALTERNATIVE")]


def test_no_function_body_reads_a_scheme_member():
    reads = {path.name: _member_reads_in_bodies(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(reads) >= 8  # the scan saw the package
    assert {name: found for name, found in reads.items() if found} == {}
