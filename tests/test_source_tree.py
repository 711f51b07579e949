"""Every function, method, class and import in src/haarlab is used there.

A definition whose name the package never refers to is code that only
tests, or nobody, call; the oracles the tests check the library against
live in tests/helpers.py. An import a module never uses is left over.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "haarlab"


def modules():
    """(dotted module name, parsed tree) for every module of the package."""
    for path in sorted(SRC.rglob("*.py")):
        yield (".".join(path.relative_to(SRC).with_suffix("").parts),
               ast.parse(path.read_text(), str(path)))


def scan():
    """(definitions as (module, name), every name the package refers to)."""
    defined, used = set(), set()
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((module, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    return defined, used


def test_every_definition_is_used_in_the_package():
    defined, used = scan()
    assert sorted((module, name) for module, name in defined
                  if name not in used and not (name.startswith("__") and name.endswith("__"))) == []


def test_every_import_is_used_in_its_module():
    unused = []
    for module, tree in modules():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                for alias in node.names:
                    # `import a.b` binds `a`
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(module, name, line) for name, line in imported.items() if name not in names]
    assert sorted(unused) == []
