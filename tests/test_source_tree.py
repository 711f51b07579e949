"""Every function, method and class in src/haarlab is used there.

A definition whose name the package never refers to is code that only
tests, or nobody, call. The allow-list names the oracles that tests
compare the library against on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "haarlab"

# (module, name): kept for the tests to check the library against
TEST_ORACLES = {("theory", "monotone_alternation_check"), ("envs.tabular", "TabularRolloutEnv"),
                ("pretrain", "skill_displacements")}


def scan():
    """(definitions as (module, name), every name the package refers to)."""
    defined, used = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
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
    unused = {(module, name) for module, name in defined
              if name not in used and not (name.startswith("__") and name.endswith("__"))}
    assert TEST_ORACLES <= unused, "an allow-listed oracle is gone or now used: trim the list"
    assert sorted(unused - TEST_ORACLES) == []
