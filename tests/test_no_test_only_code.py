"""The package ships no code that only the tests use.

Every public module-level function and class of ``src/fairlink`` must be
referenced from code in ``src/``, ``scripts/`` or ``perfbench/``. A
reference is a name, an attribute or an imported name, read with
``ast``; docstrings, string literals and ``test_*.py`` files do not
count. Slow reference models of the package's quantities belong in
``tests/reference.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fairlink"
CALLERS = ("src", "scripts", "perfbench")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names() -> set[str]:
    names = set()
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names


def public_definitions() -> list[tuple[str, str]]:
    """``(module.name, name)`` of each public module-level function and class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            definition = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(node, definition) and not node.name.startswith("_"):
                found.append((f"{path.stem}.{node.name}", node.name))
    return found


def test_definitions_are_found():
    names = {name for _, name in public_definitions()}
    assert {"load_graph", "kl_greedy_merge", "enumerate_ndkl_extremes"} <= names


def test_every_public_definition_has_a_caller_outside_the_tests():
    used = referenced_names()
    unused = [qualified for qualified, name in public_definitions() if name not in used]
    assert unused == []
