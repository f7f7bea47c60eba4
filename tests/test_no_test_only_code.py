"""The package ships no code that only the tests use.

Every public module-level function and class of ``src/fairlink``, and
every public method and property of a public class, must be referenced
from code in ``src/``, ``scripts/`` or ``perfbench/``. A reference is a
name, an attribute or an imported name, read with ``ast``; docstrings,
string literals and ``test_*.py`` files do not count. Slow reference
models of the package's quantities belong in ``tests/reference.py``.
Every exception class of ``errors.py`` must be raised or caught in
``src/``, so that no class outlives its last use. Every private
module-level function, class and constant of ``src/fairlink`` must be
read (a load, not a definition or an import) somewhere in ``src/``.
Every keyword-only parameter with a default, of a public function or of
a public method of a public class, must be passed by name to a call of
that function or method in ``src/``, ``scripts/`` or ``perfbench/``: a
default that no caller varies is a constant. Only the process owners, the
CLI commands and ``pipeline.run_pipeline``, call an input reader; no stage
reads what its caller has already read and checked.
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


def public_members() -> list[tuple[str, str]]:
    """``(module.Class.name, name)`` of each public method and property of a public class.

    A property is a decorated method or a ``name = property(...)`` assignment.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in parse(path).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                names = []
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "property"
                ):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                found += [
                    (f"{path.stem}.{cls.name}.{name}", name)
                    for name in names
                    if not name.startswith("_")
                ]
    return found


def test_members_are_found():
    names = {name for _, name in public_members()}
    assert {"adjacency", "smoothed", "train", "pair", "is_intra", "at_k"} <= names


def test_every_public_member_has_a_caller_outside_the_tests():
    used = referenced_names()
    unused = [qualified for qualified, name in public_members() if name not in used]
    assert unused == []


def raised_or_caught() -> set[str]:
    """Names of the classes that ``src/`` raises (``raise X`` or ``raise X(...)``) or catches."""
    names = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(getattr(exc, "id", None))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names.update(getattr(t, "id", None) for t in types)
    return names


def test_every_error_class_is_raised_or_caught():
    classes = [n.name for n in parse(PACKAGE / "errors.py").body if isinstance(n, ast.ClassDef)]
    assert {"FairlinkError", "ConfigError", "DataError", "InfeasibleError"} <= set(classes)
    assert [name for name in classes if name not in raised_or_caught()] == []


def private_definitions() -> list[tuple[str, str]]:
    """``(module.name, name)`` of each private module-level function, class and constant."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [
                (f"{path.stem}.{name}", name)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
    return found


def loaded_in_src() -> set[str]:
    """Names and attributes that code in ``src/`` reads."""
    names = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_private_definitions_are_found():
    names = {name for _, name in private_definitions()}
    assert {"_interned_group", "_check_number", "_PIPELINE_ALIASES", "_sort_key"} <= names


def test_every_private_definition_is_read_in_src():
    used = loaded_in_src()
    assert [qualified for qualified, name in private_definitions() if name not in used] == []


FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def keyword_defaults() -> list[tuple[str, str, str]]:
    """``(module.name, name, parameter)`` of each keyword-only parameter with a
    default, of a public function or of a public method of a public class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        functions = []
        for node in parse(path).body:
            if isinstance(node, FUNCTION):
                functions.append((node.name, node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                methods = [f for f in node.body if isinstance(f, FUNCTION)]
                functions += [(f"{node.name}.{f.name}", f) for f in methods]
        for qualified, function in functions:
            if function.name.startswith("_"):
                continue
            args = function.args
            found += [
                (f"{path.stem}.{qualified}", function.name, arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
    return found


def keywords_passed() -> set[tuple[str, str]]:
    """``(callee, keyword)`` of each keyword argument of a call outside the tests."""
    passed = set()
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    passed.update((callee, k.arg) for k in node.keywords if k.arg)
    return passed


def test_keyword_defaults_are_found():
    found = {(name, parameter) for _, name, parameter in keyword_defaults()}
    assert {("enumerate_ndkl_extremes", "guard"), ("evaluate_ranking", "smoothing")} <= found


def test_every_keyword_default_is_passed_by_name_outside_the_tests():
    passed = keywords_passed()
    unused = [f"{q}({p})" for q, name, p in keyword_defaults() if (name, p) not in passed]
    assert unused == []


# The readers of input files, and the functions that may call them.
READERS = {
    "load_graph", "load_embeddings", "read_edge_list", "read_attributes", "read_ranking",
    "ingest_scores",
}
READER_OWNERS = {"pipeline.run_pipeline", "graphs.load_graph"}


def reader_calls() -> list[tuple[str, str]]:
    """``(module.function, reader)`` of each call of an input reader in ``src/fairlink``.

    A method's owner is ``module.Class.method``; a call outside any
    function is owned by ``module.<module>``.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        owners = []
        for node in parse(path).body:
            if isinstance(node, ast.ClassDef):
                owners += [(f"{node.name}.{getattr(m, 'name', '<body>')}", m) for m in node.body]
            else:
                owners.append((getattr(node, "name", "<module>"), node))
        for owner, tree in owners:
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if callee in READERS:
                        found.append((f"{path.stem}.{owner}", callee))
    return found


def test_reader_calls_are_found():
    calls = reader_calls()
    assert {("pipeline.run_pipeline", "load_graph"), ("cli.cmd_eval", "read_ranking")} <= set(calls)
    assert ("graphs.load_graph", "read_attributes") in calls


def test_only_the_process_owners_read_input_files():
    strays = [
        f"{owner} calls {reader}"
        for owner, reader in reader_calls()
        if not owner.startswith("cli.") and owner not in READER_OWNERS
    ]
    assert strays == []
