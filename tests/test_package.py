"""Static guards against dead code coming back.

Every name in ``toruslab.__all__`` has a reader: code in ``src/`` outside
its own definition, an import of the acceptance criteria, or a name or
string of the benchmark harness under ``perfbench/``.  No module of the package imports a name it
never uses, and every (module, function) pair the benchmark tracer patches
still resolves.  The checks read source text and syntax trees only; the
harness is never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

import toruslab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toruslab"
MODULES = sorted(PACKAGE.glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))


def syntax_tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def read_names(node) -> set:
    """The identifiers a syntax tree reads (loads, not stores)."""
    return {sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)}


def defines(statement, name: str) -> bool:
    """Whether a module-level statement is the definition of ``name``."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return statement.name == name
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return any(isinstance(t, ast.Name) and t.id == name for t in targets)
    return False


def read_in_package(name: str) -> bool:
    """``name`` is read by a module of the package, outside its own
    definition and the re-exports of ``__init__.py``."""
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        if any(name in read_names(statement)
               for statement in syntax_tree(path).body if not defines(statement, name)):
            return True
    return False


def acceptance_imports() -> set:
    tree = syntax_tree(ROOT / "tests" / "test_acceptance.py")
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("toruslab")
            for alias in node.names}


def harness_names() -> set:
    """Every identifier the benchmark files use, attributes and imports
    included, and every string constant, such as a name looked up by getattr."""
    out = set()
    for path in HARNESS:
        for node in ast.walk(syntax_tree(path)):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


@pytest.mark.parametrize("name", toruslab.__all__)
def test_every_exported_name_has_a_reader(name):
    assert read_in_package(name) or name in acceptance_imports() or name in harness_names(), (
        f"{name} is read by no module of src/, no acceptance criterion and no benchmark file")


def imported_names(tree: ast.Module) -> dict:
    """The name each import binds, mapped to the line that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update({alias.asname or alias.name: node.lineno for alias in node.names})
        elif isinstance(node, ast.Import):
            out.update({(alias.asname or alias.name).split(".")[0]: node.lineno
                        for alias in node.names})
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = syntax_tree(path)
    used = read_names(tree)
    if path.name == "__init__.py":
        used |= set(toruslab.__all__)  # the package re-exports what it imports
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def dotted(node) -> str:
    """``a.b.c`` for an attribute chain of names."""
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return node.id


def traced_pairs() -> list:
    """The (module, function) pairs of the tracer's TRACED table."""
    tree = syntax_tree(ROOT / "perfbench" / "tracing.py")
    table, = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)]
    return [(dotted(key), name.value)
            for key, names in zip(table.keys, table.values) for name in names.elts]


def test_the_traced_table_is_read():
    pairs = traced_pairs()
    assert ("toruslab.symbols", "eval_expr") in pairs and len(pairs) > 10


@pytest.mark.parametrize("module, name", [pytest.param(*pair, id=".".join(pair))
                                          for pair in traced_pairs()])
def test_every_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
