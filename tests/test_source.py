"""Static checks on the package source, read with ``ast`` only."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fracfree"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, with their line numbers.

    Every read of a name, attribute roots included, is an ``ast.Name``
    node, also in annotations; ``__future__`` imports are directives."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict) -> list:
    """Module-level private names (functions, classes and assigned
    constants) that no module of ``sources`` reads, as (module, line,
    name); ``sources`` maps module names to their text.

    A read is an ``ast.Name`` load or an attribute of that name; a
    definition, an assignment or an import is not a read."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_unread_private_names_are_found():
    sources = {
        "a": "_K = 1\n_J: int = 2\nclass _C: pass\ndef _f(): return _K\n__all__ = []\n",
        "b": "from a import _J\nimport a\na._f()\n",
    }
    assert unread_private_names(sources) == [("a", 2, "_J"), ("a", 3, "_C")]


def test_no_unread_private_names():
    # reads in tests do not count: a helper that only tests call is dead code
    assert unread_private_names({p.name: p.read_text() for p in SRC.glob("*.py")}) == []
