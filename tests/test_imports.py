"""Every module of the package and of the test suite uses each name it imports.

``crflat/__init__.py`` is left out: it imports to re-export.  A name counts
as used when the module reads it anywhere, also inside a string annotation
such as ``germ: "Germ"`` under ``TYPE_CHECKING``.
"""

import ast

from conftest import FIXTURES

ROOT = FIXTURES.parent
CHECKED = sorted(
    [p for p in (ROOT / "src" / "crflat").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + [ROOT / "conftest.py"]
)


def _imported(tree: ast.Module):
    """(line, bound name) of every import; ``__future__`` and star imports bind nothing to read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.AST) -> set[str]:
    """Every name the tree reads, with those inside its string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """``line name`` of each imported name that the source never reads."""
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{line} {name}" for line, name in _imported(tree) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{entry}"
        for path in CHECKED
        for entry in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_check_finds_an_injected_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING\n"
        "from x import y as z, w\n"
        "if TYPE_CHECKING:\n"
        "    from .germ import Germ\n"
        "def f(g: 'Germ') -> z:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["4 w"]
    injected = source.replace("import os.path\n", "import os.path\nimport sys\n")
    assert unused_imports(injected) == ["3 sys", "5 w"]
    # a name in a plain string, not an annotation, is not a use
    assert unused_imports("import sys\nx = 'sys'\n") == ["1 sys"]
