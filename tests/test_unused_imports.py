"""Every module-level import under src/celalg, tests and tools is named by
its module.

The src/celalg/__init__.py re-exports and `from __future__ import
annotations` are exempt.  An import counts as named when its bound name
occurs as a name anywhere in the module, annotations included.  Standard
library only.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "celalg"
# the package modules by file name, then tests/ and tools/ by relative path
MODULES = [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py"))
           if p.name != "__init__.py"] + [
    pytest.param(p, id=f"{folder}/{p.name}")
    for folder in ("tests", "tools") for p in sorted((ROOT / folder).glob("*.py"))]


def unused_imports(text):
    """The names bound by the module-level imports of text that the module
    never names, in order."""
    tree = ast.parse(text)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in named]


def test_unused_imports_names_exactly_the_unused_ones():
    text = ("from __future__ import annotations\n"
            "import os\nimport os.path\nimport re as regex\n"
            "from typing import Dict, List as L\n"
            "def g(x: L) -> None:\n    return os.sep\n")
    assert unused_imports(text) == ["regex", "Dict"]


@pytest.mark.parametrize("path", MODULES)
def test_module_names_every_import(path):
    assert unused_imports(path.read_text()) == []
