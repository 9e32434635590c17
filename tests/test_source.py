"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

import mmprune

MODULES = sorted(path for path in Path(mmprune.__file__).parent.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads. `__future__` imports are features, not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_finds_what_is_never_read():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == ["os", "np", "b"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    # `__init__.py` imports names only to re-export them
    assert unused_imports(path.read_text()) == []
