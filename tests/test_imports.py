"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import enriques

MODULES = sorted(Path(enriques.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by the module's import statements that no other
    statement of the module reads, in order of appearance."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    source = "import json\nfrom os import path, sep as s\nprint(path)\n"
    assert unused_imports(source) == ["json", "s"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
