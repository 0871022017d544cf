"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import hdlab

PACKAGE = Path(hdlab.__file__).parent
# the package __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
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
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import math\nimport os\nfrom numpy import pi, e\nprint(math.tau, pi)\n"
    assert unused_imports(source) == ["e (line 3)", "os (line 2)"]
