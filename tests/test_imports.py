"""Every name a module of the package or a test file imports is used in it,
and the CLI starts without SciPy or jsonschema."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hdlab

PACKAGE = Path(hdlab.__file__).parent
TESTS = Path(__file__).parent
# the package __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


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


def test_cli_import_loads_no_scipy():
    # SciPy is a test-only reference and jsonschema (with its referencing
    # and rpds) a test-only oracle of cli.schema_error: a fresh interpreter
    # importing the CLI must load none of them.  It loads every module of the
    # package all the same, so the saving is not a deferred import
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import json, sys, hdlab.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'jsonschema', 'referencing', 'rpds', 'hdlab'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert sorted(m for m in loaded if not m.startswith("hdlab")) == []
    package = {"hdlab"} | {f"hdlab.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert package <= loaded, sorted(package - loaded)
