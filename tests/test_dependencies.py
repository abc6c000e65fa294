"""The package runs on the standard library and numpy alone.

A package module that imports any other top-level module adds a runtime
dependency that ``pyproject.toml`` does not declare; the chat client speaks
``urllib``, and the declared dependencies are numpy's line only.
"""

import ast
import sys
from pathlib import Path

import pytest

import sceneground

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {"numpy"}


def _top_level_imports(tree: ast.Module) -> set[str]:
    """The top-level module of every absolute import in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_modules_import_only_the_stdlib_and_numpy():
    outside = {}
    for path in sorted(Path(sceneground.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        extra = _top_level_imports(tree) - set(sys.stdlib_module_names) - ALLOWED
        if extra:
            outside[path.name] = sorted(extra)
    assert outside == {}


def test_the_guard_sees_each_kind_of_import():
    tree = ast.parse("import numpy as np\n"
                     "import urllib.request\n"
                     "from requests.adapters import HTTPAdapter\n"
                     "from . import dsl\n"
                     "def f():\n"
                     "    import yaml\n")
    assert _top_level_imports(tree) == {"numpy", "urllib", "requests", "yaml"}


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
