"""Every third-party import is declared in pyproject.toml, and nothing more at runtime."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def declared(requirements):
    """Distribution names of requirement strings such as "numpy>=1.24"."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


def third_party_imports(directory: Path, local: set):
    """Top-level names of the absolute imports in every module, functions included."""
    found = {}
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, path.relative_to(ROOT).as_posix())
    return found


@pytest.fixture(scope="module")
def project():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def test_runtime_imports_are_the_declared_dependencies(project):
    runtime = declared(project["dependencies"])
    imports = third_party_imports(ROOT / "src", {"lwlattice"})
    undeclared = {name: where for name, where in imports.items() if name not in runtime}
    assert not undeclared, f"imported under src/ but not in dependencies: {undeclared}"
    assert runtime <= set(imports), f"declared but never imported: {runtime - set(imports)}"


def test_test_imports_are_declared(project):
    allowed = declared(project["dependencies"]) | declared(project["optional-dependencies"]["test"])
    local = {"lwlattice"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    imports = third_party_imports(ROOT / "tests", local)
    undeclared = {name: where for name, where in imports.items() if name not in allowed}
    assert not undeclared, f"imported under tests/ but declared nowhere: {undeclared}"
