"""The library runs on the standard library and numpy alone: every import in
``src/grouplin`` names a standard module, numpy, or the package itself. A
host with more installed (scipy, say) would not show a stray import."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "grouplin"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "grouplin"}


def imported(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in the file;
    relative imports stay within the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_stdlib_numpy_or_the_package(path):
    stray = [f"{path.name}:{line} imports {name}" for line, name in imported(path) if name not in ALLOWED]
    assert stray == []


def test_the_check_sees_a_stray_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nfrom . import io\nif True:\n    from scipy import linalg\n", encoding="utf-8")
    assert [name for _, name in imported(path) if name not in ALLOWED] == ["scipy"]
