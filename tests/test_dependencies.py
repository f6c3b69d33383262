"""The engine is dependency-free: src/moravak imports only the standard
library and itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "moravak"


def imported_packages(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SOURCE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SOURCE)))
def test_engine_imports_only_the_standard_library(path):
    assert imported_packages(path) - set(sys.stdlib_module_names) - {"moravak"} == set()
