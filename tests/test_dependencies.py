"""The package imports only the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

import pytest

import anderson_pi

PACKAGE = Path(anderson_pi.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "anderson_pi"}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports of ``path``; relative imports are the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert imported_modules(path) - ALLOWED == set()


def test_reference_imports_only_stdlib_and_numpy():
    # the reference is the engine's cross-check, so it must not share its code
    reference = Path(__file__).with_name("reference_aa.py")
    assert imported_modules(reference) - (ALLOWED - {"anderson_pi"}) == set()
