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


def _package_calls() -> list[tuple[str, ast.Call]]:
    """Every call in the package, with its enclosing scope as ``module.qualname``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                found.append((scope, child))
            visit(child, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _callers(name: str) -> list[str]:
    return sorted({scope for scope, call in _package_calls() if _name(call.func) == name})


def test_only_run_builds_a_divergence_error():
    # the engine records a failed run's outcome on its trace; run alone raises it
    assert _callers("DivergenceError") == ["solver.run"]


def test_nothing_unwraps_a_divergence_error():
    checks = [
        scope for scope, call in _package_calls()
        if _name(call.func) == "isinstance" and len(call.args) == 2
        and any(_name(n) == "DivergenceError" for n in ast.walk(call.args[1]))
    ]
    assert checks == []


def test_only_the_dense_convenience_builds_a_dense_p():
    # validate, the sweep and the MDP file all work on the successor lists
    assert _callers("_dense") == ["mdp.TabularMdp.transitions"]
