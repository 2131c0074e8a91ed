"""The README's claims ledger names only tests and bound ids that exist.

The ledger asserts no claim's status: the tests it names do that.
"""

import ast
import pathlib
import re

from anderson_pi import diagnostics

ROOT = pathlib.Path(__file__).resolve().parents[1]
BOUND_IDS = {*diagnostics.ASSERTED_IDS, *diagnostics.REPORT_ONLY_IDS, "Theorem3"}


def ledger_rows():
    """The cells of each row of the README's "Claims ledger" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Claims ledger\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    # a "|" escaped as "\|" stays inside its cell
    rows = [[c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]] for line in lines]
    header, rule, *body = rows
    assert header == ["#", "Claim", "Tested by", "Status"]
    assert set("".join(rule)) <= set("-")
    return body


def defined_functions(path: pathlib.Path) -> set[str]:
    """``name`` and ``Class::name`` of each function defined in a test file."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}::{f.name}" for f in node.body if isinstance(f, ast.FunctionDef)
            )
    return names


def test_ledger_names_existing_tests_and_bound_ids():
    rows = ledger_rows()
    assert [row[0] for row in rows] == [str(i) for i in range(1, len(rows) + 1)]
    named_tests = 0
    for number, _, tested_by, _ in rows:
        spans = re.findall(r"`([^`]+)`", tested_by)
        assert spans or tested_by == "none", number
        for span in spans:
            if "::" in span:
                path, name = span.split("::", 1)
                assert name in defined_functions(ROOT / path), (number, span)
                named_tests += 1
            else:
                assert span in BOUND_IDS, (number, span)
    assert named_tests > 0
