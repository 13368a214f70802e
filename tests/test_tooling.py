"""Source-level invariants of the package."""

import ast
from pathlib import Path

import motiveforge

SOURCES = sorted(Path(motiveforge.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # invariants must hold under ``python -O``, so they are typed errors
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
