import ast
from pathlib import Path

import mackeydim

SOURCES = sorted(Path(mackeydim.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # exactness invariants must be raised errors: python -O drops asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
