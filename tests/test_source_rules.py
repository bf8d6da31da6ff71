import ast
from pathlib import Path

import spinlab

PACKAGE = Path(spinlab.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check may live in one
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
