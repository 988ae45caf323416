"""Properties of the source tree itself."""

import ast
from pathlib import Path

import lotcert

SRC = Path(lotcert.__file__).parent


def test_no_assert_statements_in_src():
    # python -O strips asserts, so a check that decides anything must be explicit
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
