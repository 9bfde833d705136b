"""Rules on the package source itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridfloer"


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check in the package
    # raises a typed error instead
    sources = sorted(SRC.rglob("*.py"))
    assert sources, f"no sources under {SRC}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
