"""Source-level checks on the package itself."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "fcone"


def test_no_assert_statements():
    # correctness self-checks must survive ``python -O``, which strips asserts
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert paths, f"no package sources under {PACKAGE_DIR}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"
