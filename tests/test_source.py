"""Source-level rules for the package, checked on its syntax trees."""

import ast
from pathlib import Path

import skiprec

PACKAGE = Path(skiprec.__file__).parent


def test_no_nonlocal_and_no_global_but_the_tape():
    # The active autodiff tape is the one piece of module-level state a
    # function may rebind; everything else a forward uses is an argument.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.append((path.name, type(node).__name__, node.names))
    assert found == [("autodiff.py", "Global", ["_TAPE"])]
