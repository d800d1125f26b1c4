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


def autodiff_names_used_by(tree: ast.Module) -> set[str]:
    """Names a module takes from autodiff, by import or as ``<alias>.name``."""
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "autodiff":
                used.update(a.name for a in node.names)
            else:
                aliases.update(a.asname or a.name for a in node.names if a.name == "autodiff")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            used.add(node.attr)
    return used


def test_every_public_autodiff_function_has_a_caller_in_the_package():
    # Test tools are the only functions the package itself need not call.
    test_tools = {"tensor", "grad_check", "mul", "sum_all"}
    tree = ast.parse((PACKAGE / "autodiff.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "autodiff.py":
            used |= autodiff_names_used_by(ast.parse(path.read_text(encoding="utf-8")))
    assert public - used - test_tools == set()
