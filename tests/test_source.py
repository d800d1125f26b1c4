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


# Public functions that no code of the package need call, each with its reason.
NO_CALLER_NEEDED = {
    "autodiff.tensor": "test tool: wraps an array as a tape input",
    "autodiff.mul": "test tool: an elementwise product for op and tape tests",
    "autodiff.sum_all": "test tool: reduces an op's output to a scalar to differentiate",
    "autodiff.grad_check": "test tool: the finite-difference gradient checker",
    "encoder.zero_residual_branches": "test tool: makes a block the identity",
    "synth.prototypes": "the generator's prototypes, read by the synth tests, criterion 09 "
                        "and perfbench's inputs",
    "config.save_run_config": "used by the CLI round-trip tests",
    "config.full_scale_presets": "used by perfbench's long-encode workload",
}


def modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def public_functions(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def names_used_by(tree: ast.Module, module: str) -> set[str]:
    """Names a module takes from ``module``, by import or as ``<alias>.name``."""
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == module:
                used.update(a.name for a in node.names)
            else:
                aliases.update(a.asname or a.name for a in node.names if a.name == module)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            used.add(node.attr)
    return used


def names_loaded_outside_their_definition(tree: ast.Module) -> set[str]:
    """Names a module reads, leaving out a function's reads of its own name."""
    used = set()
    for stmt in tree.body:
        used |= {node.id for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                 and node.id != getattr(stmt, "name", None)}
    return used


def test_every_public_autodiff_function_has_a_caller_in_the_package():
    # Test tools are the only functions the package itself need not call.
    trees = modules()
    test_tools = {name.split(".")[1] for name in NO_CALLER_NEEDED
                  if name.startswith("autodiff.")}
    used = set()
    for name, tree in trees.items():
        if name != "autodiff":
            used |= names_used_by(tree, "autodiff")
    assert public_functions(trees["autodiff"]) - used - test_tools == set()


def test_every_public_function_has_a_caller_in_the_package():
    trees = modules()
    uncalled = set()
    for module, tree in trees.items():
        used = names_loaded_outside_their_definition(tree)
        for name, other in trees.items():
            if name != module:
                used |= names_used_by(other, module)
        uncalled |= {f"{module}.{name}" for name in public_functions(tree) - used}
    assert uncalled - NO_CALLER_NEEDED.keys() == set()


def test_every_name_on_the_allow_list_is_a_public_function():
    trees = modules()
    for entry in NO_CALLER_NEEDED:
        module, name = entry.split(".")
        assert name in public_functions(trees[module]), entry


# Defaulted parameters that no call in the package need set, each with its reason.
NO_SETTER_NEEDED = {
    "autodiff.tensor(dtype)": "test tool: the float32 tests build float32 inputs",
    "autodiff.grad_check(h)": "test tool: the finite-difference step",
    "autodiff.grad_check(scale_floor)": "test tool: the relative-error floor",
    "cli.main(argv)": "entry point: the console script passes none, the CLI tests a list",
}


def defaulted_parameters(fn: ast.FunctionDef) -> list[tuple[int | None, str, ast.expr]]:
    """(position, or None when keyword-only, name, default) of each parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(first + i, arg.arg, default)
             for i, (arg, default) in enumerate(zip(positional[first:], args.defaults))]
            + [(None, arg.arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def arguments_passed(call: ast.Call) -> tuple[float, set[str]]:
    """How many positions and which names a call sets.

    A ``*`` argument may fill every position. A ``**`` argument sets each
    name that it spells out as a string, as ``**given(args, "beam")`` does.
    """
    positions = float("inf") if any(isinstance(a, ast.Starred) for a in call.args) \
        else len(call.args)
    names = set()
    for kw in call.keywords:
        if kw.arg is not None:
            names.add(kw.arg)
        else:
            names |= {n.value for n in ast.walk(kw.value)
                      if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return positions, names


def test_every_defaulted_parameter_is_set_by_a_call_in_the_package():
    # A default that no call overrides is a constant in disguise. Public
    # function names are unique across the package, so a call is matched to
    # its function by name, whether it reads ``f(...)`` or ``module.f(...)``.
    trees = modules()
    calls: dict[str, list[tuple[float, set[str]]]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(arguments_passed(node))
    unset = set()
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            for position, name, _ in defaulted_parameters(fn):
                if not any(position is not None and position < passed or name in names
                           for passed, names in calls.get(fn.name, [])):
                    unset.add(f"{module}.{fn.name}({name})")
    assert sorted(unset ^ NO_SETTER_NEEDED.keys()) == []


def test_autodiff_calls_no_python_level_numpy_wrapper():
    # Each of these adds a Python-level numpy wrapper to every op call, a fixed
    # cost that a desk-sized op pays on top of its arithmetic; the ops call
    # the ufunc, its reduce or the array method directly instead.
    tree = modules()["autodiff"]
    banned_np = {"pad", "mean", "all"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, owner = node.func.attr, node.func.value
            if attr == "mean" or (attr in banned_np and isinstance(owner, ast.Name)
                                  and owner.id == "np"):
                found.append((node.lineno, ast.unparse(node.func)))
        if isinstance(node, ast.Attribute) and node.attr == "sliding_window_view" \
                or isinstance(node, ast.Name) and node.id == "sliding_window_view" \
                or isinstance(node, ast.alias) and node.name == "sliding_window_view":
            found.append((getattr(node, "lineno", 0), "sliding_window_view"))
    assert found == []


def test_only_the_tape_asks_whether_a_gradient_reached_an_op():
    # Tape.backward calls an op's closure only when the op's output got a
    # gradient, and hands it that gradient: no function reads ``out.grad``,
    # and no closure (a function nested in an op) reads a ``.grad`` at all.
    tree = modules()["autodiff"]

    def grad_reads(node, owner=None):
        return [(n.lineno, ast.unparse(n)) for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr == "grad"
                and isinstance(n.ctx, ast.Load)
                and (owner is None or isinstance(n.value, ast.Name) and n.value.id == owner)]

    found = grad_reads(tree, "out")
    for op in tree.body:
        if isinstance(op, ast.FunctionDef):
            for closure in ast.walk(op):
                if isinstance(closure, ast.FunctionDef) and closure is not op:
                    found += grad_reads(closure)
    assert found == []


def test_no_autodiff_op_reads_missing_lengths_as_one_sequence():
    # The row-mixing ops take the packed form only: one sequence is (rows,).
    found = []
    for node in modules()["autodiff"].body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        found += [f"{node.name}({name}=None)" for _, name, default in defaulted_parameters(node)
                  if name.endswith("lengths") and isinstance(default, ast.Constant)
                  and default.value is None]
    assert found == []
