"""Source-level rules for the package, checked on its syntax trees."""

import ast
import dataclasses
from pathlib import Path

import skiprec
from skiprec.config import LossConfig, ModelConfig, OptimizerConfig, TrainConfig
from skiprec.synth import SynthSpec

PACKAGE = Path(skiprec.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


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
# The benchmark calls each of them.
NO_CALLER_NEEDED = {
    "synth.prototypes": "the generator's prototypes, read by the synth tests, criterion 09 "
                        "and perfbench's inputs",
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
    trees = modules()
    used = set()
    for name, tree in trees.items():
        if name != "autodiff":
            used |= names_used_by(tree, "autodiff")
    assert public_functions(trees["autodiff"]) - used == set()


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


def test_every_name_on_the_allow_list_has_a_caller_in_perfbench():
    # An exemption stays only for a function that the benchmark calls.
    benchmark = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
                 for path in sorted(PERFBENCH.glob("*.py"))]
    for entry in NO_CALLER_NEEDED:
        module, name = entry.split(".")
        assert any(name in names_used_by(tree, module) for tree in benchmark), entry


# Defaulted parameters that no call in the package need set, each with its reason.
NO_SETTER_NEEDED = {
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


def callee(call: ast.Call) -> str | None:
    """The name a call invokes, whether it reads ``f(...)`` or ``module.f(...)``."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def callers(trees: dict[str, ast.Module], name: str) -> list[str]:
    """Each top-level definition, as ``module.name``, whose body calls ``name``."""
    return sorted(f"{module}.{stmt.name}" for module, tree in trees.items()
                  for stmt in tree.body if hasattr(stmt, "name")
                  and any(isinstance(n, ast.Call) and callee(n) == name for n in ast.walk(stmt)))


def test_every_defaulted_parameter_is_set_by_a_call_in_the_package():
    # A default that no call overrides is a constant in disguise. Public
    # function names are unique across the package, so a call is matched to
    # its function by name, whether it reads ``f(...)`` or ``module.f(...)``.
    trees = modules()
    calls: dict[str, list[tuple[float, set[str]]]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(callee(node), []).append(arguments_passed(node))
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


def test_attention_and_the_lattice_loss_each_have_one_caller():
    # One attention branch serves the encoder and both decoder attentions,
    # and the CTC loss alone lays out the lattices.
    trees = modules()
    assert callers(trees, "attention_core") == ["encoder.attention_branch"]
    assert callers(trees, "lattice_nll") == ["ctc.ctc_loss"]


def test_no_function_default_copies_a_config_default():
    # A setting has one owner: its config field, read from the config by the
    # caller, or a module constant. A public function's default named like a
    # field would be a second copy of that field's default.
    fields = {f.name for cls in (ModelConfig, LossConfig, OptimizerConfig, TrainConfig, SynthSpec)
              for f in dataclasses.fields(cls)}
    copies = [f"{module}.{fn.name}({name})"
              for module, tree in modules().items() for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
              for _, name, _ in defaulted_parameters(fn) if name in fields]
    assert copies == []


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


def test_frame_groups_stay_index_arrays_from_the_flags_to_the_gathers():
    # compute_sets and assign_groups build no Python container of indices,
    # and the forward gathers with the group arrays as they are.
    trees = modules()
    found = []
    for fn in trees["splitter"].body:
        if isinstance(fn, ast.FunctionDef) and fn.name in ("compute_sets", "assign_groups"):
            found += [(fn.name, ast.unparse(n)) for n in ast.walk(fn) if isinstance(n, ast.Call)
                      and (isinstance(n.func, ast.Name)
                           and n.func.id in ("set", "sorted", "tuple", "list")
                           or isinstance(n.func, ast.Attribute) and n.func.attr == "tolist")]
    found += [("model", ast.unparse(n)) for n in ast.walk(trees["model"])
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "list"
              and any("groups." in ast.unparse(arg) for arg in n.args)]
    assert found == []
