"""List the lines of ``src/skiprec`` that a pytest run never executes.

A stdlib line tracer: it runs ``pytest.main(ARGS)`` in this process under
``sys.settrace`` and ``threading.settrace``, tracing only frames whose code
lies under ``src/skiprec``, and then prints, per module, each executable
line that never ran. Executable lines are the line numbers of the compiled
code objects (``co_lines``), leaving out ``def`` and ``class`` lines and
docstrings. Run it from the repository root; the arguments go to pytest
unchanged and default to Tier-1 (``tests`` and ``perfbench``):

    python tools/linecov.py [PYTEST_ARGS ...]

Code that runs in a subprocess, such as the CLI tests' ``python -m skiprec``
runs, is not traced, so a line only those reach is listed. BLAS is pinned to
one thread before numpy loads, as in the test suite. Tracing slows the
suite down several times. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skiprec"


def executable_lines(path: Path) -> set[int]:
    """Line numbers the compiled module can execute, minus def, class and docstring lines."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        # None or 0 marks an instruction with no source line of its own.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    skipped: set[int] = set()
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            skipped.add(node.lineno)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            skipped.update(range(doc.lineno, doc.end_lineno + 1))
    return lines - skipped


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, _event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "tests", "perfbench"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        if not missed:
            continue
        total += len(missed)
        text = path.read_text(encoding="utf-8").splitlines()
        print(f"{path.name}: {len(missed)} lines never ran")
        for line in missed:
            print(f"  {path.name}:{line}  {text[line - 1].strip()}")
    print(f"total: {total} lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main(sys.argv[1:]))
