"""Run the fast test suite under a line trace and list every statement of
src/qperm that no test runs.

    PYTHONPATH=src python tests/statement_trace.py [pytest arguments]

With no arguments it runs the suite as `python -m pytest -q
--continue-on-collection-errors` does.  Only frames whose code lies in
src/qperm are traced line by line, so the rest of the suite runs at full
speed.  A statement counts as run when any of its lines ran, a def or
class's decorators included: line events differ between Python versions
for some headers, such as try:, and a body runs only when its statement
does, while each statement of the body is checked on its own.  Docstrings
and other bare constants are not code and are left out.  The exit status
is pytest's when it fails, 1 when a statement is unrun, and 0 otherwise.
Uses the standard library and pytest only.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qperm"
PREFIX = str(PACKAGE) + os.sep


def statements(source: str):
    """(first line, lines) of every statement of source that compiles to code,
    sorted by line; the lines of a def or class start at its decorators."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        found.append((node.lineno, range(first, node.end_lineno + 1)))
    return sorted(found, key=lambda item: item[0])


def main(args) -> int:
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PREFIX):
            return None
        ran.setdefault(filename, set())
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    imported = sys.modules.get("qperm")
    if imported is None or not str(Path(imported.__file__).resolve()).startswith(PREFIX):
        print(f"statement trace: qperm was not imported from {PACKAGE}")
        return 2
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        for lineno, span in statements(path.read_text(encoding="utf-8")):
            if lines.isdisjoint(span):
                unrun.append(f"{path.relative_to(PACKAGE.parent.parent)}:{lineno}")
    print(f"statement trace: {len(unrun)} statements of src/qperm unrun")
    for where in unrun:
        print(f"  {where}")
    if status != 0:
        return int(status)
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
