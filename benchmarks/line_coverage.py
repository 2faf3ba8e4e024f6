"""Statements of the package that a pytest run never executes.

Runs `pytest.main` in this process under `sys.settrace`, records every
line of `src/hypfactor/*.py` that runs, and prints, per module, each
statement (an `ast.stmt` node, nested ones included) none of whose lines
ran.  Docstrings, `def`, `class` and import statements are skipped: they
run at import or name a body whose own statements are listed.  A
compound statement counts as run when any line of its span ran, so an
`if` whose test ran is not listed, while its untaken branch is.

Code that runs only in a child process (a subprocess test of the command
line) is not seen, and tracing slows the run several times over, so this
is a tool, not a test.  The sources are read again after the run, so
leave them unedited while it runs.

Usage: python3 benchmarks/line_coverage.py [pytest arguments]
(default: -q -p no:cacheprovider, over the configured test paths)
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hypfactor")
DOCUMENTED = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SKIPPED = (*DOCUMENTED[1:], ast.Import, ast.ImportFrom)


def statements(path: str) -> list[ast.stmt]:
    """The statements of one module that an executed line can account for."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, SKIPPED) and node not in docstrings]


def run_traced(args: list[str]) -> tuple[int, dict]:
    """Exit code of `pytest.main(args)` and the lines run per package file."""
    import pytest

    ran: dict = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PACKAGE):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    code, ran = run_traced(argv or ["-q", "-p", "no:cacheprovider"])
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = ran.get(path, set())
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        missed = sorted({(s.lineno, s.end_lineno) for s in statements(path)
                         if lines.isdisjoint(range(s.lineno, s.end_lineno + 1))})
        total += len(missed)
        print(f"{name}: {len(missed)} unexecuted")
        for first, last in missed:
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {span:>9}  {source[first - 1].strip()}")
    print(f"total: {total} unexecuted (pytest exit code {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
