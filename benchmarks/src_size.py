"""Source size of the package: lines and statements of each module.

For every `src/hypfactor/*.py` module of the checkout this script sits
in, prints its line count and its statement count, then the totals.  A
statement is one `ast.stmt` node, nested ones included, so joining or
splitting lines leaves the count as it is; a docstring counts as one
statement, as its expression does.

Usage: python3 benchmarks/src_size.py
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hypfactor")


def size(path: str) -> tuple[int, int]:
    """(lines, statements) of one source file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stmts = sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(text, path)))
    return len(text.splitlines()), stmts


def main() -> None:
    rows = [(name, *size(os.path.join(PACKAGE, name)))
            for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<14} {'lines':>6} {'stmts':>6}")
    for name, lines, stmts in rows:
        print(f"{name:<14} {lines:>6} {stmts:>6}")


if __name__ == "__main__":
    main()
