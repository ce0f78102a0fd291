"""Print the raw and code-only line counts of the package's source files.

    python scripts/src_lines.py [PATH ...]

With no argument the files are ``src/crprolong/*.py`` of this checkout; a
directory argument stands for its ``*.py`` files.  Raw counts every line.
Code-only drops blank lines, comment-only lines and every line of a module,
class or function docstring (found with ``ast``; comments with
``tokenize``).  One row per file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crprolong"


def counts(text: str) -> tuple:
    """(raw, code-only) line counts of the Python source ``text``."""
    lines = text.splitlines()
    dropped = {n for n, line in enumerate(lines, 1) if not line.strip()}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip():
            dropped.add(tok.start[0])
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                dropped.update(range(first.lineno, first.end_lineno + 1))
    return len(lines), len(lines) - len(dropped)


def main(argv) -> int:
    paths = []
    for arg in argv or [SRC]:
        path = Path(arg)
        paths.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    total = [0, 0]
    print(f"{'raw':>6} {'code':>6}  file")
    for path in paths:
        raw, code = counts(path.read_text(encoding="utf-8"))
        total[0] += raw
        total[1] += code
        print(f"{raw:>6} {code:>6}  {path}")
    print(f"{total[0]:>6} {total[1]:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
