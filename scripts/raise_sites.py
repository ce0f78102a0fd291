"""Print each ``raise`` site of the package as HIT or MISS during a pytest run.

    python scripts/raise_sites.py [PYTEST_ARG ...]

The sites are the ``raise`` statements of ``src/crprolong/*.py`` of this
checkout, found with ``ast``.  pytest runs in this process, with the
given arguments, under a ``sys.settrace`` line tracer that follows only
the frames of those files; a site is HIT when its first line ran.  One
row per site: HIT or MISS, ``file:line``, the enclosing function and the
raised expression, then the totals.  A full census, which exits 0:

    python scripts/raise_sites.py -p no:cacheprovider -m "slow or not slow" \
        --deselect tests/test_prolong.py::test_component_solves_leave_no_reference_cycles

Tracing makes the run several times slower (minutes).  It cannot see code
that runs in another process (a test that starts ``python -m crprolong``
in a subprocess) or in another thread.  Tracing gives each traced frame a
frame object, which a generator and its frame hold in a cycle, so a test
that counts what the cyclic collector finds can fail under it: the one
deselected above does, and passes untraced.  The exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crprolong"


def raise_sites(root: Path) -> list:
    """``[(path, line, function, raised)]`` for every ``raise`` in ``root/*.py``, by file and line."""
    sites = []

    def visit(path, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                sites.append((path, child.lineno, function, ast.unparse(child.exc) if child.exc else "(re-raise)"))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(path, child, inner)

    for path in sorted(root.glob("*.py")):
        visit(path.resolve(), ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sites


def traced(sites, run) -> set:
    """The ``(path, line)`` of ``sites`` whose line ran during ``run()``."""
    lines = {}
    for path, line, _, _ in sites:
        lines.setdefault(str(path), set()).add(line)
    watched = {}  # co_filename: (its real path, the site lines there), or None
    hit = set()

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in watched:
            path = os.path.realpath(name)
            watched[name] = (path, lines[path]) if path in lines else None
        if watched[name] is None:
            return None
        path, want = watched[name]

        def on_line(frame, event, arg):
            if event == "line" and frame.f_lineno in want:
                hit.add((path, frame.f_lineno))
            return on_line

        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(Path(path), line) for path, line in hit}


def main(argv) -> int:
    import pytest

    sites = raise_sites(SRC)
    status = []
    hit = traced(sites, lambda: status.append(pytest.main(argv)))
    for path, line, function, raised in sites:
        print(f"{'HIT ' if (path, line) in hit else 'MISS'}  {path.name}:{line}  {function}  raise {raised}")
    print(f"{len(hit)} of {len(sites)} raise sites hit")
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
