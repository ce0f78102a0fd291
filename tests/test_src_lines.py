"""``scripts/src_lines.py`` counts raw and code-only lines as documented."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"

# 23 lines, 9 of them code: blank, comment-only and docstring lines are
# dropped, while a string that is not a docstring (with a '#' inside) and a
# line with a trailing comment are code
PLANTED = '''"""Module docstring
over two lines."""

# a comment-only line
import os  # a trailing comment keeps the line


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function
        docstring."""
        s = """not a docstring
# not a comment"""
        return s


async def g():
    \'\'\'async docstring\'\'\'
    return 1
'''


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)], capture_output=True, text=True, check=True).stdout.splitlines()


def test_src_lines_counts_a_planted_module(tmp_path):
    (tmp_path / "planted.py").write_text(PLANTED)
    (tmp_path / "empty.py").write_text("")
    (tmp_path / "notes.txt").write_text("not python\n")
    out = _run(tmp_path)
    assert [line.split()[:2] for line in out] == [["raw", "code"], ["0", "0"], ["23", "9"], ["23", "9"]]
    assert out[1].endswith("empty.py") and out[2].endswith("planted.py") and out[3].endswith("total")
    assert _run(tmp_path / "planted.py")[-1].split() == ["23", "9", "total"]


def test_src_lines_defaults_to_the_package_sources():
    out = _run()
    files = [line.split()[2] for line in out[1:-1]]
    assert files and all(f.endswith(".py") and Path(f).parent.name == "crprolong" for f in files)
    raw, code = map(int, out[-1].split()[:2])
    assert raw > code > 0
