"""Each ``scripts/bench_*.py`` still measures the current tree.

The scripts reach into module globals and ``Matrix`` views that a refactor
can move, so each one runs its smallest key (and, in ``slow``, the
smallest top-basis key of ``bench_real_form.py``) in a fresh process, on
the ``src`` of this checkout, and must print its timed key and the same sizes
as the entry recorded for that key in its ``BENCH_*.json``: its shared
sizes and, for a script that records work counters per side, the after
side's counters.  The size counters of ``bench_prolong.py`` are also
checked against a dense reduction on a symbol with complex structure
constants.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from oracles import dense_rref
from quotients import random_quotient

ROOT = Path(__file__).resolve().parent.parent

# script, smallest key, the field naming the key in the BENCH file, timed key, BENCH file
SCRIPTS = [
    ("bench_frames.py", "frame7", "model", "growth_s", "BENCH_frames.json"),
    ("bench_gates.py", "verify21", "workload", "time_s", "BENCH_gates.json"),
    ("bench_group_law.py", "assoc7", "workload", "time_s", "BENCH_group_law.json"),
    ("bench_prolong.py", "tower_contact", "workload", "solve_s", "BENCH_prolong.json"),
    ("bench_real_form.py", "real_form21", "workload", "time_s", "BENCH_real_form.json"),
    ("bench_startup.py", "import", "workload", "time_s", "BENCH_startup.json"),
    ("bench_sweep.py", "sweep", "workload", "time_s", "BENCH_sweep.json"),
]
# keys of a second kind in a script, run only with `pytest -m slow`
SLOW_KEYS = [("bench_real_form.py", "top13", "workload", "time_s", "BENCH_real_form.json")]


@pytest.mark.parametrize(
    "script, key, key_name, timed, bench",
    [pytest.param(*s, id=s[0]) for s in SCRIPTS] + [pytest.param(*s, id=f"{s[0]}-{s[1]}", marks=pytest.mark.slow) for s in SLOW_KEYS],
)
def test_bench_script_measures_the_current_tree(script, key, key_name, timed, bench):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--measure", str(key)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got[timed] > 0 and len(got["runs_s"]) > 0
    [recorded] = [e for e in json.loads((ROOT / bench).read_text())["entries"] if e[key_name] == key]
    sizes = {name: value for name, value in recorded.items() if name != key_name and not name.endswith(("_s", "speedup", "_sizes"))}
    sizes |= recorded.get("after_sizes", {})
    assert {name: value for name, value in got.items() if name not in (timed, "runs_s")} == sizes


def test_bench_startup_refuses_a_tree_with_cached_bytecode(tmp_path):
    """With ``PYTHONDONTWRITEBYTECODE`` set, a package holding a ``__pycache__`` is refused in one line, by a side and by the pair, before anything is timed."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "crprolong", src / "crprolong", ignore=shutil.ignore_patterns("__pycache__"))
    cache = src / "crprolong" / "__pycache__"
    cache.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    message = f"{cache}: cached bytecode would skip the compilation that every other run times; remove it first\n"
    for args in (["--measure", "import"], ["--before", str(src), "--after", str(src)]):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bench_startup.py"), *args],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, "", message)
    assert not (tmp_path / "BENCH_startup.json").exists()


def _max_bits_oracle(solves):
    """The largest bit length in packed rows and in their reduced echelon form over Q(i), by dense Gauss-Jordan.

    Each solve is (rows, width), with the imaginary part of unknown u at
    key ~u.  Each reduced row, times the lcm of the denominators of its
    real and imaginary parts and divided by the gcd of the results, is a
    primitive integer row of the realified reduction.
    """
    bits = [0]
    for rows, width in solves:
        bits += [abs(x).bit_length() for row in rows for x in row.values()]
        dense = [[(Fraction(row.get(u, 0)), Fraction(row.get(~u, 0))) for u in range(width)] for row in rows]
        for prow in dense_rref(dense, range(width))[1]:
            parts = [x for z in prow for x in z]
            den = lcm(*(x.denominator for x in parts))
            nums = [int(x * den) for x in parts]
            g = gcd(*nums)
            bits += [abs(x // g).bit_length() for x in nums]
    return max(bits)


@pytest.mark.parametrize("seed", (None, 1), ids=("default-k8", "k8-seed1"))
def test_bench_prolong_counts_bits_on_both_parts(monkeypatch, seed):
    """``max_bits`` of ``bench_prolong`` matches a dense Q(i) reduction of the rows each solve reads.

    The rows are recorded as ``_integer_kernel`` reads them from its stream,
    so a solve that stops at full rank is counted up to the row that
    completes the rank.  The k = 8, seed 1 draw of ``tests/quotients.py`` has complex structure
    constants and packed rows with imaginary keys ~u; the default k = 8
    symbol is real, and its count is the one ``exact.integer_rref`` gives.
    """
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_prolong

    from crprolong import crmodels, exact, liealg, prolong

    symbol = liealg.build_symbol_algebra(8, None if seed is None else random_quotient(8, seed))
    solves = []
    kernel = prolong._integer_kernel

    def recorded(rows, width):
        read = []
        solves.append((read, width))
        return kernel(bench_prolong._recording(rows, read), width)

    with monkeypatch.context() as patch:
        patch.setattr(prolong, "_integer_kernel", recorded)
        crmodels.verify_theorem(symbol)
    sizes = bench_prolong._sizes(lambda: crmodels.verify_theorem(symbol))
    complex_rows = any(u < 0 for rows, _ in solves for row in rows for u in row)
    assert complex_rows == (seed is not None)
    assert sizes["max_bits"] == _max_bits_oracle(solves)
    assert sizes["distinct_rows"] == sum(len(rows) for rows, _ in solves)
    if seed is None:
        direct = [x for rows, w in solves for row in (*rows, *(r for _, r in exact.integer_rref(rows, w))) for x in row.values()]
        assert sizes["max_bits"] == max(abs(x).bit_length() for x in direct)
        return
    # on this draw the largest entries are in the rows themselves; read as a column, the
    # key ~1 of 2·u0 + 3·u1 = 0 and 5·u0 + 7i·u1 = 0 would give a reduced row 14, -15 (4 bits)
    crafted = [{0: 2, 1: 3}, {0: 5, ~1: 7}]
    assert bench_prolong._sizes(lambda: prolong._integer_kernel(crafted, 2))["max_bits"] == _max_bits_oracle([(crafted, 2)]) == 3
