"""Each ``scripts/bench_*.py`` still measures the current tree.

The scripts reach into module globals and ``Matrix`` views that a refactor
can move, so each one runs its smallest key in a fresh process, on the
``src`` of this checkout, and must print its timed key and the same sizes
as the entry recorded for that key in its ``BENCH_*.json``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script, smallest key, the field naming the key in the BENCH file, timed key, BENCH file
SCRIPTS = [
    ("bench_frames.py", "frame7", "model", "growth_s", "BENCH_frames.json"),
    ("bench_gates.py", "verify21", "workload", "time_s", "BENCH_gates.json"),
    ("bench_group_law.py", "assoc7", "workload", "time_s", "BENCH_group_law.json"),
    ("bench_prolong.py", "tower_contact", "workload", "solve_s", "BENCH_prolong.json"),
    ("bench_real_form.py", "real_form21", "workload", "time_s", "BENCH_real_form.json"),
    ("bench_sweep.py", "sweep", "workload", "time_s", "BENCH_sweep.json"),
]


@pytest.mark.parametrize("script, key, key_name, timed, bench", SCRIPTS, ids=[s[0] for s in SCRIPTS])
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
    sizes = {name: value for name, value in recorded.items() if name != key_name and not name.endswith(("_s", "speedup"))}
    assert {name: value for name, value in got.items() if name not in (timed, "runs_s")} == sizes
