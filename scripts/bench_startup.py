"""Time crprolong's start-up in fresh interpreters on two source trees and write the pair as JSON.

    python scripts/bench_startup.py --before OLD_CHECKOUT/src --after src

A desk-scale ``crprolong verify`` is mostly start-up, so every timed run
is its own fresh interpreter and first-call costs count.  ``import`` is
``import crprolong``, ``setup`` is that import plus ``builtin_catalog()``,
both timed inside the child from just before the import, so interpreter
start-up stays out of them; ``verify_k12`` is a whole
``python -m crprolong verify --k 12 --format json`` process, timed from
outside, interpreter start-up included.  The children inherit the
environment.  One untimed run comes first and, unless
``PYTHONDONTWRITEBYTECODE`` is set, writes the bytecode cache; with it
set, every run compiles the package, and the times include that.  Python
still reads a cache it finds, so with it set a tree whose package holds
a ``__pycache__`` is refused, in one line naming that path, before
anything is timed: that side would skip the compilation the other pays.
Each key runs in 15 rounds per source tree, the two trees taking turns
round by round; a round keeps the fastest of its fresh runs, and the
median over the rounds is reported (``benchpair.py`` holds this harness).

The sizes belong to each tree, so they are recorded per side: ``modules``,
the modules the child imports beyond those a bare ``python -c pass``
imports (both counted by ``python -X importtime``, so the host's own
start-up imports cancel), and ``code_lines``, the code-only lines of the
tree's package (``src_lines.py``), which a start without cached bytecode
compiles.  The
pair goes to BENCH_startup.json in the current directory.
"""

from __future__ import annotations

import importlib.util
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchpair
import src_lines

KEYS = ("import", "setup", "verify_k12")
REPEATS = 15
TIMED_IN_CHILD = {"import": "import crprolong", "setup": "import crprolong.frames\ncrprolong.frames.builtin_catalog()"}


def _child(key: str) -> list:
    """The interpreter arguments of ``key``'s child; an in-child timed key prints its seconds."""
    if key == "verify_k12":
        return ["-m", "crprolong", "verify", "--k", "12", "--format", "json"]
    return ["-c", f"import time\nt0 = time.perf_counter()\n{TIMED_IN_CHILD[key]}\nprint(time.perf_counter() - t0)"]


def _run(key: str) -> float:
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *_child(key)], capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    return wall if key == "verify_k12" else float(done.stdout)


def _imports(args: list) -> int:
    """The number of modules that ``python -X importtime`` reports the child ``args`` importing."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True, check=True)
    return sum(1 for line in done.stderr.splitlines() if line.startswith("import time:"))


def measure(key: str, runs: int = REPEATS) -> dict:
    package = Path(importlib.util.find_spec("crprolong").submodule_search_locations[0])
    cache = package / "__pycache__"
    if os.environ.get("PYTHONDONTWRITEBYTECODE") and cache.exists():
        raise SystemExit(f"{cache}: cached bytecode would skip the compilation that every other run times; remove it first")
    _run(key)
    times = [_run(key) for _ in range(runs)]
    return {
        "time_s": round(statistics.median(times), 4),
        "runs_s": [round(t, 4) for t in times],
        "modules": _imports(_child(key)) - _imports(["-c", "pass"]),
        "code_lines": sum(src_lines.counts(path.read_text())[1] for path in sorted(package.glob("*.py"))),
    }


if __name__ == "__main__":
    benchpair.main(
        __file__, __doc__, measure, KEYS, "workload",
        "fresh-interpreter start-up: import crprolong, import plus builtin_catalog(), and a whole verify --k 12 process",
        REPEATS, "BENCH_startup.json", shared=(),
    )
