"""Time the acceptance sweep through the command line on two source trees and write the pair as JSON.

    python scripts/bench_sweep.py --before OLD_CHECKOUT/src --after src

The keys run ``cli.main`` in-process, the way a user issues the commands,
with JSON output written to a scratch file: ``sweep`` is
``crprolong verify --k K --format json`` for K = 2..12, ``catalog`` is
``crprolong verify --model M --format json`` for each of the 8 built-in
models, and ``verify224`` is ``crprolong verify --k 224 --format json``,
the last quotient of length 10, where the solves run on integer rows and
the scalar type has little left to do, so it guards against a slowdown
there.  Each key is timed 15 times per source tree, one run per fresh
process after one untimed run that fills the caches, the two trees taking
turns run by run (the median is reported; ``benchpair.py`` holds this
harness).  A model keeps its filtration once evaluated, and the built-in
entries are shared, so after the untimed run the ``catalog`` key reads
each entry's filtration and times the rest of ``verify --model``.

The sizes are read from the JSON reports, so both trees report the same
ones: ``reports`` (the number of reports written) and ``total_dim`` (the
sum of their ``total_dim``).  The pair goes to BENCH_sweep.json in the
current directory.
"""

from __future__ import annotations

import json
import os
import tempfile

import benchpair

KEYS = ("catalog", "sweep", "verify224")
REPEATS = 15
SWEEP_KS = range(2, 13)


def _commands(key: str):
    """The argument lists of ``key``, each without its ``-o`` output path."""
    from crprolong import frames

    if key == "sweep":
        return [["verify", "--k", str(k), "--format", "json"] for k in SWEEP_KS]
    if key == "catalog":
        return [["verify", "--model", m, "--format", "json"] for m in sorted(frames.builtin_catalog())]
    return [["verify", "--k", key.removeprefix("verify"), "--format", "json"]]


def _run(commands, out: str) -> list:
    """Run every command through ``cli.main``; returns the reports they wrote."""
    from crprolong import cli

    reports = []
    for argv in commands:
        if cli.main([*argv, "-o", out]) != 0:
            raise SystemExit(f"{' '.join(argv)}: nonzero exit")
        with open(out) as fh:
            reports += json.load(fh)
    return reports


def measure(key: str, runs: int = REPEATS) -> dict:
    commands = _commands(key)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        reports, timing = benchpair.timed(lambda: _run(commands, out), runs)
    return {
        **timing,
        "reports": len(reports),
        "total_dim": sum(r["total_dim"] for r in reports),
    }


if __name__ == "__main__":
    benchpair.main(
        __file__, __doc__, measure, KEYS, "workload",
        "crprolong verify through cli.main: k = 2..12, the 8 built-in models, and k = 224",
        REPEATS, "BENCH_sweep.json",
    )
