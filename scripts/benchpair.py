"""Fresh-process, alternating before/after timing shared by the ``bench_*.py`` scripts.

A script defines ``measure(key) -> dict``: its median wall time under one
key ending in ``_s``, the single runs under ``runs_s`` and the system sizes
under every other key.  :func:`main` runs each key once per source tree,
each time in a fresh process of the same interpreter with that tree's
``src`` directory first on its path, so both sides use the same host and
interpreter; the side that runs first alternates from one key to the
next.  The sizes both sides report must agree; a size only the after side
reports (a counter of code the before side lacks) is recorded from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys


def run_side(script: str, src: str, key) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, script, "--measure", str(key)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def compare(script: str, before: str, after: str, keys, key_name: str, timed: str) -> list:
    """One entry per key: the sizes, both median times and runs, and the speedup."""
    entries = []
    for n, key in enumerate(keys):
        sides = [("before", before), ("after", after)]
        got = {name: run_side(script, src, key) for name, src in (sides if n % 2 == 0 else sides[::-1])}
        old, new = got["before"], got["after"]
        sizes = {name: value for name, value in new.items() if not name.endswith("_s")}
        shared = [name for name in sizes if name in old]
        if any(old[name] != sizes[name] for name in shared):
            raise SystemExit(f"{key_name}={key}: the two sides disagree on the sizes: {old} vs {new}")
        entries.append({
            key_name: key,
            **sizes,
            "before_s": old[timed],
            "after_s": new[timed],
            "before_runs_s": old["runs_s"],
            "after_runs_s": new["runs_s"],
            "speedup": round(old[timed] / new[timed], 1),
        })
        print(f"{key_name}={key}: {old[timed]} s -> {new[timed]} s", file=sys.stderr)
    return entries


def main(
    script: str, doc: str, measure, keys, key_name: str, timed: str, description: str, repeats: int, path: str,
    summary=None,
) -> None:
    """The command line of a ``bench_*.py`` script: ``--before SRC --after SRC`` writes ``path``.

    ``summary``, if given, maps the entries to a dict recorded under ``"summary"``.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--before", help="src directory of the baseline checkout")
    parser.add_argument("--after", help="src directory of the changed checkout")
    parser.add_argument("--measure", type=type(keys[0]), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return
    if not (args.before and args.after):
        parser.error("--before and --after are required")
    report = {
        "measure": description,
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "repeats": repeats,
        "entries": compare(script, args.before, args.after, keys, key_name, timed),
    }
    if summary is not None:
        report["summary"] = summary(report["entries"])
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
