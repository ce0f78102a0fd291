"""Fresh-process, interleaved before/after timing shared by the ``bench_*.py`` scripts.

A script defines ``measure(key, runs=REPEATS) -> dict``: the median of
``runs`` wall times under one key ending in ``_s``, the single runs under
``runs_s`` and the system sizes under every other key.  :func:`timed`
takes those times after one untimed call, so first-call costs in a fresh
process stay out of them.  :func:`compare`
times each key in REPEATS rounds; a round runs the key on each source
tree, each time in a fresh process of the same interpreter with that
tree's ``src`` directory first on its path, and the side that runs first
alternates from one round to the next, so host drift falls on both sides
alike.  Each process times ``PROCESS_RUNS`` calls and keeps its fastest:
on a shared host one timed call per process reads bimodal, slowed by
whatever else runs, and the fastest of a few is the stable reading.
Each side's per-process minima are pooled and their median is its
time, recorded with their interquartile range (``iqr``), so that a pair
shows its own noise.  The sizes both sides report must agree; a
size only the after side reports (a counter of code the before side
lacks) is recorded from it.  A script may instead name the sizes that
must agree (``shared``): those are recorded once, and every other size
is a work counter that may change with the code, recorded per side under
``before_sizes`` and ``after_sizes``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

PROCESS_RUNS = 3


def timed(run, runs: int, key: str = "time_s", reset=lambda: None):
    """The last output of ``run`` and ``{key: median, "runs_s": [...]}`` over ``runs`` timed calls.

    ``run`` is called once untimed first; ``reset()`` runs before every call.
    """
    reset()
    out = run()
    times = []
    for _ in range(runs):
        reset()
        t0 = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - t0)
    return out, {key: round(statistics.median(times), 4), "runs_s": [round(t, 4) for t in times]}


def iqr(values) -> float:
    """The interquartile range of ``values``, rounded as the times are; 0.0 for fewer than two."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return round(q3 - q1, 4)


def run_side(script: str, src: str, key, runs: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, script, "--measure", str(key), "--runs", str(runs)],
        env=env, capture_output=True, text=True,
    )
    if done.returncode:
        # a child's refusal or traceback, as the child wrote it
        raise SystemExit(done.stderr.strip() or f"{script} --measure {key} exited with {done.returncode}")
    return json.loads(done.stdout)


def compare(script: str, before: str, after: str, keys, key_name: str, repeats: int, shared=None) -> list:
    """One entry per key: the sizes, both median times with their interquartile ranges, the pooled per-process minima and the speedup.

    ``shared`` names the sizes that must agree; None means every size both sides report.
    """
    entries = []
    for key in keys:
        sides = [("before", before), ("after", after)]
        runs, last = {"before": [], "after": []}, {}
        for r in range(repeats):
            for name, src in sides if r % 2 == 0 else sides[::-1]:
                last[name] = run_side(script, src, key, PROCESS_RUNS)
                runs[name].append(min(last[name]["runs_s"]))
        old, new = ({n: v for n, v in last[side].items() if not n.endswith("_s")} for side in ("before", "after"))
        agree = [n for n in new if n in old] if shared is None else shared
        if any(old.get(n) != new.get(n) for n in agree):
            raise SystemExit(f"{key_name}={key}: the two sides disagree on the sizes: {old} vs {new}")
        sizes = new if shared is None else {n: new[n] for n in shared}
        if shared is not None:
            sizes["before_sizes"], sizes["after_sizes"] = ({n: v for n, v in side.items() if n not in shared} for side in (old, new))
        before_s, after_s = (round(statistics.median(runs[name]), 4) for name in ("before", "after"))
        entries.append({
            key_name: key,
            **sizes,
            "before_s": before_s,
            "after_s": after_s,
            "before_iqr_s": iqr(runs["before"]),
            "after_iqr_s": iqr(runs["after"]),
            "before_runs_s": runs["before"],
            "after_runs_s": runs["after"],
            "speedup": round(before_s / after_s, 1),
        })
        print(f"{key_name}={key}: {before_s} s -> {after_s} s", file=sys.stderr)
    return entries


def main(
    script: str, doc: str, measure, keys, key_name: str, description: str, repeats: int, path: str,
    summary=None, shared=None,
) -> None:
    """The command line of a ``bench_*.py`` script: ``--before SRC --after SRC`` writes ``path``.

    ``summary``, if given, maps the entries to a dict recorded under
    ``"summary"``; ``shared`` is passed to :func:`compare`.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--before", help="src directory of the baseline checkout")
    parser.add_argument("--after", help="src directory of the changed checkout")
    parser.add_argument("--measure", type=type(keys[0]), help=argparse.SUPPRESS)
    parser.add_argument("--runs", type=int, default=repeats, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure is not None:
        print(json.dumps(measure(args.measure, args.runs)))
        return
    if not (args.before and args.after):
        parser.error("--before and --after are required")
    report = {
        "measure": description,
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "repeats": repeats,
        "entries": compare(script, args.before, args.after, keys, key_name, repeats, shared),
    }
    if summary is not None:
        report["summary"] = summary(report["entries"])
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
