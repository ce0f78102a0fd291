#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 perfbench/spread.py --workload deep --seeds 1-10 [--seconds S] [--save FILE]

Each run is a separate ``run.py`` process.  A metric's spread is the
distance between the first and third quartile of its values over the runs
(``statistics.quantiles(values, n=4)``) as a share of their median.  The
end-to-end bounds in ``BENCHMARK.json`` are held to it: every spread but
that of ``setup_s`` has to stay within its bound, and should stay below a
third of it.  ``--save`` writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process: its result line plus each unit's digest and median time."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited with {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    units = [line.split() for line in lines if line.startswith("unit ")]
    result["digests"] = {u[1]: u[-1].split("=", 1)[1] for u in units}
    result["unit_median_s"] = {u[1]: float(u[3].split("=", 1)[1]) for u in units}
    walls = [line.split() for line in lines if line.startswith("wall: ")]
    if walls:
        result["wall_per_corrected"] = float(walls[0][-4].rstrip("x"))
    return result


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def worse_by(metric: dict, first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` is worse (negative when better)."""
    if not first:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save")
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.workload, seed, args.seconds, 0))
        print(f"seed {seed}: correct={runs[-1]['correct']} failed={runs[-1]['failed']}", file=sys.stderr)
    summary = summarize(runs)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, s in summary.items():
        bound = bounds.get(name)
        verdict = "" if bound is None else ("steady" if s["spread"] < bound / 3 else "WIDE" if s["spread"] > bound else "within bound")
        print(f"{name:28s} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.3f} {verdict}")
    if args.save:
        record = {"workload": args.workload, "seconds": args.seconds, "runs": runs, "summary": summary}
        Path(args.save).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
