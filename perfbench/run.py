#!/usr/bin/env python3
"""The crprolong benchmark.

    python3 perfbench/run.py --workload {sweep,deep,anchors} --seed N \\
        --seconds S --trace {0,1} [--write-golden]

Runs from the root of a source checkout and imports crprolong from its
``src`` directory, never from an installed copy.  One run:

1. times ``SETUP_PROBES`` fresh-interpreter set-ups (``setup_probe.py``);
2. sets up in this process and builds the workload's units from the seed;
3. runs the workload's number of passes over the units, each pass in a
   seeded shuffled order, stopping early if one more pass would overrun
   ``--seconds`` (at least one pass);
4. checks every unit's output: the per-unit check, a stable digest across
   passes, and for seed-independent units the digest pinned in
   ``golden.json``;
5. prints one line per unit, then, as the last line, the JSON result with
   the end-to-end metrics (``--trace 0``) or the per-layer metrics
   (``--trace 1``) named in ``BENCHMARK.json``.

Every time is corrected for the host's speed (``hostspeed.py``): it is
reported in seconds at the speed where the reference loop takes
``hostspeed.NOMINAL_S``.  The lines before the result give the plain wall
times too.

With ``--trace 1`` the first pass runs untraced (it fills the program's
caches and gives the untraced pass time), then the tracer is installed for
the remaining passes, at least one.  Spans and solve sizes are written to
``perfbench/out/trace-<workload>-seed<N>.json``.  Times are medians over
traced passes; counts come from the first traced pass.

``--write-golden`` stores the digests of this run's seed-independent units
in ``golden.json``; use it only when an output is meant to change.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import NOMINAL_S, PRE_SAMPLES, HostSpeed
from setup_probe import set_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def load_program():
    """Import crprolong from this checkout's sources, or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import crprolong
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import crprolong from {SRC}: {exc}")
    if SRC.resolve() not in Path(crprolong.__file__).resolve().parents:
        raise SystemExit(f"perfbench: crprolong was imported from {crprolong.__file__}, not from {SRC}")


def probe_setup(max_length: int) -> list:
    """Host-speed-corrected set-up seconds of fresh interpreters, one per probe.

    A set-up lasts a fraction of a second, so the reference loop timed
    right before and after it in the same interpreter sees the same host
    speed.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(max_length)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        setup_s, reference_s = map(float, proc.stdout.split())
        samples.append(setup_s * NOMINAL_S / reference_s)
    return samples


def quantile(samples: list, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of the samples.

    It is the mean of the order statistics weighted by a Beta(p(n+1),
    (1-p)(n+1)) density, which estimates the same quantile as a single
    order statistic.  A run's samples come in clusters, one per unit, and a
    quantile often falls in the gap between two clusters; there a single
    order statistic is the extreme of one cluster and jumps from run to
    run, while the weighted mean draws on several samples of both.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint-rule steps per order statistic
    weights = [
        sum(
            math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
            for t in ((i + (j + 0.5) / steps) / n for j in range(steps))
        )
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(samples: list, planned: int):
    """Highest percentile with at least ten samples above it: (value, pct).

    The percentile is that of the ``planned`` sample count, the one of a
    run with every pass, so a run cut short on a slow host reports the
    same percentile of fewer samples.  With ten planned samples or fewer
    there is no such percentile; the maximum is reported as the 100th
    percentile.
    """
    if planned <= 10:
        return max(samples), 100.0
    pct = 100.0 * (planned - 10) / planned
    return quantile(samples, pct / 100.0), pct


class Results:
    """Outcomes of every unit run: times, digests and failures."""

    def __init__(self, golden: dict, digest):
        self.golden = golden
        self.digest = digest
        self.samples = []
        self.wall = []
        self.by_unit = {}
        self.digests = {}
        self.pinned = {}
        self.attempted = 0
        self.failures = []

    def record_time(self, unit, seconds: float, wall: float):
        self.samples.append(seconds)
        self.wall.append(wall)
        self.by_unit.setdefault(unit.name, []).append(seconds)

    def record(self, unit, output, error):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{unit.name}: {type(error).__name__}: {error}")
            return
        try:
            d = self.digest(unit.check(output))
        except Exception as exc:  # any broken output is a failed unit
            self.failures.append(f"{unit.name}: {type(exc).__name__}: {exc}")
            return
        first = self.digests.setdefault(unit.name, d)
        self.pinned[unit.name] = unit.pinned
        if d != first:
            self.failures.append(f"{unit.name}: digest changed between passes")
        elif unit.pinned and self.golden.get(unit.name) != d:
            self.failures.append(f"{unit.name}: digest {d} != golden {self.golden.get(unit.name)}")


def run_pass(units, rng, results, speed=None, tracer=None) -> float:
    """One pass over the units in a seeded order; returns the summed unit time.

    With a ``speed`` the unit times are corrected for host speed, without
    one they are wall times.  Each output is checked right after its unit;
    the times are recorded at the end of the pass, when the reference
    samples after the last unit are in.
    """
    order = list(units)
    rng.shuffle(order)
    timed = []
    for unit in order:
        gc.collect()
        if speed is not None:
            speed.sample(PRE_SAMPLES)
            spent = speed.spent
        if tracer is not None:
            tracer.begin_unit(unit.name)
            root = tracer.open("bench.unit")
        t0 = time.perf_counter()
        try:
            output, error = unit.run(), None
        except Exception as exc:  # a failing unit is counted, never dropped
            output, error = None, exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(root)
        seconds = t1 - t0 - (speed.spent - spent if speed is not None else 0.0)
        timed.append((unit, t0, t1, seconds))
        results.record(unit, output, error)
        del output
    if speed is not None:
        speed.sample(PRE_SAMPLES)
    total = 0.0
    for unit, t0, t1, seconds in timed:
        corrected = seconds * speed.factor(t0, t1) if speed is not None else seconds
        results.record_time(unit, corrected, t1 - t0)
        total += corrected
    return total


def run_passes(units, rng, results, speed, seconds, passes) -> list:
    """``passes`` passes, fewer if the next one would end after ``seconds``.

    A fixed pass count keeps the sample set the same from run to run; the
    time limit only cuts a run short on a slow host, and ``check_s.tail``
    then keeps its percentile.  At least one pass runs.
    """
    start = time.perf_counter()
    walls, times = [], []
    while len(times) < passes:
        t0 = time.perf_counter()
        times.append(run_pass(units, rng, results, speed))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + max(walls) > seconds:
            break
    return times


def end_to_end(results: Results, pass_times: list, setup: list, planned: int) -> dict:
    failed = len(results.failures)
    return {
        "pass_s": statistics.median(pass_times),
        "check_s.p50": quantile(results.samples, 0.5),
        "check_s.tail": tail(results.samples, planned)[0],
        "checks_per_s": len(results.samples) / sum(results.samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (results.attempted - failed) / results.attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "deep", "anchors"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(GOLDEN.read_text())
    load_program()
    import workloads

    max_length = workloads.MAX_LENGTH[args.workload]
    setup = [] if args.trace else probe_setup(max_length)
    set_up(max_length)

    rng = random.Random(args.seed)
    results = Results(golden, workloads.digest)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="scratch-") as scratch:
        units = workloads.WORKLOADS[args.workload](args.seed, scratch)
        planned = len(units) * workloads.PASSES[args.workload]
        if args.trace:
            metrics, pass_times = traced(units, rng, results, args)
            wanted = spec["per_layer"]
        else:
            with HostSpeed() as speed:
                pass_times = run_passes(units, rng, results, speed, args.seconds, workloads.PASSES[args.workload])
            metrics = end_to_end(results, pass_times, setup, planned)
            wanted = spec["end_to_end"]

    for name in sorted(results.by_unit):
        times = results.by_unit[name]
        kind = "pinned" if results.pinned.get(name) else "seeded"
        print(
            f"unit {name} runs={len(times)} median_s={statistics.median(times):.4f} min_s={min(times):.4f} "
            f"{kind} sha256={results.digests.get(name, '-')}"
        )
    value, pct = tail(results.samples, planned)
    print(f"check_s.tail is the p{pct:.1f} of {len(results.samples)} unit times: {value:.4f} s")
    print("pass_s " + " ".join(f"{t:.4f}" for t in pass_times))
    if not args.trace:
        wall = sum(results.wall)
        print(f"wall: unit time {wall:.4f} s, {wall / sum(results.samples):.3f}x the corrected time")
    for failure in results.failures:
        print(f"FAILED {failure}")
    if args.write_golden:
        golden.update({n: d for n, d in results.digests.items() if results.pinned[n]})
        GOLDEN.write_text(json.dumps(dict(sorted(golden.items())), indent=2) + "\n")

    failed = len(results.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": results.attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


def traced(units, rng, results, args):
    """Per-layer metrics and pass times: one untraced pass, then traced ones.

    The untraced pass fills the program's caches, so every traced pass
    makes the same calls, and gives the time the tracing overhead is
    measured against.
    """
    from tracer import Tracer, layer_metrics, stage_table

    start = time.perf_counter()
    untraced = run_pass(units, rng, results)
    tracer = Tracer()
    tracer.install()
    try:
        per_pass, marks, times = [], [], []
        while True:
            marks.append((len(tracer.spans), len(tracer.solves)))
            t0 = time.perf_counter()
            times.append(run_pass(units, rng, results, tracer=tracer))
            per_pass.append(layer_metrics(tracer, *marks[-1]))
            if time.perf_counter() - start + (time.perf_counter() - t0) > args.seconds:
                break
    finally:
        tracer.uninstall()

    metrics = dict(per_pass[0])
    for name in metrics:
        if name.endswith(".s") or name.endswith("self_s"):
            metrics[name] = statistics.median(p[name] for p in per_pass)
    metrics["trace.pass_s"] = statistics.median(times)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - untraced

    first = tracer.solves[marks[0][1] : marks[1][1] if len(marks) > 1 else None]
    for stage, row in stage_table(first).items():
        print(f"stage {stage} " + " ".join(f"{k}={v}" for k, v in row.items()))
    meta = {"workload": args.workload, "seed": args.seed, "untraced_pass_s": untraced, "traced_pass_s": times}
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(tracer.to_json(meta))
    return metrics, [untraced] + times


if __name__ == "__main__":
    sys.exit(main())
