"""Time ``GroupLaw.associativity_residual`` on two source trees and write the pair as JSON.

    python scripts/bench_group_law.py --before OLD_CHECKOUT/src --after src

Each measurement runs in a fresh process of the same interpreter with the
given ``src`` directory first on its path, so both sides use the same host
and interpreter; the side that runs first alternates from one k to the next.
For each k the real form of the default symbol is built, the residual is
timed three times (the median is reported) and checked to be zero,
and the sizes are read from the public output of ``GroupLaw.symbolic()``:
the number of monomials in bch(a, b) and the bit length of the common
denominator of its coefficients.  The pair goes to BENCH_group_law.json
in the current directory.
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
from math import lcm

KS = (7, 12, 16, 21, 30)
REPEATS = 3


def measure(k: int) -> dict:
    from crprolong.bch import bch_group_law
    from crprolong.liealg import build_symbol_algebra, realify

    algebra = realify(build_symbol_algebra(k).algebra)
    law = bch_group_law(algebra)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        residual = law.associativity_residual()
        times.append(time.perf_counter() - t0)
        if not all(p.is_zero() for p in residual):
            raise SystemExit(f"k={k}: the associativity residual is not zero")
    _, z = law.symbolic()
    den = lcm(*(c.re.denominator for p in z for c in p.terms.values()))
    return {
        "residual_s": round(statistics.median(times), 4),
        "runs_s": [round(t, 4) for t in times],
        "dim": algebra.dim,
        "nilpotency_class": law.cap,
        "residual_variables": 3 * algebra.dim,
        "bch_monomials": sum(len(p.terms) for p in z),
        "bch_denominator_bits": den.bit_length(),
    }


def run_side(src: str, k: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, __file__, "--measure", str(k)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="src directory of the baseline checkout")
    parser.add_argument("--after", help="src directory of the changed checkout")
    parser.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return
    if not (args.before and args.after):
        parser.error("--before and --after are required")
    entries = []
    for n, k in enumerate(KS):
        sides = [("before", args.before), ("after", args.after)]
        got = {name: run_side(src, k) for name, src in (sides if n % 2 == 0 else sides[::-1])}
        before, after = got["before"], got["after"]
        sizes = {key: value for key, value in after.items() if not key.endswith("_s")}
        if {key: before[key] for key in sizes} != sizes:
            raise SystemExit(f"k={k}: the two sides disagree on the sizes: {before} vs {after}")
        entries.append({
            "k": k,
            **sizes,
            "before_s": before["residual_s"],
            "after_s": after["residual_s"],
            "before_runs_s": before["runs_s"],
            "after_runs_s": after["runs_s"],
            "speedup": round(before["residual_s"] / after["residual_s"], 1),
        })
        print(f"k={k}: {entries[-1]['before_s']} s -> {entries[-1]['after_s']} s", file=sys.stderr)
    report = {
        "measure": "GroupLaw.associativity_residual wall time on the real form of the default symbol",
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "entries": entries,
    }
    with open("BENCH_group_law.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
