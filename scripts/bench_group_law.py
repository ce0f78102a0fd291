"""Time ``GroupLaw.associativity_residual`` on two source trees and write the pair as JSON.

    python scripts/bench_group_law.py --before OLD_CHECKOUT/src --after src

Each measurement runs in a fresh process of the same interpreter with the
given ``src`` directory first on its path, so both sides use the same host
and interpreter; the side that runs first alternates from one k to the next
(``benchpair.py`` holds this harness).  For each k the real form of the
default symbol is built, the residual is timed three times (the median is
reported) and checked to be zero, and the sizes are read from the public output of ``GroupLaw.symbolic()``:
the number of monomials in bch(a, b) and the bit length of the common
denominator of its coefficients.  The pair goes to BENCH_group_law.json
in the current directory.
"""

from __future__ import annotations

import statistics
import time
from math import lcm

import benchpair

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


if __name__ == "__main__":
    benchpair.main(
        __file__, __doc__, measure, KS, "k", "residual_s",
        "GroupLaw.associativity_residual wall time on the real form of the default symbol",
        REPEATS, "BENCH_group_law.json",
    )
