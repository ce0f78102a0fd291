"""Time build + verify on two source trees, where the invariant gates lead at scale, and write the pair as JSON.

    python scripts/bench_gates.py --before OLD_CHECKOUT/src --after src

Each key ``verify<k>``, for k in 21, 22, 224 and 410, times
``build_symbol_algebra(k)`` followed by ``verify_theorem`` on the default
symbol.  The bracket gates run inside both: Jacobi on the symbol, on
aut_CR and on the prolongation, the conjugation check of the symbol, and
the bracket-isomorphism check of aut_CR against the prolongation.  k = 224
and k = 410 are the last quotients of lengths 10 and 11.  Each key is
timed five times (the median is reported) in a fresh process per source
tree, alternating which side runs first (``benchpair.py`` holds this
harness).

The sizes are read from public API only, so both trees report the same
ones: ``n`` (the dimension of the symbol), and, as lists over the three
algebras the Jacobi gate runs on (symbol, aut_CR, prolongation),
``bracket_entries`` (the nonzero brackets of basis pairs) and
``nonzero_constants`` (the nonzero structure constants).  The summary
records whether ``verify410`` meets the target of at most 4 s.  The pair
goes to BENCH_gates.json in the current directory.
"""

from __future__ import annotations

import statistics
import time

import benchpair

KEYS = ("verify21", "verify22", "verify224", "verify410")
REPEATS = 5
TARGET_S = 4.0  # build + verify at k = 410


def _verify(k: int) -> None:
    from crprolong import crmodels, liealg

    report = crmodels.verify_theorem(liealg.build_symbol_algebra(k))
    if report.verdict != "confirmed":
        raise SystemExit(f"verify{k}: verdict {report.verdict}")


def _sizes(k: int) -> dict:
    from crprolong import crmodels, liealg, prolong

    symbol = liealg.build_symbol_algebra(k)
    rf = liealg.real_form(symbol.algebra)
    algebras = [
        symbol.algebra,
        crmodels.build_aut_cr(symbol, rf).algebra,
        prolong.full_prolongation(rf.algebra, prolong.LEVI_TANAKA).algebra,
    ]
    return {
        "k": k,
        "n": symbol.dim,
        "bracket_entries": [len(a.table) for a in algebras],
        "nonzero_constants": [sum(map(len, a.table.values())) for a in algebras],
    }


def measure(key: str) -> dict:
    k = int(key.removeprefix("verify"))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _verify(k)
        times.append(time.perf_counter() - t0)
    return {
        "time_s": round(statistics.median(times), 4),
        "runs_s": [round(t, 4) for t in times],
        **_sizes(k),
    }


def summary(entries) -> dict:
    verify = next(e for e in entries if e["workload"] == "verify410")
    return {"verify410_target_s": TARGET_S, "verify410_after_s": verify["after_s"], "target_met": verify["after_s"] <= TARGET_S}


if __name__ == "__main__":
    benchpair.main(
        __file__, __doc__, measure, KEYS, "workload", "time_s",
        "build_symbol_algebra + verify_theorem on the default symbols at k = 21, 22, 224, 410",
        REPEATS, "BENCH_gates.json", summary,
    )
