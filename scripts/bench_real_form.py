"""Time ``liealg.real_form`` on two source trees and write the pair as JSON.

    python scripts/bench_real_form.py --before OLD_CHECKOUT/src --after src

For each k in 21, 22, 69, 125 and 224 the key ``real_form<k>`` times
``real_form`` alone on the prebuilt complex default symbol.  The theorem
check on the same symbols is timed by ``bench_gates.py``.  Each key is
timed five times per source tree, one run per fresh process after one
untimed call, the two trees taking turns run by run (the median is
reported; ``benchpair.py`` holds this harness).

The sizes are read from the real form's stored numerators and its
embedding, which both trees keep, so both report the same ones and no
``QI`` table view is built: ``n`` (the dimension), ``largest_block``
(the largest degree block, the size of the largest fixed-point
kernel), ``pairs`` (the
n(n - 1)/2 pairs of real basis vectors), ``bracket_entries`` (the
nonzero brackets of the real form), ``nonzero_constants`` (its nonzero
structure constants) and ``max_bits`` (the largest numerator or
denominator bit length among those constants and the entries of the
embedding).  The pair goes to BENCH_real_form.json in the current
directory.
"""

from __future__ import annotations

from fractions import Fraction

import benchpair

KS = (21, 22, 69, 125, 224)
KEYS = tuple(f"real_form{k}" for k in KS)
REPEATS = 5


def _workload(key: str):
    """The timed call for ``key``; its input is built beforehand."""
    from crprolong import liealg

    algebra = liealg.build_symbol_algebra(int(key[len("real_form"):])).algebra
    return lambda: liealg.real_form(algebra)


def _sizes(key: str) -> dict:
    from crprolong import liealg

    k = int(key[len("real_form"):])
    complex_algebra = liealg.build_symbol_algebra(k).algebra
    rf = liealg.real_form(complex_algebra)
    n = rf.algebra.dim
    nums, den = rf.algebra._numerators
    constants = [Fraction(re, den) for terms in nums.values() for re, _ in terms.values()]
    entries = [f for row in rf.embedding.data for x in row for f in (x.re, x.im)]
    return {
        "k": k,
        "n": n,
        "largest_block": max(len(complex_algebra.indices_of_degree(d)) for d in complex_algebra.degrees_present()),
        "pairs": n * (n - 1) // 2,
        "bracket_entries": len(nums),
        "nonzero_constants": len(constants),
        "max_bits": max(max(abs(f.numerator).bit_length(), f.denominator.bit_length()) for f in constants + entries),
    }


def measure(key: str, runs: int = REPEATS) -> dict:
    _, timing = benchpair.timed(_workload(key), runs)
    return {**timing, **_sizes(key)}


if __name__ == "__main__":
    benchpair.main(
        __file__, __doc__, measure, KEYS, "workload",
        "real_form alone on the default symbols at k = 21, 22, 69, 125, 224",
        REPEATS, "BENCH_real_form.json",
    )
