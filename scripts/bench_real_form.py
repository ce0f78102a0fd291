"""Time ``liealg.real_form`` on two source trees and write the pair as JSON.

    python scripts/bench_real_form.py --before OLD_CHECKOUT/src --after src

For each k in 21, 22, 69, 125 and 224 the key ``real_form<k>`` times
``real_form`` alone on the prebuilt complex default symbol.  The theorem
check on the same symbols is timed by ``bench_gates.py``.  For rho = 13
and 14 the key ``top<rho>`` times ``conjugation_adapted_top_basis(rho)``
alone: the Hall basis and the conjugated normal form of every top word
are built first, and the function's cache is cleared before each call.
Each key is timed five times per source tree, one run per fresh process
after one untimed call, the two trees taking turns run by run (the
median is reported; ``benchpair.py`` holds this harness).

The sizes of a ``real_form`` key are read, untimed, from the real form's
``QI`` views (its ``table`` and its embedding's ``data``), which every
tree gives alike whatever its stored numerator form, so both report the
same ones: ``n`` (the dimension),
``largest_block`` (the largest degree block, the size of the largest
fixed-point basis), ``pairs`` (the
n(n - 1)/2 pairs of real basis vectors), ``bracket_entries`` (the
nonzero brackets of the real form), ``nonzero_constants`` (its nonzero
structure constants) and ``max_bits`` (the largest numerator or
denominator bit length among those constants and the entries of the
embedding).  Those of a ``top`` key are read off the public API:
``top_words`` (the swap's size, half the fixed-point elimination's
width), ``swap_nonzeros``, ``fixed`` and ``antifixed`` (the vectors
tagged +1 and -1) and ``max_bits`` (the largest numerator or denominator
bit length in the basis).  The pair goes to BENCH_real_form.json in the
current directory.
"""

from __future__ import annotations

import benchpair

KS = (21, 22, 69, 125, 224)
RHOS = (13, 14)
KEYS = tuple(f"real_form{k}" for k in KS) + tuple(f"top{rho}" for rho in RHOS)
REPEATS = 5


def _top_words(rho: int):
    from crprolong import freelie

    return [w.word for w in freelie.hall_basis(rho).words if w.length == rho]


def _workload(key: str):
    """The timed call for ``key`` and the reset run before each call; its input is built beforehand."""
    from crprolong import freelie, liealg

    if key.startswith("top"):
        rho = int(key[len("top"):])
        for word in _top_words(rho):
            freelie.conjugate_normal_form(word)
        return lambda: liealg.conjugation_adapted_top_basis(rho), liealg.conjugation_adapted_top_basis.cache_clear
    algebra = liealg.build_symbol_algebra(int(key[len("real_form"):])).algebra
    return lambda: liealg.real_form(algebra), lambda: None


def _top_sizes(rho: int) -> dict:
    from crprolong import freelie, liealg

    basis = liealg.conjugation_adapted_top_basis(rho)
    entries = [f for v, _ in basis for x in v for f in (x.re, x.im)]
    return {
        "rho": rho,
        "top_words": len(basis),
        "swap_nonzeros": sum(len(freelie.conjugate_normal_form(word)) for word in _top_words(rho)),
        "fixed": sum(1 for _, tag in basis if tag == 1),
        "antifixed": sum(1 for _, tag in basis if tag == -1),
        "max_bits": max(max(abs(f.numerator).bit_length(), f.denominator.bit_length()) for f in entries),
    }


def _sizes(key: str) -> dict:
    from crprolong import liealg

    if key.startswith("top"):
        return _top_sizes(int(key[len("top"):]))
    k = int(key[len("real_form"):])
    complex_algebra = liealg.build_symbol_algebra(k).algebra
    rf = liealg.real_form(complex_algebra)
    n = rf.algebra.dim
    table = rf.algebra.table
    constants = [c.re for terms in table.values() for c in terms.values()]
    entries = [f for row in rf.embedding.data for x in row for f in (x.re, x.im)]
    return {
        "k": k,
        "n": n,
        "largest_block": max(len(complex_algebra.indices_of_degree(d)) for d in complex_algebra.degrees_present()),
        "pairs": n * (n - 1) // 2,
        "bracket_entries": len(table),
        "nonzero_constants": len(constants),
        "max_bits": max(max(abs(f.numerator).bit_length(), f.denominator.bit_length()) for f in constants + entries),
    }


def measure(key: str, runs: int = REPEATS) -> dict:
    run, reset = _workload(key)
    _, timing = benchpair.timed(run, runs, reset=reset)
    return {**timing, **_sizes(key)}


if __name__ == "__main__":
    benchpair.main(
        __file__, __doc__, measure, KEYS, "workload",
        "real_form alone on the default symbols at k = 21, 22, 69, 125, 224, and conjugation_adapted_top_basis alone at rho = 13, 14",
        REPEATS, "BENCH_real_form.json",
    )
