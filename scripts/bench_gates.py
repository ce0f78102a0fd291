"""Time build + verify on two source trees, where the invariant gates lead at scale, and write the pair as JSON.

    python scripts/bench_gates.py --before OLD_CHECKOUT/src --after src

Each key ``verify<k>``, for k in 21, 22, 224, 410 and 745, times
``build_symbol_algebra(k)`` followed by ``verify_theorem`` on the default
symbol.  The bracket gates run inside both: Jacobi on the symbol, on
aut_CR and on the prolongation, the conjugation check of the symbol, and
the bracket-isomorphism check of aut_CR against the prolongation.
k = 224, 410 and 745 are the last quotients of lengths 10, 11 and 12.
Each key is timed five times per source tree, one run per fresh
process after the untimed size count and one untimed call, the two trees
taking turns run by run (the median is reported; ``benchpair.py`` holds this harness).

The sizes are counted, untimed, on each algebra's ``QI`` table view,
which every tree gives alike whatever its stored numerator form (a
packed constant with both a real and an imaginary part is one entry
there): ``n`` (the dimension of the
symbol), ``symbol_bracket_entries`` (its nonzero brackets of basis
pairs) and ``symbol_nonzero_constants`` (its nonzero structure
constants), then those of the symbol's prolongation on its Hall basis,
the one ``verify_theorem`` checks against (``prolongation_dim``,
``prolongation_bracket_entries`` and ``prolongation_nonzero_constants``),
and of aut_CR on that basis (``aut_bracket_entries`` and
``aut_nonzero_constants``); both trees report the same ones.  The
summary records whether build + verify meets the targets of at most
1.5 s at k = 410 and at most 5 s at k = 745.  The pair goes to
BENCH_gates.json in the current directory.
"""

from __future__ import annotations

import benchpair

KEYS = ("verify21", "verify22", "verify224", "verify410", "verify745")
REPEATS = 5
TARGETS_S = {"verify410": 1.5, "verify745": 5.0}  # build + verify


def _verify(k: int) -> None:
    from crprolong import crmodels, liealg

    report = crmodels.verify_theorem(liealg.build_symbol_algebra(k))
    if report.verdict != "confirmed":
        raise SystemExit(f"verify{k}: verdict {report.verdict}")


def _sizes(k: int) -> dict:
    from crprolong import crmodels, liealg, prolong

    symbol = liealg.build_symbol_algebra(k)
    hall = prolong.full_prolongation(symbol.algebra, prolong.LEVI_TANAKA).algebra
    return {
        "k": k,
        "n": symbol.dim,
        **_table_sizes("symbol", symbol.algebra),
        "prolongation_dim": hall.dim,
        **_table_sizes("prolongation", hall),
        **_table_sizes("aut", crmodels.build_aut_cr(symbol).algebra),
    }


def _table_sizes(name: str, algebra) -> dict:
    table = algebra.table
    return {
        f"{name}_bracket_entries": len(table),
        f"{name}_nonzero_constants": sum(map(len, table.values())),
    }


def measure(key: str, runs: int = REPEATS) -> dict:
    k = int(key.removeprefix("verify"))
    sizes = _sizes(k)
    _, timing = benchpair.timed(lambda: _verify(k), runs)
    return {**timing, **sizes}


def summary(entries) -> dict:
    after = {e["workload"]: e["after_s"] for e in entries}
    out = {}
    for key, target in TARGETS_S.items():
        out |= {f"{key}_target_s": target, f"{key}_after_s": after[key], f"{key}_target_met": after[key] <= target}
    return out | {"target_met": all(out[f"{key}_target_met"] for key in TARGETS_S)}


if __name__ == "__main__":
    benchpair.main(
        __file__, __doc__, measure, KEYS, "workload",
        "build_symbol_algebra + verify_theorem on the default symbols at k = 21, 22, 224, 410, 745",
        REPEATS, "BENCH_gates.json", summary,
    )
