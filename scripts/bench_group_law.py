"""Time the group law and its series on two source trees and write the pair as JSON.

    python scripts/bench_group_law.py --before OLD_CHECKOUT/src --after src

The keys are ``assoc<k>``, ``GroupLaw.associativity_residual``, and
``frame<k>``, ``left_invariant_frame``, each on the real form of the
default symbol of codimension k, and ``series<c>``, ``bch_series(c)``
computed cold (its cache and ``freelie``'s cache of bracket rewrites are
cleared before every call, so no call reuses a rewrite of an earlier one).  Each key is
timed five times per source tree, one run per fresh process after one
untimed call, the two trees taking turns run by run (the median is reported; ``benchpair.py``
holds this harness); the residual is checked to be zero.  The sizes are read from
public output only, so both trees report the same ones: for ``assoc<k>``
the number of monomials in bch(a, b) (``GroupLaw.symbolic()``) and the
bit length of the common denominator of its coefficients, for
``frame<k>`` the number of terms over all the frame's component
polynomials, and for ``series<c>`` the number of words and the bit length
of the common denominator of their coefficients.  The pair goes to
BENCH_group_law.json in the current directory.
"""

from __future__ import annotations

from math import lcm

import benchpair

KEYS = ("assoc7", "assoc12", "assoc16", "assoc21", "assoc30", "assoc39", "frame16", "frame21", "series7", "series10", "series12")
REPEATS = 5


def measure(key: str, runs: int = REPEATS) -> dict:
    from crprolong import freelie
    from crprolong.bch import GroupLaw, bch_series, left_invariant_frame
    from crprolong.liealg import build_symbol_algebra, realify

    kind = key.rstrip("0123456789")
    k = int(key[len(kind):])
    if kind == "series":
        def reset():
            bch_series.cache_clear()
            freelie._bracket_basis.cache_clear()

        series, timing = benchpair.timed(lambda: bch_series(k), runs, reset=reset)
        return {**timing, "words": len(series), "denominator_bits": lcm(*(c.denominator for _, c in series)).bit_length()}
    algebra = realify(build_symbol_algebra(k).algebra)
    law = GroupLaw(algebra)
    out, timing = benchpair.timed(law.associativity_residual if kind == "assoc" else lambda: left_invariant_frame(algebra), runs)
    sizes = {"dim": algebra.dim, "nilpotency_class": law.cap}
    if kind == "assoc":
        if not all(p.is_zero() for p in out):
            raise SystemExit(f"{key}: the associativity residual is not zero")
        _, z = law.symbolic()
        den = lcm(*(c.re.denominator for p in z for c in p.terms.values()))
        sizes.update(residual_variables=3 * algebra.dim, bch_monomials=sum(len(p.terms) for p in z))
        sizes["bch_denominator_bits"] = den.bit_length()
    else:
        sizes["frame_terms"] = sum(len(p.terms) for field in out for p in field.comps)
    return {**timing, **sizes}


if __name__ == "__main__":
    benchpair.main(
        __file__, __doc__, measure, KEYS, "workload",
        "GroupLaw.associativity_residual (assoc<k>) and left_invariant_frame (frame<k>) wall time "
        "on the real form of the default symbol, and cold bch_series(c) (series<c>)",
        REPEATS, "BENCH_group_law.json",
    )
