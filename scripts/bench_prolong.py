"""Time the prolongation component solves on two source trees and write the pair as JSON.

    python scripts/bench_prolong.py --before OLD_CHECKOUT/src --after src

The keys are the full-Tanaka towers of the k = 1 (contact) and k = 2
symbols through degree 11 (``grade0`` then ``prolong_component``, as the
benchmark's ``anchors`` workload builds them), ``g2_full``, the
``full_prolongation`` of the realified k = 3 symbol with the full Tanaka
flavor (the benchmark's ``g2_full`` unit: its solves, then the bracket
assembly and the Jacobi and transitivity gates of the assembled table,
which take most of its time), and ``verify_theorem`` on the default
symbols at k = 125 and 224 and, as ``random9``, on the k = 9, seed 1
draw of ``tests/quotients.random_quotient``, whose complex structure
constants give complex Leibniz rows.  Each key is timed three times
per source tree, one run per fresh process after one untimed call, the
two trees taking turns run by run (the median is reported;
``benchpair.py`` holds this harness).  There is no
k = 69 key: its run takes about 0.1 s, and its median of three moved by
30% between two measurements of the same tree on a shared host, while
k = 125 and 224 run the same solves at sizes where the median holds.

The sizes are summed over every component solve of one more, untimed
run.  The sizes of the solved systems, which must agree on both trees
(``SHARED``), are ``solves``, ``unknowns`` (2·dim V_(l-1) per solve),
``rank`` (unknowns minus the component's dimension) and the
``component_dims`` in solve order.  The work counters, recorded per tree
since a solver that stops at full rank reads fewer rows, are counted as
the solver reads its row stream: the Leibniz and J rows before
(``rows``) and after (``distinct_rows``) deduplication up to scale, the
``nonzeros`` of the distinct rows, and ``max_bits``, the largest
numerator bit length in the distinct rows and in their reduced echelon
form; rows with complex entries are counted realified, their real and
imaginary parts as integer columns, the form in which they are reduced.
``images`` lists, per solve in solve order, the images D(e_x) the solve
holds when it returns: the g_-1 block's, which it starts from, plus
each one it extended, counted as it reads the extension's expression.
The pair goes to BENCH_prolong.json in the current directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

import benchpair

KEYS = ("tower_contact", "tower_k2", "g2_full", "verify125", "verify224", "random9")
SHARED = ("solves", "unknowns", "rank", "component_dims")
TOWER_DEGREE = 11
REPEATS = 3


def _workload(key: str):
    """The timed call for ``key``; its input is built beforehand."""
    from crprolong import crmodels, liealg, prolong

    if key.startswith("tower"):
        m = liealg.realify(liealg.build_symbol_algebra(1 if key == "tower_contact" else 2).algebra)

        def tower():
            comps = [prolong.grade0(m, False)]
            for l in range(1, TOWER_DEGREE + 1):
                comps.append(prolong.prolong_component(m, comps, l))

        return tower
    if key == "g2_full":
        g2 = liealg.realify(liealg.build_symbol_algebra(3).algebra)
        return lambda: prolong.full_prolongation(g2, prolong.FULL_TANAKA)
    if key == "random9":
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
        from quotients import random_quotient

        symbol = liealg.build_symbol_algebra(9, random_quotient(9, 1))
    else:
        symbol = liealg.build_symbol_algebra(int(key[len("verify"):]))

    def verify():
        report = crmodels.verify_theorem(symbol)
        if report.verdict != "confirmed":
            raise SystemExit(f"{key}: verdict {report.verdict}")

    return verify


def _recording(rows, read):
    """The rows of ``rows``, each appended to ``read`` as the consumer takes it."""
    for row in rows:
        read.append(row)
        yield row


class _CountedLookups:
    """The generating expressions of one solve, counting in ``built[0]`` the images extended along them."""

    def __init__(self, gens, built):
        self.gens, self.built = gens, built

    def __getitem__(self, x):
        self.built[0] += 1
        return self.gens[x]


def _sizes(run) -> dict:
    """System sizes of one run of ``run``, read by wrapping the solver's module globals."""
    from crprolong import exact, prolong

    sizes = {
        "solves": 0, "unknowns": 0, "rank": 0, "component_dims": [],
        "rows": 0, "distinct_rows": 0, "nonzeros": 0, "max_bits": 0, "images": [],
    }
    solve, distinct, kernel = prolong._solve_component, prolong._distinct_rows, prolong._integer_kernel
    expressions, built = prolong._generating_expressions, [0]

    def counted_expressions(m):
        gens = expressions(m)
        return None if gens is None else _CountedLookups(gens, built)

    def counted_solve(m, components, l, j_constraint):
        built[0] = 0
        comp = solve(m, components, l, j_constraint)
        nb = len(m.indices_of_degree(-1))
        sizes["images"].append(nb + built[0])
        unknowns = nb * (nb if l == 0 else components[l - 1].dim)
        sizes["solves"] += 1
        sizes["unknowns"] += unknowns
        sizes["rank"] += unknowns - comp.dim
        sizes["component_dims"].append(comp.dim)
        return comp

    taken = []  # every form the solves take from their row streams

    def counted_distinct(forms):
        return distinct(_recording(forms, taken))

    def counted_kernel(rows, width):
        # the solver stops reading its rows at full rank: count the rows it reads
        read = []
        out = kernel(_recording(rows, read), width)
        sizes["distinct_rows"] += len(read)
        sizes["nonzeros"] += sum(map(len, read))
        real, real_width = read, width
        if any(u < 0 for row in read for u in row):
            # count the realified rows, both parts as integer columns, as exact._gaussian_reduce reduces them
            real, real_width = list(exact._realify(read)), 2 * width
        pivots = exact.integer_rref(real, real_width)
        entries = [x for row in (*real, *(row for _, row in pivots)) for x in row.values()]
        sizes["max_bits"] = max([sizes["max_bits"], *(abs(x).bit_length() for x in entries)])
        return out

    hooks = {
        "_solve_component": counted_solve, "_distinct_rows": counted_distinct,
        "_integer_kernel": counted_kernel, "_generating_expressions": counted_expressions,
    }
    for name, hook in hooks.items():
        setattr(prolong, name, hook)
    try:
        run()
    finally:
        for name, orig in zip(hooks, (solve, distinct, kernel, expressions)):
            setattr(prolong, name, orig)
    sizes["rows"] = len(taken)
    return sizes


def measure(key: str, runs: int = REPEATS) -> dict:
    run = _workload(key)
    _, timing = benchpair.timed(run, runs, "solve_s")
    return {**timing, **_sizes(run)}


if __name__ == "__main__":
    benchpair.main(
        __file__, __doc__, measure, KEYS, "workload",
        "prolongation component solves: full-Tanaka towers to degree 11, the full-Tanaka G2 prolongation and verify_theorem at k = 125, 224 and on random_quotient(9, 1)",
        REPEATS, "BENCH_prolong.json", shared=SHARED,
    )
