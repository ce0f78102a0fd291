"""Time ``frames.growth_and_nondegeneracy`` on two source trees and write the pair as JSON.

    python scripts/bench_frames.py --before OLD_CHECKOUT/src --after src

The models are the left-invariant frame models of the default symbols at
k = 7, 12, 16, 21, 30, 39 and 69 (``frame<k>``, CR field (X - iY)/2 of the
real form's frame, built by ``frames._frame_realized_model`` as the
catalog builds its length-5 entries) and the catalog entry ``quintic12``.
A model keeps its filtration once evaluated, so each call is handed a
fresh copy built with the constructor, and every timed call evaluates it.
Each model is timed five times per source tree, one run per fresh process
after one untimed call, the two trees taking turns run by run (the median
is reported; ``benchpair.py`` holds this harness).  The sizes are read from
public API only, so both trees report the same ones: the chart variables,
the Hall words up to the length, the terms of the largest word field below
the length (``vf_bracket`` fields, counting the real and imaginary part
of a coefficient separately, as the packed form stores them) and the bit
length of the final denominator, D^rho for D the common denominator of
the field's coefficients.  The pair goes to BENCH_frames.json in the
current directory.
"""

from __future__ import annotations

from math import lcm

import benchpair

MODELS = ("frame7", "frame12", "frame16", "frame21", "frame30", "frame39", "frame69", "quintic12")
REPEATS = 5


def _model(name: str):
    from crprolong import frames

    if not name.startswith("frame"):
        return frames.builtin_catalog()[name]
    return frames._frame_realized_model(name, int(name[len("frame"):]))


def _sizes(model) -> dict:
    from crprolong.freelie import hall_basis, standard_factorization
    from crprolong.poly import vf_bracket

    L = model.cr
    fields = {(1,): L, (2,): L.conj()}
    for w in hall_basis(model.length - 1).words[2:]:
        u, v = standard_factorization(w.word)
        fields[w.word] = vf_bracket(fields[u], fields[v])
    den = lcm(*(d for p in L.comps for c in p.terms.values() for d in (c.re.denominator, c.im.denominator)))
    return {
        "chart_variables": L.chart.nvars,
        "hall_words": len(hall_basis(model.length)),
        "largest_word_field_terms": max(
            sum(bool(c.re) + bool(c.im) for p in f.comps for c in p.terms.values()) for f in fields.values()
        ),
        "final_denominator_bits": (den ** model.length).bit_length(),
    }


def measure(name: str, runs: int = REPEATS) -> dict:
    from crprolong.frames import ModelSpec, growth_and_nondegeneracy

    model = _model(name)

    def fresh():
        return ModelSpec(model.model_id, model.codim, model.length, model.phis, model.weights, model.cr, model.provenance)

    (filt, ok), timing = benchpair.timed(lambda: growth_and_nondegeneracy(fresh()), runs, "growth_s")
    if not ok:
        raise SystemExit(f"{name}: not totally nondegenerate, growth {filt.growth}")
    return {
        **timing,
        "codim": model.codim,
        "length": model.length,
        "growth": list(filt.growth),
        **_sizes(model),
    }


if __name__ == "__main__":
    benchpair.main(
        __file__, __doc__, measure, MODELS, "model",
        "frames.growth_and_nondegeneracy wall time on left-invariant frame models and quintic12",
        REPEATS, "BENCH_frames.json",
    )
