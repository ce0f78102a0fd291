"""The benchmark's workloads: units of work, their inputs and their checks.

A unit is one theorem check (or one validation anchor).  ``run`` is the
timed call into crprolong; ``check`` runs untimed afterwards, raises
:class:`WrongResult` when the output is wrong, and returns the canonical
payload whose sha256 digest identifies the output.  Units whose input does
not depend on the seed are ``pinned``: their digest must equal the one in
``golden.json``.

Every call goes through a module attribute (``cli.main``, not a bound
name), so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import crprolong.bch as bch
import crprolong.cli as cli
import crprolong.crmodels as crmodels
import crprolong.exact as exact
import crprolong.frames as frames
import crprolong.freelie as freelie
import crprolong.liealg as liealg
import crprolong.prolong as prolong

# codimensions whose default top-layer quotient is nonempty at desk scale
RANDOM_QUOTIENT_KS = (2, 4, 5, 7, 8, 9, 10, 11)
SWEEP_KS = tuple(range(2, 13))
DEEP_KS = (21, 22)
FRAME_KS = (7, 12, 16, 21)
TOWER_DEGREE = 11

# longest word length each workload touches; set-up warms the caches to it
MAX_LENGTH = {"sweep": 5, "deep": 7, "anchors": 6}
# timed passes per run: about 30 s of work on an idle 2-vCPU test host
PASSES = {"sweep": 4, "deep": 2, "anchors": 5}


class WrongResult(AssertionError):
    """A unit produced an output that fails its correctness check."""


def require(cond: bool, what: str):
    if not cond:
        raise WrongResult(what)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


@dataclass
class Unit:
    name: str
    run: Callable[[], object]
    check: Callable[[object], object]
    pinned: bool = True


# -- seeded quotients --------------------------------------------------------


def random_quotient(k: int, seed: int) -> "liealg.QuotientSpec":
    """A full-rank, conjugation-stable top-layer quotient for codimension k.

    Each row is a combination, with small seeded rational coefficients, of
    the real (conjugation-fixed) basis vectors of the top layer: ``v`` for
    a fixed vector and ``i*v`` for an anti-fixed one.  Real combinations of
    fixed vectors are fixed, so the spanned subspace is conjugation-stable.
    Rank-deficient draws are redrawn from the same generator.
    """
    rho = freelie.min_length_for_codim(k)
    n_top = freelie.witt_dim(rho)
    need = n_top - ((2 + k) - freelie.cumulative_dim(rho - 1))
    if need <= 0:
        raise ValueError(f"codimension {k} keeps the whole top layer")
    i = exact.QI(0, 1)
    fixed = [[x if tag == 1 else i * x for x in v] for v, tag in liealg.conjugation_adapted_top_basis(rho)]
    rng = random.Random(seed * 1000 + k)
    while True:
        rows = []
        for _ in range(need):
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in fixed]
            rows.append(
                tuple(sum((c * f[t] for c, f in zip(coeffs, fixed) if c), exact.QI(0)) for t in range(n_top))
            )
        if exact.Echelon([list(r) for r in rows], n_top).rank == need:
            return liealg.QuotientSpec(kind="explicit", rows=tuple(rows), provenance=f"perfbench seed {seed}")


# -- checks shared by the theorem-check units --------------------------------


def check_report(report: dict, k: int) -> dict:
    require(report["verdict"] == "confirmed", f"verdict {report['verdict']}")
    require(report["dims_aut"] == report["dims_prolongation"], "aut_CR and prolongation dims differ")
    if k == 1:
        require(report["total_dim"] == crmodels.HEISENBERG_TOTAL_DIM, f"Heisenberg total {report['total_dim']}")
    else:
        want = 2 + k + report["residuals"]["g0_dim"]
        require(report["total_dim"] == want, f"total dim {report['total_dim']} != 2 + k + dim g0 = {want}")
    return report


def _cli_unit(name: str, argv: list, out_path: str, k: int) -> Unit:
    def run():
        return cli.main(argv + ["--format", "json", "-o", out_path])

    def check(code):
        require(code == 0, f"exit code {code}")
        with open(out_path, encoding="utf-8") as fh:
            reports = json.load(fh)
        require(len(reports) == 1, f"{len(reports)} reports")
        return [check_report(reports[0], k)]

    return Unit(name, run, check)


def _theorem_unit(name: str, k: int, quotient=None, pinned=True) -> Unit:
    def run():
        return crmodels.verify_theorem(liealg.build_symbol_algebra(k, quotient))

    def check(report):
        return check_report(report.to_json_dict(), k)

    return Unit(name, run, check, pinned)


# -- workloads ---------------------------------------------------------------


def sweep(seed: int, scratch: str) -> list:
    """The acceptance sweep as a user issues it, plus seeded random quotients."""
    out = f"{scratch}/verify.json"
    units = [_cli_unit(f"cli_k{k}", ["verify", "--k", str(k)], out, k) for k in SWEEP_KS]
    for mid, model in sorted(frames.builtin_catalog().items()):
        units.append(_cli_unit(f"cli_{mid}", ["verify", "--model", mid], out, model.codim))
    for k in RANDOM_QUOTIENT_KS:
        units.append(_theorem_unit(f"random_k{k}", k, random_quotient(k, seed), pinned=False))
    return units


def deep(seed: int, scratch: str) -> list:
    """Default quotients at lengths 6 and 7: dense elimination dominates."""
    return [_theorem_unit(f"deep_k{k}", k) for k in DEEP_KS]


def _tower_unit(name: str, k: int, dims=None) -> Unit:
    def run():
        m = liealg.realify(liealg.build_symbol_algebra(k).algebra)
        comps = [prolong.grade0(m, False)]
        for l in range(1, TOWER_DEGREE + 1):
            comps.append(prolong.prolong_component(m, comps, l))
        return m, comps

    def check(result):
        m, comps = result
        got = [c.dim for c in comps]
        if dims is not None:
            require(got == dims, f"tower dims {got} != {dims}")
        degrees = sorted(set(m.degrees))
        return {
            "dims": got,
            "maps": [[[str(x) for x in dm.flatten(degrees)] for dm in c.maps] for c in comps],
        }

    return Unit(name, run, check)


G2_DIMS = {-3: 2, -2: 1, -1: 2, 0: 4, 1: 2, 2: 1, 3: 2}


def _g2_unit() -> Unit:
    def run():
        m = liealg.realify(liealg.build_symbol_algebra(3).algebra)
        return prolong.full_prolongation(m, prolong.FULL_TANAKA)

    def check(p):
        require(p.dims_by_degree() == G2_DIMS, f"G2 dims {p.dims_by_degree()}")
        return p.to_json_dict()

    return Unit("g2_full", run, check)


def _heisenberg_unit() -> Unit:
    def check(report):
        return check_report(report.to_json_dict(), 1)

    return Unit("heisenberg_lt", lambda: crmodels.verify_heisenberg(), check)


def _frame_unit(k: int) -> Unit:
    def run():
        symbol = liealg.build_symbol_algebra(k)
        rf = liealg.real_form(symbol.algebra)
        frame = bch.left_invariant_frame(rf.algebra)
        cr = (frame[0] + frame[1].scale(exact.QI(0, -1))).scale(exact.QI("1/2"))
        model = frames.field_model(f"frame{k}", k, cr)
        filt, ok = frames.growth_and_nondegeneracy(model)
        return symbol, filt, ok, frames.symbol_from_frame(model)

    def check(result):
        symbol, filt, ok, induced = result
        rho = symbol.length
        full = tuple(freelie.cumulative_dim(l) for l in range(1, rho)) + (2 + k,)
        require(ok and filt.growth == full, f"growth {filt.growth} != {full}")
        require(induced.algebra == symbol.algebra, "frame-induced symbol differs from the default symbol")
        return {"growth": list(filt.growth), "symbol": induced.to_json_dict()}

    return Unit(f"frame_k{k}", run, check)


def _assoc_unit(k: int) -> Unit:
    def run():
        rf = liealg.real_form(liealg.build_symbol_algebra(k).algebra)
        return bch.GroupLaw(rf.algebra).associativity_residual()

    def check(residual):
        require(all(p.is_zero() for p in residual), "group law is not associative")
        return {"k": k, "residual_components": len(residual), "zero": True}

    return Unit(f"assoc_k{k}", run, check)


def contact_dim(l: int) -> int:
    """Monomials of weighted degree l + 2 in weights (1, 1, 2)."""
    return (l + 4) ** 2 // 4


def anchors(seed: int, scratch: str) -> list:
    """README validation anchors: tall towers over tiny negative parts."""
    units = [
        _tower_unit("tower_contact", 1, [contact_dim(l) for l in range(TOWER_DEGREE + 1)]),
        _tower_unit("tower_k2", 2),
        _g2_unit(),
        _heisenberg_unit(),
    ]
    units += [_frame_unit(k) for k in FRAME_KS]
    units += [_assoc_unit(k) for k in FRAME_KS]
    return units


WORKLOADS = {"sweep": sweep, "deep": deep, "anchors": anchors}
