"""Infinitesimal CR automorphism algebras of the models, and the check
that they coincide with the Levi-Tanaka prolongation of the symbol.

The abstract side is g_- on the symbol's own Hall basis plus an abelian
grade-0 part: the grading element d, [e_a, d] = -deg(e_a)·e_a, and (when
the quotient is compatible with it) a rotation element r, the diagonal
[e_a, r] = i(n_a - nt_a)·e_a on words of bidegree (n_a, nt_a).  Which
case holds is decided on this side, from the symbol's table alone: r is
added exactly when every structure constant keeps the weight n - nt,
that is when the diagonal is a derivation of the symbol, which holds
exactly when it preserves the top-layer quotient (proof in
``_rotation_preserves_quotient``).  The
prolongation side is computed independently by the exact kernel solves
in :mod:`.prolong`, on the same basis, and the two sides meet only in
the checks below, so a disagreement about the case is a failed
verification.  The checked map is the identity on g_- and sends d and r
to the elements of the computed G^0 whose degree -1 blocks are -I and
-J = diag(-i, i): the symbol is fundamental, so an element of the
J-commuting G^0 is fixed by that block (``prolong._coordinates``), and
the -J element exists exactly when the rotation is a derivation of the
quotient.  The bracket comparison also checks the Euler action, aut's
[e_x, d] = -deg(x)·e_x against the -I element's bracket with e_x in the
assembled table.  Both sides are complex, and the map commutes with their
conjugations (S on g_-, the identity on d and r, whose degree -1 blocks
-I and -J_R in the real basis are real), so it restricts to an
isomorphism of the real fixed points (Tanaka 1970).  No real form is
built or solved, not even of the degree -1 block: every symbol has the
swap as its degree -1 conjugation and J = diag(i, -i), so the real G^0
coordinates of d and r are fixed by dim G^0 alone.
"""

from __future__ import annotations

import json

from .exact import Matrix, _relabel, _table_entries, rank
from .liealg import (
    GradedLieAlgebra,
    NotSelfConjugate,
    SymbolAlgebra,
    _jacobi_violations,
    build_symbol_algebra,
    check_grading,
    first_bracket_mismatch,
    is_nondegenerate_symbol,
)
from .prolong import LEVI_TANAKA, _coordinates, full_prolongation, is_transitive

__all__ = [
    "AutCRAlgebra",
    "TheoremReport",
    "RhoTooSmall",
    "VerificationFailed",
    "REAL_ALPHA",
    "COMPLEX_ALPHA",
    "build_aut_cr",
    "verify_theorem",
    "verify_heisenberg",
]

REAL_ALPHA = "real-alpha"
COMPLEX_ALPHA = "complex-alpha"


class RhoTooSmall(ValueError):
    """Theorem verification is stated for length at least 3 (the length-2
    model has its own routine)."""


class VerificationFailed(RuntimeError):
    """Isomorphism check failed; carries the first failing bracket pair."""

    def __init__(self, message, pair=None, report=None):
        super().__init__(message)
        self.pair = pair
        self.report = report


class AutCRAlgebra:
    """g_- on the symbol's Hall basis, extended by the abelian grade-0 part {d} or {d, r}."""

    def __init__(self, algebra: GradedLieAlgebra, case: str, d_index: int, r_index: int = -1):
        self.algebra = algebra
        self.case = case
        self.d_index = d_index
        self.r_index = r_index

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def dims_by_degree(self) -> dict:
        return self.algebra.dims_by_degree()


def _rotation_preserves_quotient(symbol: SymbolAlgebra) -> bool:
    """Whether the bidegree diagonal -i(n - nt) maps the top-layer quotient into itself.

    It does exactly when every constant at e_k of [e_a, e_b] in the table
    has w_a + w_b = w_k, w = n - nt on ``symbol.words``: one pass, no
    quotient row read.  If the quotient is stable, the free algebra's
    diagonal derivation D descends, and it is diagonal on the retained
    words.  Conversely, if the diagonal r is a derivation of the symbol,
    let φ = π∘D - r∘π for the projection π of the free algebra onto the
    symbol.  Then φ[x, y] = [φx, πy] + [πx, φy], a π-derivation that is
    zero on both generators, so φ = 0, and π(D q) = r(π q) = 0 for every
    q in the quotient.
    """
    w = [n - nt for n, nt in (word.bidegree for word in symbol.words)]
    return all(w[a] + w[b] == w[k] for (a, b), k, _, _ in _table_entries(symbol.algebra._numerators[0].items()))


def build_aut_cr(symbol: SymbolAlgebra) -> AutCRAlgebra:
    """The abstract g_- + g_0 algebra with the structure-equation brackets, on the Hall basis of ``symbol``.

    The table is ``symbol.algebra``'s, plus d with [e_a, d] = -deg(e_a)·e_a
    and, in the complex-alpha case, r with [e_a, r] = i(n_a - nt_a)·e_a.
    The case is decided from the symbol's table alone: r is added exactly
    when the bidegree diagonal is a derivation of it, that is when it
    preserves the top-layer quotient; no prolongation is consulted.
    """
    case = COMPLEX_ALPHA if _rotation_preserves_quotient(symbol) else REAL_ALPHA
    m = symbol.algebra
    n = m.dim
    d_index = n
    r_index = -1
    # [e_i, d] = -[d, e_i] = -deg(e_i)·e_i
    entries = [((i, d_index), {i: -m.degrees[i]}, 1) for i in range(n)]
    if case == COMPLEX_ALPHA:
        r_index = n + 1
        entries += [((i, r_index), {~i: w.bidegree[0] - w.bidegree[1]}, 1) for i, w in enumerate(symbol.words)]
    labels = ["d", "r"][: 1 + (r_index > 0)]
    aut = m._extended(labels, [0] * len(labels), entries, J=m.J, scalar_tag="Qi")

    # invariant gate: graded, Jacobi, the pinned degree -1 brackets
    # [d, L] = -L, [d, Lb] = -Lb, [r, L] = -iL, [r, Lb] = iLb and [d, r] = 0,
    # nondegeneracy and transitivity; aut extends the symbol's table, so the
    # Jacobi gate visits only triples with d or r.  Grading and the pins hold
    # by construction, d and r of degree 0 being diagonal with the entries
    # above, and check the numerators written here
    if check_grading(aut):
        raise AssertionError("aut algebra violates grading")
    if _jacobi_violations(aut, min(aut.degrees)):
        raise AssertionError("aut algebra violates Jacobi")
    # read on the numerators over den, keyed i < j: [e_a, d] = -[d, e_a] = e_a
    # for a of degree -1, and [L, r] = iL, [Lb, r] = -iLb
    l_i, lb_i = aut.indices_of_degree(-1)
    nums, den = aut._numerators
    pinned = [((l_i, d_index), {l_i: den}), ((lb_i, d_index), {lb_i: den})]
    if case == COMPLEX_ALPHA:
        pinned += [((l_i, r_index), {~l_i: den}), ((lb_i, r_index), {~lb_i: -den}), ((d_index, r_index), {})]
    if any(nums.get(key, {}) != want for key, want in pinned):
        raise AssertionError("grade-0 brackets deviate from the pinned convention")
    if not is_nondegenerate_symbol(aut):
        raise AssertionError("aut algebra is degenerate")
    if not is_transitive(aut):
        raise AssertionError("aut algebra is not transitive")
    return AutCRAlgebra(aut, case, d_index, r_index)


class TheoremReport:
    def __init__(
        self, model_id: str, case: str, dims_aut: dict, dims_prolongation: dict,
        iso_matrix: Matrix, residuals: dict, verdict: str, notes: tuple = (),
    ):
        self.model_id = model_id
        self.case = case
        self.dims_aut = dims_aut
        self.dims_prolongation = dims_prolongation
        self.iso_matrix = iso_matrix
        self.residuals = residuals
        self.verdict = verdict
        self.notes = notes

    @property
    def total_dim(self) -> int:
        return sum(self.dims_prolongation.values())

    def to_json_dict(self) -> dict:
        return {
            "model": self.model_id,
            "case": self.case,
            "dims_aut": {str(d): v for d, v in sorted(self.dims_aut.items())},
            "dims_prolongation": {str(d): v for d, v in sorted(self.dims_prolongation.items())},
            "total_dim": self.total_dim,
            "iso_matrix": [[str(x) for x in row] for row in self.iso_matrix.data] if self.iso_matrix else None,
            "residuals": self.residuals,
            "verdict": self.verdict,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def text(self) -> str:
        lines = [f"model {self.model_id}: verdict {self.verdict}"]
        lines.append(f"  case: {self.case}  (grade-0 dimension {sum(v for d, v in self.dims_aut.items() if d == 0)})")
        degs = sorted(set(self.dims_aut) | set(self.dims_prolongation))
        lines.append("  degree:       " + "  ".join(f"{d:>3}" for d in degs))
        lines.append("  aut_CR dims:  " + "  ".join(f"{self.dims_aut.get(d, 0):>3}" for d in degs))
        lines.append("  LT     dims:  " + "  ".join(f"{self.dims_prolongation.get(d, 0):>3}" for d in degs))
        lines.append(f"  total dimension: {self.total_dim}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


# The report's coordinates of d and r in the real G^0 basis, by dim G^0.
# Every symbol checked has the degree -1 conjugation S(L1_1) = L1_2 and
# J = diag(i, -i) (the gate in ``verify_theorem``), so its real degree -1
# basis is x = L1_1 + L1_2, y = i(L1_1 - L1_2), on which J acts as
# J_R = [[0, -1], [1, 0]].  The real G^0 commutes with J_R and contains -I
# (the Euler gate), so it is span{I} or span{J_R, I}; a solve on the real
# form reduces its blocks with pivots from the last row-major entry back
# (``prolong._solve_component``), which gives the basis I, or J_R then I.
# d = -I and r = -J_R in that basis:
_REAL_GRADE0 = {1: ((-1,),), 2: ((0, -1), (-1, 0))}


def verify_theorem(symbol: SymbolAlgebra) -> TheoremReport:
    """Check aut_CR(M) = Levi-Tanaka prolongation of the symbol algebra.

    Both sides are computed independently on the symbol's Hall basis,
    and the case (whether G^0 has the rotation) is the aut side's,
    decided from the symbol's table alone by :func:`build_aut_cr`.  A symbol
    without a conjugation, or whose degree -1 block is not the swap
    L1_1 <-> L1_2 with J = diag(i, -i), raises :class:`NotSelfConjugate`
    before any prolongation.  The map checked is the identity on g_-,
    d -> the element of the computed G^0 whose degree -1 block is -I, r ->
    the element whose block is -J; the bracket comparison also checks the
    Euler action, [e_x, d] = -deg(x)·e_x against the -I element's bracket
    with e_x in the assembled table.  The report's matrix gives d and r in
    the real G^0 basis, the basis a prolongation of the real form would
    have, which that fixed degree -1 block determines (``_REAL_GRADE0``).
    Raises :class:`VerificationFailed` (with the offending pair of Hall
    labels where there is one) if the dimensions, bijectivity or any
    bracket comparison fails; a case on which the two sides disagree
    fails one of these.
    """
    if symbol.length < 3:
        if symbol.codim == 1:
            return verify_heisenberg()
        raise RhoTooSmall("theorem verification needs length >= 3")
    m = symbol.algebra
    if m.conjugation is None:
        raise NotSelfConjugate("algebra has no conjugation involution")
    l_i, lb_i = m.indices_of_degree(-1)
    sc, sden = m.conjugation._numerators
    swap = sc.get(l_i) == {lb_i: sden} and sc.get(lb_i) == {l_i: sden}
    if not swap or m.J._numerators != ({0: {~0: 1}, 1: {~1: -1}}, 1):
        raise NotSelfConjugate("degree -1 block is not the swap with J = diag(i, -i)")
    prolonged = full_prolongation(m, LEVI_TANAKA)
    g0 = prolonged.components[0]
    aut = build_aut_cr(symbol)
    model_id = f"k{symbol.codim}:{symbol.quotient.kind}"
    notes = []
    higher = {c.degree: c.dim for c in prolonged.components if c.degree >= 1}
    nonzero_higher = {d: v for d, v in higher.items() if v}
    notes.append(
        "higher components vanish from degree 1 on"
        if not nonzero_higher
        else f"nonzero higher components: {nonzero_higher}"
    )

    def fail(msg, pair=None, partial=None):
        raise VerificationFailed(msg, pair=pair, report=partial)

    if aut.dim != prolonged.dim:
        fail(
            f"dimension mismatch: aut_CR has {aut.dim}, prolongation has {prolonged.dim}",
        )
    n = m.dim
    total = prolonged.dim
    coords = [_coordinates(g0, (-Matrix.identity(2))._numerators), _coordinates(g0, (-m.J)._numerators)]
    found = [c for c in coords if c is not None]  # ({i: re, ~i: im}, den) each
    if coords[0] is None:
        fail("Euler derivation is not in the computed grade-0 component")
    # the elements with blocks -I and -J must span G^0, so dim G^0 is a key of _REAL_GRADE0
    if rank(Matrix._from_numerators(g0.dim, len(found), [(j, c, cden) for j, (c, cden) in enumerate(found)])) != g0.dim:
        fail("candidate isomorphism is not bijective")
    # g_- by the identity, then the d column, then the r column when G^0 has one
    identity = [(i, {i: 1}, 1) for i in range(n)]
    g0_cols = [(n + j, {n + p: c for p, c in enumerate(x)}, 1) for j, x in enumerate(_REAL_GRADE0[g0.dim])]
    iso = Matrix._from_numerators(total, n + g0.dim, identity + g0_cols)
    # the checked map: the same columns with the computed coordinates; an aut column without one stays zero
    found_cols = [(n + j, _relabel(c, range(n, n + g0.dim)), cden) for j, (c, cden) in enumerate(found)]
    pair = first_bracket_mismatch(aut.algebra, prolonged.algebra, Matrix._from_numerators(total, aut.dim, identity + found_cols))
    mismatch = None if pair is None else (aut.algebra.labels[pair[0]], aut.algebra.labels[pair[1]])
    # build_aut_cr and full_prolongation raise on any Jacobi or
    # transitivity violation, so both gates have already passed here
    residuals = {
        "bracket_pairs_checked": aut.dim * (aut.dim - 1) // 2,
        "jacobi_violations_aut": 0,
        "jacobi_violations_prolongation": 0,
        "transitive": True,
        "g0_contains_euler": True,
        "g0_dim": g0.dim,
    }
    report = TheoremReport(
        model_id=model_id,
        case=aut.case,
        dims_aut=aut.dims_by_degree(),
        dims_prolongation=prolonged.dims_by_degree(),
        iso_matrix=iso,
        residuals=residuals,
        verdict="confirmed" if mismatch is None else "failed",
        notes=tuple(notes),
    )
    if mismatch is not None:
        fail(f"bracket mismatch at pair {mismatch}", pair=mismatch, partial=report)
    return report


HEISENBERG_TOTAL_DIM = 8
HEISENBERG_DIMS = {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}


def verify_heisenberg() -> TheoremReport:
    """Levi-Tanaka prolongation of the length-2 model, positive parts included.

    For this one exceptional model the automorphism algebra is the full
    prolongation itself, so the report records its per-degree dimensions
    and compares the total against the documented value 8.
    """
    prolonged = full_prolongation(build_symbol_algebra(1).algebra, LEVI_TANAKA)
    dims = prolonged.dims_by_degree()
    ok = prolonged.dim == HEISENBERG_TOTAL_DIM and dims == HEISENBERG_DIMS
    # full_prolongation raises on any Jacobi or transitivity violation
    residuals = {
        "jacobi_violations_prolongation": 0,
        "transitive": True,
        "g0_dim": prolonged.component_dim(0),
    }
    return TheoremReport(
        model_id="heisenberg",
        case=COMPLEX_ALPHA,
        dims_aut=dims,
        dims_prolongation=dims,
        iso_matrix=Matrix.identity(prolonged.dim),
        residuals=residuals,
        verdict="confirmed" if ok else "failed",
        notes=(
            "length-2 model: automorphism algebra and prolongation are the same computed object",
            f"positive components have dimensions {prolonged.component_dim(1)} and {prolonged.component_dim(2)}",
        ),
    )
