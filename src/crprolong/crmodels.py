"""Infinitesimal CR automorphism algebras of the models, and the check
that they coincide with the Levi-Tanaka prolongation of the symbol.

The abstract side is g_- plus an abelian grade-0 part: the grading element
d acting by -(length), plus (when the quotient is compatible with it) a
rotation element r whose complex-basis action is the bidegree diagonal
-i(n - nt).  Which of the two cases holds is decided on this side, from
the quotient alone: r is added exactly when the bidegree diagonal
preserves the top-layer quotient.  The prolongation side is computed
independently by the exact kernel solves in :mod:`.prolong`, and the two
sides meet only in the checks below, so a disagreement about the case is
a failed verification.  The verification builds the map that is
the identity on g_-, sends d to the Euler derivation and r to the Leibniz
extension of -J, and checks bijectivity plus bracket preservation on every
basis pair.  The symbol is fundamental, so an element of the J-commuting
G^0 is fixed by its degree -1 block.  Both grade-0 images are read off the
computed G^0 by a lookup on those blocks alone (``_g0_element``):
d by the block -I, whose element must equal the Euler derivation on every
block, and r by the block -J, whose element exists exactly when the
rotation is a derivation of this quotient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .exact import Matrix, QI, QI_ONE, QI_ZERO, as_qi, rank
from .liealg import (
    GradedLieAlgebra,
    RealForm,
    SymbolAlgebra,
    _jacobi_violations,
    build_symbol_algebra,
    check_grading,
    first_bracket_mismatch,
    is_nondegenerate_symbol,
    real_form,
)
from .freelie import hall_basis
from .prolong import LEVI_TANAKA, _coordinates, full_prolongation, is_transitive

__all__ = [
    "AutCRAlgebra",
    "TheoremReport",
    "RhoTooSmall",
    "VerificationFailed",
    "REAL_ALPHA",
    "COMPLEX_ALPHA",
    "build_aut_cr",
    "euler_derivation",
    "verify_theorem",
    "verify_heisenberg",
    "bracket_mismatch_pair",
    "check_bracket_isomorphism",
    "rotation_complex_matrix",
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


def euler_derivation(realified: GradedLieAlgebra) -> Matrix:
    """Degree scaling v -> deg(v)·v, always a grade-preserving derivation."""
    n = realified.dim
    return Matrix(
        [[as_qi(realified.degrees[i]) if i == j else QI_ZERO for j in range(n)] for i in range(n)]
    )


def _g0_element(component, m: GradedLieAlgebra, block: Matrix):
    """The element of a grade-0 component whose degree -1 block is ``block``.

    Returns its coordinates (``prolong._coordinates``) and its full
    matrix, or None when ``block`` is not in the component.
    """
    coords = _coordinates(component, block)
    if coords is None:
        return None
    out = Matrix.zeros(m.dim, m.dim)
    for c, dm in zip(coords, component.maps):
        for a, sub in dm.blocks.items():
            idx = m.indices_of_degree(a)
            for t, tglob in enumerate(idx):
                for s, sglob in enumerate(idx):
                    out.data[tglob][sglob] = out.data[tglob][sglob] + c * sub.data[t][s]
    return coords, out


def _negated(a: Matrix) -> Matrix:
    return Matrix([[-x for x in row] for row in a.data])


def _rotation_eigenvalue(word) -> QI:
    n = sum(1 for a in word if a == 1)
    nt = len(word) - n
    return QI(0, -(n - nt))


@dataclass
class AutCRAlgebra:
    """g_- (realified) extended by the abelian grade-0 part {d} or {d, r}."""

    algebra: GradedLieAlgebra
    case: str
    symbol: SymbolAlgebra
    real: RealForm
    d_index: int
    r_index: int = -1

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def g0_dim(self) -> int:
        return 2 if self.case == COMPLEX_ALPHA else 1

    def dims_by_degree(self) -> dict:
        out = {}
        for d in self.algebra.degrees:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))


def _rotation_preserves_quotient(symbol: SymbolAlgebra) -> bool:
    reducer = symbol.reducer
    if reducer.rank == 0:
        return True
    top_words = [w for w in hall_basis(symbol.length).words if w.length == symbol.length]
    for row in symbol.quotient.rows:
        image = [as_qi(c) * _rotation_eigenvalue(top_words[t].word) for t, c in enumerate(row)]
        if not reducer.contains(image):
            return False
    return True


def rotation_complex_matrix(symbol: SymbolAlgebra) -> Matrix:
    """Bidegree diagonal -i(n - nt) on the complex quotient basis."""
    n = symbol.dim
    out = Matrix.zeros(n, n)
    for i, w in enumerate(symbol.words):
        out.data[i][i] = _rotation_eigenvalue(w.word)
    return out


def build_aut_cr(symbol: SymbolAlgebra, rf: RealForm) -> AutCRAlgebra:
    """The abstract g_- + g_0 algebra with the structure-equation brackets.

    ``rf`` is the real form of ``symbol.algebra``.  The case is decided
    from the quotient alone: the rotation element r is added exactly when
    the bidegree diagonal preserves the top-layer quotient; no
    prolongation is consulted.
    """
    case = COMPLEX_ALPHA if _rotation_preserves_quotient(symbol) else REAL_ALPHA
    R = rf.algebra
    n = R.dim
    labels = list(R.labels) + ["d"]
    degrees = list(R.degrees) + [0]
    d_index = n
    r_index = -1
    table = {k: dict(v) for k, v in R.table.items()}
    for i in range(n):
        # [e_i, d] = -[d, e_i] = -deg(e_i)·e_i
        table[(i, d_index)] = {i: as_qi(-R.degrees[i])}
    if case == COMPLEX_ALPHA:
        r_index = n + 1
        labels.append("r")
        degrees.append(0)
        r_c = rotation_complex_matrix(symbol)
        r_real = rf.embedding_inv.mul(r_c.mul(rf.embedding))
        for row in r_real.data:
            for x in row:
                if x.im:
                    raise AssertionError("rotation action is not real in the real basis")
        for i in range(n):
            col = r_real.column(i)
            entry = {k: -c for k, c in enumerate(col) if c}
            if entry:
                table[(i, r_index)] = entry
    aut = GradedLieAlgebra(labels, degrees, table, conjugation=None, J=R.J, scalar_tag="Q")

    # invariant gate: graded, Jacobi, the pinned degree -1 brackets,
    # nondegeneracy and transitivity
    if check_grading(aut):
        raise AssertionError("aut algebra violates grading")
    if _jacobi_violations(aut, min(aut.degrees)):
        raise AssertionError("aut algebra violates Jacobi")
    x_i, y_i = aut.indices_of_degree(-1)
    pinned = [
        (aut.bracket_basis(d_index, x_i), {x_i: as_qi(-1)}),
        (aut.bracket_basis(d_index, y_i), {y_i: as_qi(-1)}),
    ]
    if case == COMPLEX_ALPHA:
        pinned += [
            (aut.bracket_basis(r_index, x_i), {y_i: as_qi(-1)}),
            (aut.bracket_basis(r_index, y_i), {x_i: as_qi(1)}),
            (aut.bracket_basis(d_index, r_index), {}),
        ]
    for got, want in pinned:
        if got != want:
            raise AssertionError("grade-0 brackets deviate from the pinned convention")
    if not is_nondegenerate_symbol(aut):
        raise AssertionError("aut algebra is degenerate")
    if not is_transitive(aut):
        raise AssertionError("aut algebra is not transitive")
    return AutCRAlgebra(aut, case, symbol, rf, d_index, r_index)


@dataclass
class TheoremReport:
    model_id: str
    case: str
    dims_aut: dict
    dims_prolongation: dict
    iso_matrix: Matrix
    residuals: dict
    verdict: str
    notes: tuple = ()

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


def bracket_mismatch_pair(src: GradedLieAlgebra, dst: GradedLieAlgebra, iso: Matrix):
    """First failing bracket pair of the candidate map, as labels, or None."""
    pair = first_bracket_mismatch(src, dst, iso)
    if pair is None:
        return None
    return (src.labels[pair[0]], src.labels[pair[1]])


def check_bracket_isomorphism(src: GradedLieAlgebra, dst: GradedLieAlgebra, iso: Matrix):
    """Raise :class:`VerificationFailed` naming the first failing pair."""
    pair = bracket_mismatch_pair(src, dst, iso)
    if pair is not None:
        raise VerificationFailed(f"bracket mismatch at pair {pair}", pair=pair)


def verify_theorem(symbol: SymbolAlgebra) -> TheoremReport:
    """Check aut_CR(M) = Levi-Tanaka prolongation of the symbol algebra.

    Both sides are computed independently, and the case (whether G^0 has
    the rotation) is the aut side's, decided from the quotient alone by
    :func:`build_aut_cr`.  The connecting map is the identity on g_-,
    d -> the element of the computed G^0 whose degree -1 block is -I (it
    must equal the Euler derivation), r -> the element whose degree -1
    block is -J.
    Raises :class:`VerificationFailed` (with the offending basis pair
    where there is one) if the dimensions, bijectivity or any bracket
    comparison fails; a case on which the two sides disagree fails one
    of these.
    """
    if symbol.length < 3:
        if symbol.codim == 1:
            return verify_heisenberg()
        raise RhoTooSmall("theorem verification needs length >= 3")
    rf = real_form(symbol.algebra)
    prolonged = full_prolongation(rf.algebra, LEVI_TANAKA)
    g0 = prolonged.components[0]
    rot = _g0_element(g0, rf.algebra, _negated(rf.algebra.J))
    aut = build_aut_cr(symbol, rf)
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
    n = rf.algebra.dim
    total = prolonged.dim
    cols = []
    for i in range(n):
        v = [QI_ZERO] * total
        v[i] = QI_ONE
        cols.append(v)
    euler = _g0_element(g0, rf.algebra, _negated(Matrix.identity(2)))
    if euler is None or euler[1] != euler_derivation(rf.algebra):
        fail("Euler derivation is not in the computed grade-0 component")
    # the d column, then the r column when G^0 has one
    for found in (euler, rot):
        if found is None:
            continue
        v = [QI_ZERO] * total
        for pos, c in enumerate(found[0]):
            v[n + pos] = c
        cols.append(v)
    iso = Matrix.from_columns(cols)
    if rank(iso) != total:
        fail("candidate isomorphism is not bijective")
    mismatch = bracket_mismatch_pair(aut.algebra, prolonged.algebra, iso)
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
    symbol = build_symbol_algebra(1)
    rf = real_form(symbol.algebra)
    prolonged = full_prolongation(rf.algebra, LEVI_TANAKA)
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
