"""Graded Lie algebras by structure constants, and symbol algebras.

A symbol algebra of codimension k is the free nilpotent algebra on two
generators, truncated at the minimal length for that codimension, with a
central subspace of the top layer quotiented away so the total dimension
is 2 + k.  Layers below the top are always the full free ones.

Scalars are Gaussian rationals throughout; real algebras simply carry a
"Q" tag and vanishing imaginary parts.  All objects are immutable after
validated construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .exact import QI, QI_I, QI_ONE, QI_ZERO, Echelon, Matrix, _rref, as_qi, invert, kernel_basis, qi_from_json
from .freelie import (
    conjugate_tree,
    cumulative_dim,
    hall_basis,
    hall_rewrite,
    min_length_for_codim,
    tree_normal_form,
    witt_dim,
)

__all__ = [
    "GradedLieAlgebra",
    "SymbolAlgebra",
    "QuotientSpec",
    "RealForm",
    "BadQuotient",
    "NotSelfConjugate",
    "MissingJ",
    "check_jacobi",
    "check_grading",
    "is_fundamental",
    "is_nondegenerate_symbol",
    "is_pseudocomplex",
    "build_symbol_algebra",
    "default_quotient_rows",
    "realify",
    "real_form",
    "first_bracket_mismatch",
]


class BadQuotient(ValueError):
    """Quotient subspace has the wrong dimension or lives outside the top layer."""


class NotSelfConjugate(ValueError):
    """Structure is not stable under the conjugation involution."""


class MissingJ(ValueError):
    """A complex structure map on the degree -1 part is required but absent."""


class GradedLieAlgebra:
    """Finite dimensional graded Lie algebra as structure-constant tables.

    ``table`` maps index pairs (i, j) with i < j to {k: coefficient}; the
    other half follows by antisymmetry.  ``conjugation`` (optional) is the
    matrix S of the antilinear map v -> S·conj(v) in the given basis; it is
    checked once, here, to be a degree-preserving involution and a bracket
    morphism, else :class:`NotSelfConjugate` is raised.  ``J`` (optional)
    is a complex structure on the degree -1 block and must square to -id.
    """

    # ``_expressions`` memoizes _generating_expressions as a 1-tuple, None until first use
    __slots__ = ("labels", "degrees", "table", "conjugation", "J", "scalar_tag", "_expressions")

    def __init__(self, labels, degrees, table, conjugation=None, J=None, scalar_tag="Qi"):
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        n = len(self.labels)
        if len(self.degrees) != n:
            raise ValueError("labels/degrees length mismatch")
        clean = {}
        for (i, j), terms in table.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bracket index out of range: {(i, j)}")
            if i >= j:
                raise ValueError("table keys must have i < j")
            entry = {k: q for k, c in terms.items() if (q := as_qi(c))}
            for k in entry:
                if not 0 <= k < n:
                    raise ValueError(f"target index out of range: {k}")
            if entry:
                clean[(i, j)] = entry
        self.table = clean
        self.conjugation = conjugation
        self.J = J
        self.scalar_tag = scalar_tag
        self._expressions = None
        if J is not None:
            m1 = self.indices_of_degree(-1)
            if J.rows != len(m1) or J.cols != len(m1):
                raise ValueError("J must act on the degree -1 block")
            sq = J.mul(J)
            minus_id = Matrix([[-QI_ONE if a == b else QI_ZERO for b in range(len(m1))] for a in range(len(m1))])
            if sq != minus_id:
                raise ValueError("J∘J must be -id on the degree -1 part")
        if conjugation is not None:
            s = conjugation
            if s.rows != n or s.cols != n:
                raise NotSelfConjugate(f"conjugation must be a {n}x{n} matrix, got {s.rows}x{s.cols}")
            if any(x and self.degrees[a] != self.degrees[b] for a, row in enumerate(s.data) for b, x in enumerate(row)):
                raise NotSelfConjugate("conjugation does not preserve degrees")
            if s.mul(Matrix([[x.conj() for x in row] for row in s.data])) != Matrix.identity(n):
                raise NotSelfConjugate("conjugation is not an involution")
            # sigma[e_i, e_j] = S·conj(c_ij) must equal [S e_i, S e_j]
            conj_table = {ij: {k: c.conj() for k, c in terms.items()} for ij, terms in clean.items()}
            if first_bracket_mismatch(GradedLieAlgebra(self.labels, self.degrees, conj_table), self, s) is not None:
                raise NotSelfConjugate("structure constants are not conjugation-stable")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def degrees_present(self):
        seen = []
        for d in self.degrees:
            if d not in seen:
                seen.append(d)
        return seen

    def indices_of_degree(self, d: int):
        return [i for i, deg in enumerate(self.degrees) if deg == d]

    def bracket_basis(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return dict(self.table.get((i, j), {}))
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def bracket_vec(self, u: dict, v: dict) -> dict:
        """[u, v] of sparse vectors {index: coefficient}, with zeros dropped."""
        out = {}
        table = self.table
        for i, a in u.items():
            for j, b in v.items():
                terms = table.get((i, j) if i < j else (j, i))
                if terms:
                    ab = a * b if i < j else -(a * b)
                    for k, c in terms.items():
                        out[k] = out.get(k, QI_ZERO) + ab * c
        return {k: c for k, c in out.items() if c}

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedLieAlgebra):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.degrees == other.degrees
            and self.table == other.table
            and self.J == other.J
            and self.conjugation == other.conjugation
        )

    # -- JSON ------------------------------------------------------------

    def to_json_dict(self, meta=None) -> dict:
        out = {
            "basis": [{"label": l, "degree": d} for l, d in zip(self.labels, self.degrees)],
            "brackets": [
                {
                    "i": i,
                    "j": j,
                    "terms": [
                        {"k": k, "re": str(c.re), "im": str(c.im)}
                        for k, c in sorted(self.table[(i, j)].items())
                    ],
                }
                for (i, j) in sorted(self.table)
            ],
        }
        if self.J is not None:
            out["J"] = _matrix_to_json(self.J)
        if self.conjugation is not None:
            out["conjugation"] = _matrix_to_json(self.conjugation)
        out["scalars"] = self.scalar_tag
        if meta is not None:
            out["meta"] = meta
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GradedLieAlgebra":
        labels = [b["label"] for b in obj["basis"]]
        degrees = [int(b["degree"]) for b in obj["basis"]]
        table = {}
        for n, ent in enumerate(obj.get("brackets", [])):
            terms = {
                int(t["k"]): qi_from_json(t, f"brackets[{n}].terms[{m}]")
                for m, t in enumerate(ent["terms"])
            }
            table[(int(ent["i"]), int(ent["j"]))] = terms
        J = _matrix_from_json(obj["J"], "J") if "J" in obj else None
        conj = _matrix_from_json(obj["conjugation"], "conjugation") if "conjugation" in obj else None
        return cls(labels, degrees, table, conjugation=conj, J=J, scalar_tag=obj.get("scalars", "Qi"))

    def to_json(self, meta=None) -> str:
        return json.dumps(self.to_json_dict(meta=meta), indent=2)


def _matrix_to_json(m: Matrix):
    return [[{"re": str(x.re), "im": str(x.im)} for x in row] for row in m.data]


def _matrix_from_json(rows, where: str) -> Matrix:
    return Matrix([[qi_from_json(x, f"{where}[{r}][{c}]") for c, x in enumerate(row)] for r, row in enumerate(rows)])


# -- structural checks ---------------------------------------------------


def check_jacobi(algebra: GradedLieAlgebra):
    """All Jacobi violations over basis triples i < j < k; empty list means pass.

    A violation is ``(i, j, k, acc)`` with ``acc`` the dense coordinate list
    of [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j].  When the
    structure constants respect the grading (``check_grading`` is empty),
    that sum lies in degree deg(e_i) + deg(e_j) + deg(e_k), so a triple
    whose degree sum is below the lowest degree of the algebra is zero by
    construction and is skipped.  Otherwise every triple is checked.
    """
    graded = not check_grading(algebra)
    return _jacobi_violations(algebra, min(algebra.degrees, default=0) if graded else None)


def _jacobi_violations(algebra: GradedLieAlgebra, floor):
    """``check_jacobi`` for a caller that has already run ``check_grading``.

    Triples whose degree sum lies below ``floor`` are skipped; with
    ``floor`` None every triple is checked.
    """
    violations = []
    n = algebra.dim
    table = algebra.table
    degrees = algebra.degrees

    def add(acc, outer, sign, x):
        """acc += sign · [outer, e_x] for outer = {t: c} read off the table."""
        if not outer:
            return
        for t, c in outer.items():
            if t == x:
                continue
            inner = table.get((t, x) if t < x else (x, t))
            if inner:
                c = c if (t < x) == (sign > 0) else -c
                for s, d in inner.items():
                    acc[s] = acc.get(s, QI_ZERO) + c * d

    for i in range(n):
        for j in range(i + 1, n):
            bij = table.get((i, j))
            dij = degrees[i] + degrees[j]
            for k in range(j + 1, n):
                if floor is not None and dij + degrees[k] < floor:
                    continue
                acc = {}
                add(acc, bij, 1, k)
                add(acc, table.get((j, k)), 1, i)
                add(acc, table.get((i, k)), -1, j)
                if any(acc.values()):
                    violations.append((i, j, k, [acc.get(s, QI_ZERO) for s in range(n)]))
    return violations


def check_grading(algebra: GradedLieAlgebra):
    """Structure constants landing outside degree deg(a)+deg(b)."""
    violations = []
    degrees = algebra.degrees
    for (i, j), terms in algebra.table.items():
        target = degrees[i] + degrees[j]
        for k, c in terms.items():
            if degrees[k] != target:
                violations.append((i, j, k, c))
    return violations


def is_fundamental(algebra: GradedLieAlgebra) -> bool:
    """True iff iterated brackets of the degree -1 part span every layer."""
    return _generating_expressions(algebra) is not None


def _generating_expressions(algebra: GradedLieAlgebra):
    """One expression e_x = sum of c·[e_g, e_y], deg g = -1, deg y = deg x + 1, per x of degree <= -2.

    Returns ``{x: [(g, y, c), ...]}``, or None when some layer m_a is not
    spanned by [g_-1, m_(a+1)], i.e. when the algebra is not fundamental.
    One echelon per layer of the rows [e_g, e_y], each augmented by its
    own unit vector, with pivots on the layer coordinates only: pivot row
    x then reads e_x off its augmented part.  Zero brackets get no pivot.
    Computed once per algebra and kept on it.
    """
    if any(d >= 0 for d in algebra.degrees):
        raise ValueError("fundamentality applies to negatively graded algebras")
    if algebra._expressions is None:
        algebra._expressions = (_solve_generating_expressions(algebra),)
    return algebra._expressions[0]


def _solve_generating_expressions(algebra: GradedLieAlgebra):
    ones = algebra.indices_of_degree(-1)
    out = {}
    for a in range(-2, min(algebra.degrees) - 1, -1):
        block = algebra.indices_of_degree(a)
        pos = {x: p for p, x in enumerate(block)}
        nb = len(block)
        pairs = [(g, y) for g in ones for y in algebra.indices_of_degree(a + 1)]
        rows = [[QI_ZERO] * (nb + len(pairs)) for _ in pairs]
        for p, (g, y) in enumerate(pairs):
            for k, c in algebra.bracket_basis(g, y).items():
                if k in pos:
                    rows[p][pos[k]] = c
            rows[p][nb + p] = QI_ONE
        pivots = _rref(rows, range(nb))
        if len(pivots) != nb:
            return None
        for c, row in pivots:
            out[block[c]] = [(*pairs[p - nb], coef) for p, coef in row.items() if p >= nb]
    return out


def _acts_faithfully(algebra: GradedLieAlgebra, acting, on) -> bool:
    """True iff no nonzero combination of ``acting`` basis vectors brackets all of ``on`` to zero.

    One equation per (x in ``on``, coordinate t) that some [g, x] reaches;
    the coordinates no bracket reaches give only zero rows.
    """
    rows = {}
    for x in on:
        for pos, g in enumerate(acting):
            for t, c in algebra.bracket_basis(g, x).items():
                rows.setdefault((x, t), [QI_ZERO] * len(acting))[pos] = c
    if not rows:
        return not acting
    return not kernel_basis(Matrix(list(rows.values())))


def is_nondegenerate_symbol(algebra: GradedLieAlgebra) -> bool:
    """True iff no nonzero degree -1 element annihilates the degree -1 part."""
    ones = algebra.indices_of_degree(-1)
    return _acts_faithfully(algebra, ones, ones)


def is_pseudocomplex(algebra: GradedLieAlgebra) -> bool:
    """Check [x, y] = [Jx, Jy] on the degree -1 part."""
    if algebra.J is None:
        raise MissingJ("algebra has no complex structure map")
    ones = algebra.indices_of_degree(-1)
    jimg = [{ones[p]: x for p, x in col.items()} for col in _sparse_columns(algebra.J)]
    for a in range(len(ones)):
        for b in range(a + 1, len(ones)):
            if algebra.bracket_basis(ones[a], ones[b]) != algebra.bracket_vec(jimg[a], jimg[b]):
                return False
    return True


def _sparse_columns(m: Matrix):
    """The columns of ``m`` as {row: entry} dicts without zeros."""
    return [{r: row[c] for r, row in enumerate(m.data) if row[c]} for c in range(m.cols)]


def _combine(coeffs: dict, cols) -> dict:
    """The sum of c·cols[k] over {k: c} in ``coeffs``, for sparse ``cols``, with zeros dropped."""
    out = {}
    for k, c in coeffs.items():
        for t, x in cols[k].items():
            out[t] = out.get(t, QI_ZERO) + c * x
    return {t: x for t, x in out.items() if x}


# -- symbol algebras ------------------------------------------------------


@dataclass(frozen=True)
class QuotientSpec:
    """Which central subspace of the top free layer gets quotiented away.

    kind "default": conjugation-adapted trailing drop; "explicit": rows are
    coefficient vectors over the length-rho Hall words (any scalars);
    "frame": same format, produced by evaluating a model's vector fields.
    """

    kind: str = "default"
    rows: tuple = ()
    provenance: str = ""

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rows": [[{"re": str(x.re), "im": str(x.im)} for x in row] for row in self.rows],
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_dict(cls, obj) -> "QuotientSpec":
        """Inverse of :meth:`to_json_dict`.

        A malformed spec raises ValueError naming its field path, such as
        ``quotient.rows[0][1]: missing 'im'``.
        """
        if not isinstance(obj, dict):
            raise ValueError("quotient: top level must be an object")
        kind = obj.get("kind", "explicit")
        if kind not in _QUOTIENT_KINDS:
            raise ValueError(f"quotient.kind: must be one of {list(_QUOTIENT_KINDS)}, got {kind!r}")
        rows = obj.get("rows", [])
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("quotient.rows: must be a list of lists")
        rows = tuple(
            tuple(qi_from_json(x, f"quotient.rows[{r}][{c}]") for c, x in enumerate(row))
            for r, row in enumerate(rows)
        )
        provenance = obj.get("provenance", "")
        if not isinstance(provenance, str):
            raise ValueError(f"quotient.provenance: must be a string, got {provenance!r}")
        return cls(kind=kind, rows=rows, provenance=provenance)


_QUOTIENT_KINDS = ("default", "explicit", "frame")


class SymbolAlgebra:
    """The graded nilpotent algebra attached to a codimension-k model."""

    __slots__ = ("algebra", "codim", "length", "words", "quotient", "retained_top", "reducer")

    def __init__(self, algebra, codim, length, words, quotient, retained_top, reducer):
        self.algebra = algebra
        self.codim = codim
        self.length = length
        self.words = tuple(words)
        self.quotient = quotient
        self.retained_top = tuple(retained_top)
        self.reducer = reducer

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def dims_by_degree(self):
        return tuple(len(self.algebra.indices_of_degree(-l)) for l in range(1, self.length + 1))

    def to_json_dict(self) -> dict:
        meta = {
            "k": self.codim,
            "rho": self.length,
            "quotient": self.quotient.to_json_dict(),
            "words": [w.to_nested() for w in self.words],
        }
        return self.algebra.to_json_dict(meta=meta)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _top_conjugation_matrix(rho: int) -> Matrix:
    """Generator swap on the top free layer, in Hall-basis coordinates."""
    top = [w for w in hall_basis(rho).words if w.length == rho]
    pos = {w.word: p for p, w in enumerate(top)}
    cols = []
    for w in top:
        nf = {}
        for word, coeff in tree_normal_form(conjugate_tree(w.tree)).items():
            nf[word] = coeff
        col = [QI_ZERO] * len(top)
        for word, coeff in nf.items():
            col[pos[word]] = as_qi(coeff)
        cols.append(col)
    return Matrix.from_columns(cols)


def conjugation_adapted_top_basis(rho: int):
    """Real basis of the top layer adapted to the generator-swap involution.

    Returns a list of (vector over Q, eigentype) where eigentype +1 means
    the rational vector itself is fixed, -1 means i times it is fixed.
    Ordered by (leading Hall word, +1 before -1); leading coefficients
    positive.  This ordering is what "drop trailing" refers to.
    """
    n = witt_dim(rho)
    s = _top_conjugation_matrix(rho)
    ident = Matrix.identity(n)
    plus = kernel_basis(Matrix([[s.data[a][b] - ident.data[a][b] for b in range(n)] for a in range(n)]))
    minus = kernel_basis(Matrix([[s.data[a][b] + ident.data[a][b] for b in range(n)] for a in range(n)]))
    tagged = [(v, 1) for v in plus] + [(v, -1) for v in minus]
    normed = []
    for v, tag in tagged:
        lead = next(i for i, x in enumerate(v) if x)
        if v[lead].re < 0:
            v = [-x for x in v]
        normed.append((lead, -tag, tuple(v)))
    normed.sort(key=lambda t: (t[0], t[1]))
    return [(list(v), -negtag) for _, negtag, v in normed]


def default_quotient_rows(k: int):
    """Rows of the default quotient subspace for codimension ``k``."""
    rho = min_length_for_codim(k)
    n_top = witt_dim(rho)
    keep = (2 + k) - cumulative_dim(rho - 1)
    adapted = conjugation_adapted_top_basis(rho)
    assert len(adapted) == n_top
    return tuple(tuple(v) for v, _tag in adapted[keep:])


def build_symbol_algebra(k: int, quotient=None) -> SymbolAlgebra:
    """Symbol algebra of codimension ``k`` for a chosen top-layer quotient.

    ``quotient`` is None for the canonical conjugation-adapted trailing
    drop, or a :class:`QuotientSpec` with explicit rows.  All
    invariants (grading, Jacobi, fundamentality, nondegeneracy, layer
    dimensions) are verified before returning.
    """
    if k < 1:
        raise ValueError("codimension must be positive")
    rho = min_length_for_codim(k)
    basis = hall_basis(rho)
    low_words = [w for w in basis.words if w.length < rho]
    top_words = [w for w in basis.words if w.length == rho]
    n_top = len(top_words)
    keep = (2 + k) - cumulative_dim(rho - 1)
    need = n_top - keep

    if quotient is None:
        spec = QuotientSpec(kind="default", rows=default_quotient_rows(k), provenance="default")
    elif isinstance(quotient, QuotientSpec):
        if quotient.kind == "default" and not quotient.rows:
            spec = QuotientSpec(kind="default", rows=default_quotient_rows(k), provenance=quotient.provenance or "default")
        else:
            spec = quotient
    else:
        raise TypeError("quotient must be None or a QuotientSpec")

    for row in spec.rows:
        if len(row) != n_top:
            raise BadQuotient(
                f"quotient rows must live in the top layer: expected width {n_top}, got {len(row)}"
            )
    reducer = Echelon([list(r) for r in spec.rows], n_top, col_order=range(n_top - 1, -1, -1))
    if reducer.rank != need:
        raise BadQuotient(f"quotient must have dimension {need}, got rank {reducer.rank}")
    retained = sorted(reducer.free_cols)
    assert len(retained) == keep

    words = list(low_words) + [top_words[t] for t in retained]
    labels = [f"L{w.length}_{i + 1}" for i, w in enumerate(words)]
    degrees = [-w.length for w in words]
    pos_low = {w.word: i for i, w in enumerate(low_words)}
    pos_top_retained = {t: len(low_words) + r for r, t in enumerate(retained)}
    top_index = {w.word: t for t, w in enumerate(top_words)}

    def project(word_coeffs: dict):
        """Free-algebra combination -> quotient coordinates."""
        out = {}
        topvec = [QI_ZERO] * n_top
        have_top = False
        for word, coeff in word_coeffs.items():
            if len(word) < rho:
                out[pos_low[word]] = out.get(pos_low[word], QI_ZERO) + as_qi(coeff)
            else:
                topvec[top_index[word]] = topvec[top_index[word]] + as_qi(coeff)
                have_top = True
        if have_top:
            red = reducer.reduce(topvec)
            for t in retained:
                if red[t]:
                    out[pos_top_retained[t]] = out.get(pos_top_retained[t], QI_ZERO) + red[t]
        return {i: c for i, c in out.items() if c}

    table = {}
    n = len(words)
    for i in range(n):
        for j in range(i + 1, n):
            if words[i].length + words[j].length > rho:
                continue
            raw = hall_rewrite(words[i], words[j])
            entry = project({w.word: c for w, c in raw.items()})
            if entry:
                table[(i, j)] = entry

    # conjugation: generator swap extended as an antilinear bracket morphism,
    # defined on the quotient only when the quotient subspace is stable.
    conj_cols = []
    for w in words:
        entry = project({word: c for word, c in tree_normal_form(conjugate_tree(w.tree)).items()})
        col = [QI_ZERO] * n
        for idx, c in entry.items():
            col[idx] = c
        conj_cols.append(col)
    top_conj = _top_conjugation_matrix(rho)
    stable = all(reducer.contains(top_conj.matvec([as_qi(x).conj() for x in row])) for row in spec.rows)
    conjugation = Matrix.from_columns(conj_cols) if stable else None

    j_mat = Matrix([[QI_I, QI_ZERO], [QI_ZERO, -QI_I]])
    algebra = GradedLieAlgebra(labels, degrees, table, conjugation=conjugation, J=j_mat, scalar_tag="Qi")

    # invariant gate
    if check_grading(algebra):
        raise AssertionError("symbol algebra violates grading")
    if _jacobi_violations(algebra, min(algebra.degrees)):
        raise AssertionError("symbol algebra violates Jacobi")
    if algebra.dim != 2 + k:
        raise AssertionError("symbol algebra has wrong dimension")
    for ell in range(1, rho):
        if len(algebra.indices_of_degree(-ell)) != witt_dim(ell):
            raise AssertionError(f"layer {-ell} is not free")
    if not is_fundamental(algebra):
        raise AssertionError("symbol algebra is not fundamental")
    if not is_nondegenerate_symbol(algebra):
        raise AssertionError("symbol algebra is degenerate")

    return SymbolAlgebra(algebra, k, rho, words, spec, [top_words[t] for t in retained], reducer)


# -- real forms ------------------------------------------------------------


@dataclass
class RealForm:
    """Real form of a complex algebra: the fixed points of its conjugation.

    ``embedding`` holds the complex coordinates of each real basis vector
    as matrix columns, so brackets and operators transport both ways.
    """

    algebra: GradedLieAlgebra
    embedding: Matrix
    embedding_inv: Matrix = field(repr=False, default=None)


def real_form(algebra: GradedLieAlgebra) -> RealForm:
    """Fixed-point real form of ``algebra`` under its conjugation.

    Degree -1 always lands on the canonical pair x = g1 + g2 and
    y = i(g1 - g2); deeper layers use the deterministic kernel ordering
    with positive leading coefficients.  The structure constants and J
    are the real-basis coordinates of complex brackets and J images, read
    off the sparse columns of the inverse embedding; an imaginary
    coordinate raises :class:`NotSelfConjugate`.
    """
    if algebra.conjugation is None:
        raise NotSelfConjugate("algebra has no conjugation involution")
    n = algebra.dim
    columns = []
    labels = []
    degrees = []
    counters = {}
    for d in algebra.degrees_present():
        block = algebra.indices_of_degree(d)
        nb = len(block)
        s_block = [[algebra.conjugation.data[a][b] for b in block] for a in block]
        p = [[QI(x.re) for x in row] for row in s_block]
        q = [[QI(x.im) for x in row] for row in s_block]
        rows = []
        for a in range(nb):
            rows.append([p[a][b] - (QI_ONE if a == b else QI_ZERO) for b in range(nb)] + [q[a][b] for b in range(nb)])
        for a in range(nb):
            rows.append([q[a][b] for b in range(nb)] + [-(p[a][b] + (QI_ONE if a == b else QI_ZERO)) for b in range(nb)])
        kern = kernel_basis(Matrix(rows))
        if len(kern) != nb:
            raise NotSelfConjugate(f"real form of degree {d} block has wrong dimension")
        for vec in kern:
            lead = next(i for i, x in enumerate(vec) if x)
            if vec[lead].re < 0:
                vec = [-x for x in vec]
            col = {}
            for pos, b in enumerate(block):
                x = QI(vec[pos].re) + QI_I * vec[nb + pos]
                if x:
                    col[b] = x
            columns.append(col)
            degrees.append(d)
            if d == -1:
                labels.append("x" if not labels else "y")
            else:
                counters[d] = counters.get(d, 0) + 1
                labels.append(f"e{-d}_{counters[d]}")
    emb = Matrix([[col.get(r, QI_ZERO) for col in columns] for r in range(n)])
    emb_inv = invert(emb)
    inv_cols = _sparse_columns(emb_inv)

    def real_coords(w: dict, message: str) -> dict:
        coords = _combine(w, inv_cols)
        if any(c.im for c in coords.values()):
            raise NotSelfConjugate(message)
        return coords

    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = algebra.bracket_vec(columns[i], columns[j])
            entry = real_coords(w, "real form produced non-real structure constants")
            if entry:
                table[(i, j)] = entry
    j_real = None
    if algebra.J is not None:
        ones_c = algebra.indices_of_degree(-1)
        ones_r = [i for i, d in enumerate(degrees) if d == -1]
        j_cols = {c: {ones_c[p]: x for p, x in col.items()} for c, col in zip(ones_c, _sparse_columns(algebra.J))}
        jr_cols = []
        for r in ones_r:
            coords = real_coords(_combine(columns[r], j_cols), "J does not restrict to the real form")
            if any(t not in ones_r for t in coords):
                raise NotSelfConjugate("J leaks outside the degree -1 block")
            jr_cols.append([coords.get(t, QI_ZERO) for t in ones_r])
        j_real = Matrix.from_columns(jr_cols)
    real = GradedLieAlgebra(labels, degrees, table, conjugation=None, J=j_real, scalar_tag="Q")
    return RealForm(real, emb, emb_inv)


def realify(algebra: GradedLieAlgebra) -> GradedLieAlgebra:
    """Real form of a conjugation-equipped complex algebra."""
    return real_form(algebra).algebra


# -- isomorphism checks ----------------------------------------------------


def first_bracket_mismatch(src: GradedLieAlgebra, dst: GradedLieAlgebra, p: Matrix):
    """First basis pair (i, j) of ``src`` where P[a,b] != [Pa, Pb], or None.

    Each column of P is read once as a sparse vector; P·c_ij and the
    bracket in ``dst`` of columns i and j are compared as sparse vectors.
    """
    n = src.dim
    cols = _sparse_columns(p)
    for i in range(n):
        for j in range(i + 1, n):
            if _combine(src.table.get((i, j), {}), cols) != dst.bracket_vec(cols[i], cols[j]):
                return (i, j)
    return None

