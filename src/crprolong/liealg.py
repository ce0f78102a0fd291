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

from .exact import QI, QI_I, QI_ONE, QI_ZERO, Echelon, Matrix, as_qi, frac_from_str, frac_to_str, invert, kernel_basis
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

    __slots__ = ("labels", "degrees", "table", "conjugation", "J", "scalar_tag")

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
            entry = {k: as_qi(c) for k, c in terms.items() if as_qi(c)}
            for k in entry:
                if not 0 <= k < n:
                    raise ValueError(f"target index out of range: {k}")
            if entry:
                clean[(i, j)] = entry
        self.table = clean
        self.conjugation = conjugation
        self.J = J
        self.scalar_tag = scalar_tag
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

    def bracket_vec(self, u, v):
        out = [QI_ZERO] * self.dim
        table = self.table
        v_support = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in v_support:
                terms = table.get((i, j) if i < j else (j, i))
                if terms:
                    ab = a * b if i < j else -(a * b)
                    for k, c in terms.items():
                        out[k] = out[k] + ab * c
        return out

    def basis_vector(self, i: int):
        v = [QI_ZERO] * self.dim
        v[i] = QI_ONE
        return v

    def replaced_bracket(self, i: int, j: int, terms: dict) -> "GradedLieAlgebra":
        """Copy with one structure constant replaced (for negative controls).

        The copy keeps J but not the conjugation, which the corrupted
        bracket would in general no longer respect.
        """
        if i >= j:
            raise ValueError("need i < j")
        table = {k: dict(v) for k, v in self.table.items()}
        table[(i, j)] = dict(terms)
        return GradedLieAlgebra(self.labels, self.degrees, table, None, self.J, self.scalar_tag)

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
                        {"k": k, "re": frac_to_str(c.re), "im": frac_to_str(c.im)}
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
        for ent in obj.get("brackets", []):
            terms = {
                int(t["k"]): QI(frac_from_str(t["re"]), frac_from_str(t["im"]))
                for t in ent["terms"]
            }
            table[(int(ent["i"]), int(ent["j"]))] = terms
        J = _matrix_from_json(obj["J"]) if "J" in obj else None
        conj = _matrix_from_json(obj["conjugation"]) if "conjugation" in obj else None
        return cls(labels, degrees, table, conjugation=conj, J=J, scalar_tag=obj.get("scalars", "Qi"))

    def to_json(self, meta=None) -> str:
        return json.dumps(self.to_json_dict(meta=meta), indent=2)


def _matrix_to_json(m: Matrix):
    return [[{"re": frac_to_str(x.re), "im": frac_to_str(x.im)} for x in row] for row in m.data]


def _matrix_from_json(rows) -> Matrix:
    return Matrix([[QI(frac_from_str(x["re"]), frac_from_str(x["im"])) for x in row] for row in rows])


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
    violations = []
    n = algebra.dim
    table = algebra.table
    degrees = algebra.degrees
    floor = min(degrees, default=0) if not check_grading(algebra) else None

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
    if any(d >= 0 for d in algebra.degrees):
        raise ValueError("fundamentality applies to negatively graded algebras")
    depth = -min(algebra.degrees)
    gen_prev = [algebra.basis_vector(i) for i in algebra.indices_of_degree(-1)]
    ones = algebra.indices_of_degree(-1)
    for ell in range(2, depth + 1):
        block = algebra.indices_of_degree(-ell)
        candidates = []
        for i in ones:
            ei = algebra.basis_vector(i)
            for v in gen_prev:
                w = algebra.bracket_vec(ei, v)
                candidates.append([w[b] for b in block])
        if not block:
            gen_prev = []
            continue
        mat = Matrix(candidates) if candidates else Matrix.zeros(0, len(block))
        e = Echelon(mat.data, len(block))
        if e.rank != len(block):
            return False
        gen_prev = []
        for row in e.rows:
            full = [QI_ZERO] * algebra.dim
            for pos, b in enumerate(block):
                full[b] = row[pos]
            gen_prev.append(full)
    return True


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
    base = [algebra.basis_vector(i) for i in ones]
    jimg = []
    for pos in range(len(ones)):
        col = algebra.J.column(pos)
        v = [QI_ZERO] * algebra.dim
        for p, i in enumerate(ones):
            v[i] = col[p]
        jimg.append(v)
    for a in range(len(ones)):
        for b in range(a + 1, len(ones)):
            lhs = algebra.bracket_vec(base[a], base[b])
            rhs = algebra.bracket_vec(jimg[a], jimg[b])
            if lhs != rhs:
                return False
    return True


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
            "rows": [[{"re": frac_to_str(x.re), "im": frac_to_str(x.im)} for x in row] for row in self.rows],
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
            tuple(_qi_from_json(x, f"quotient.rows[{r}][{c}]") for c, x in enumerate(row))
            for r, row in enumerate(rows)
        )
        return cls(kind=kind, rows=rows, provenance=obj.get("provenance", ""))


_QUOTIENT_KINDS = ("default", "explicit", "frame")


def _qi_from_json(x, where: str) -> QI:
    """An entry {"re": "p/q", "im": "p/q"} of exact rational strings."""
    if not isinstance(x, dict):
        raise ValueError(f"{where}: must be an object with 're' and 'im'")
    parts = []
    for key in ("re", "im"):
        if key not in x:
            raise ValueError(f"{where}: missing {key!r}")
        bad = f"{where}.{key}: must be an exact rational string, got {x[key]!r}"
        if not isinstance(x[key], str):
            raise ValueError(bad)
        try:
            parts.append(frac_from_str(x[key]))
        except (ValueError, ZeroDivisionError):
            raise ValueError(bad) from None
    return QI(*parts)


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

    ``quotient`` is None / "default" for the canonical conjugation-adapted
    trailing drop, or a :class:`QuotientSpec` with explicit rows.  All
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

    if quotient is None or quotient == "default":
        spec = QuotientSpec(kind="default", rows=default_quotient_rows(k), provenance="default")
    elif isinstance(quotient, QuotientSpec):
        if quotient.kind == "default" and not quotient.rows:
            spec = QuotientSpec(kind="default", rows=default_quotient_rows(k), provenance=quotient.provenance or "default")
        else:
            spec = quotient
    else:
        raise TypeError("quotient must be None, 'default', or a QuotientSpec")

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
            raw = hall_rewrite(words[i], words[j], max_length=rho, truncate=True)
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
    if check_jacobi(algebra):
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
    with positive leading coefficients.
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
            col = [QI_ZERO] * n
            for pos, b in enumerate(block):
                col[b] = QI(vec[pos].re, QI_ZERO.re) + QI_I * vec[nb + pos]
            columns.append(col)
            degrees.append(d)
            if d == -1:
                labels.append("x" if not labels else "y")
            else:
                counters[d] = counters.get(d, 0) + 1
                labels.append(f"e{-d}_{counters[d]}")
    emb = Matrix.from_columns(columns)
    emb_inv = invert(emb)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = algebra.bracket_vec(columns[i], columns[j])
            coords = emb_inv.matvec(w)
            entry = {}
            for k, c in enumerate(coords):
                if c:
                    if c.im:
                        raise NotSelfConjugate("real form produced non-real structure constants")
                    entry[k] = c
            if entry:
                table[(i, j)] = entry
    j_real = None
    if algebra.J is not None:
        ones_c = algebra.indices_of_degree(-1)
        ones_r = [i for i, d in enumerate(degrees) if d == -1]
        jc_cols = []
        for pos in range(len(ones_r)):
            v = columns[ones_r[pos]]
            img = [QI_ZERO] * n
            for p, ci in enumerate(ones_c):
                acc = QI_ZERO
                for q, cj in enumerate(ones_c):
                    acc = acc + algebra.J.data[p][q] * v[cj]
                img[ci] = acc
            coords = emb_inv.matvec(img)
            col = []
            for r in ones_r:
                c = coords[r]
                if c.im:
                    raise NotSelfConjugate("J does not restrict to the real form")
                col.append(c)
            for r in range(n):
                if r not in ones_r and coords[r]:
                    raise NotSelfConjugate("J leaks outside the degree -1 block")
            jc_cols.append(col)
        j_real = Matrix.from_columns(jc_cols)
    real = GradedLieAlgebra(labels, degrees, table, conjugation=None, J=j_real, scalar_tag="Q")
    return RealForm(real, emb, emb_inv)


def realify(algebra: GradedLieAlgebra) -> GradedLieAlgebra:
    """Real form of a conjugation-equipped complex algebra."""
    return real_form(algebra).algebra


# -- isomorphism checks ----------------------------------------------------


def first_bracket_mismatch(src: GradedLieAlgebra, dst: GradedLieAlgebra, p: Matrix):
    """First basis pair (i, j) of ``src`` where P[a,b] != [Pa, Pb], or None."""
    n = src.dim
    cols = [p.column(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bracket = [QI_ZERO] * n
            for k, c in src.table.get((i, j), {}).items():
                bracket[k] = c
            lhs = p.matvec(bracket)
            rhs = dst.bracket_vec(cols[i], cols[j])
            if lhs != rhs:
                return (i, j)
    return None

