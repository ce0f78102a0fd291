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
from functools import lru_cache
from itertools import combinations

from .exact import QI_ZERO, Echelon, Matrix, as_qi, qi_from_json
from .exact import _conj, _entries, _extend_numerators, _gaussian_apply, _gaussian_axpy, _gaussian_reduce, _gaussian_table, _qi
from .exact import _key, _numerator_table, _qi_view, _real_coordinates, _real_fixed_points, _relabel, _table_entries
from .freelie import _bracket_basis, conjugate_normal_form, cumulative_dim, hall_basis, min_length_for_codim, witt_dim

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
    """Finite dimensional graded Lie algebra by structure constants.

    The constructor's ``table`` maps index pairs (i, j) with i < j to
    {k: coefficient}; the other half follows by antisymmetry.
    ``conjugation`` (optional) is the matrix S of the antilinear map
    v -> S·conj(v) in the given basis; it is checked once, here, to be a
    degree-preserving involution and a bracket morphism, else
    :class:`NotSelfConjugate` is raised.  ``J`` (optional) is a complex
    structure on the degree -1 block and must square to -id.

    The structure constants are stored once, as packed Gaussian integer
    numerators ``_numerators`` = ({(i, j): {k: re, ~k: im}}, den), and
    every engine path reads them; a real table has no negative key.
    ``table``, ``bracket_basis`` and ``bracket_vec`` are ``QI`` views for
    output (JSON, text, ``==``) and tests.  Every algebra goes through one validation path, ``_build``,
    from numerators: the constructor converts its ``QI`` table,
    ``_from_numerators`` takes numerators, and ``_extended`` appends basis
    vectors to an algebra already built.

    The degree layout is recorded once, in ``_build``: ``_blocks`` maps
    each degree, in order of first appearance, to its basis indices, and
    ``_positions[i]`` is the position of index i in its degree's block.

    One gate verdict is recorded on the object, like ``_expressions``:
    ``_jacobi_prefix`` is the number of leading basis vectors on whose
    triples the Jacobi identity is known to hold (the whole dimension once
    the Jacobi gate has passed here).  An extension keeps it for its
    prefix, since its brackets there are the prefix algebra's own; another
    algebra built from the same table starts without it.
    """

    # ``_expressions`` memoizes _generating_expressions as a 1-tuple, None until first use
    __slots__ = ("labels", "degrees", "conjugation", "J", "scalar_tag", "_numerators", "_table", "_expressions", "_jacobi_prefix", "_blocks", "_positions")

    def __init__(self, labels, degrees, table, conjugation=None, J=None, scalar_tag="Qi"):
        if bad := [k for terms in table.values() for k in terms if not isinstance(k, int) or k < 0]:
            raise ValueError(f"target index out of range: {bad[0]}")  # refused before packing, where a negative k would read as an imaginary part
        nums = _gaussian_table({ij: {k: as_qi(c) for k, c in terms.items()} for ij, terms in table.items()})
        self._build(labels, degrees, None, nums, table, conjugation, J, scalar_tag)  # a key without terms is validated too

    @classmethod
    def _from_numerators(cls, labels, degrees, numerators, conjugation=None, J=None, scalar_tag="Qi") -> "GradedLieAlgebra":
        """The algebra whose ``_numerators`` are ``numerators``, in the constructor's form (``exact._numerator_table``), validated as by it."""
        out = object.__new__(cls)
        out._build(labels, degrees, None, numerators, list(numerators[0]), conjugation, J, scalar_tag)
        return out

    def _extended(self, labels, degrees, entries, J=None, scalar_tag="Qi") -> "GradedLieAlgebra":
        """This algebra with the basis vectors ``labels``/``degrees`` appended and the brackets ``entries`` added.

        ``entries`` = [((i, j), {k: re, ~k: im}, den)] are packed Gaussian numerators,
        each key with an appended index j, so the table on this algebra's
        indices stays its own.  The extension has no conjugation.
        """
        out = object.__new__(type(self))
        nums = _extend_numerators(self._numerators, entries)
        out._build(self.labels + tuple(labels), self.degrees + tuple(degrees), self, nums, [key for key, _, _ in entries], None, J, scalar_tag)
        return out

    def _build(self, labels, degrees, base, numerators, new, conjugation, J, scalar_tag):
        """The one validation path, from the whole table's ``numerators``: ``base`` (None or the algebra extended) plus the keys ``new``.

        Each new key and its targets are checked; ``base``'s brackets, J
        and Jacobi verdict carry over unchecked, J only when the degree -1
        block is unchanged.  No ``QI`` is written.
        """
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        n = len(self.labels)
        if len(self.degrees) != n:
            raise ValueError("labels/degrees length mismatch")
        blocks, positions = {}, []
        for i, d in enumerate(self.degrees):
            block = blocks.setdefault(d, [])
            positions.append(len(block))
            block.append(i)
        self._blocks = {d: tuple(idx) for d, idx in blocks.items()}
        self._positions = tuple(positions)
        own = 0 if base is None else base.dim
        nums, den = self._numerators = numerators
        for i, j in new:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bracket index out of range: {(i, j)}")
            if i >= j:
                raise ValueError("table keys must have i < j")
            if j < own:
                raise ValueError(f"an extension cannot change the bracket {(i, j)} of its prefix")
        for _, k, _, _ in _table_entries([(ij, nums.get(ij, {})) for ij in new]):
            if not 0 <= k < n:
                raise ValueError(f"target index out of range: {k}")
        self._table = None
        self.conjugation = conjugation
        self.J = J
        self.scalar_tag = scalar_tag
        self._expressions = None
        self._jacobi_prefix = 0 if base is None else base._jacobi_prefix
        if J is not None and not (base is not None and -1 not in self.degrees[own:] and J is base.J):
            m1 = self.indices_of_degree(-1)
            if J.rows != len(m1) or J.cols != len(m1):
                raise ValueError("J must act on the degree -1 block")
            if J.mul(J) != -Matrix.identity(len(m1)):
                raise ValueError("J∘J must be -id on the degree -1 part")
        if conjugation is not None:
            s = conjugation
            if s.rows != n or s.cols != n:
                raise NotSelfConjugate(f"conjugation must be a {n}x{n} matrix, got {s.rows}x{s.cols}")
            cols, sden = s._numerators
            if any(self.degrees[a] != self.degrees[b] for b, a, _, _ in _table_entries(cols.items())):
                raise NotSelfConjugate("conjugation does not preserve degrees")
            # S·conj(S) = I, column by column on the numerators over sden²
            for j in range(n):
                if {t: x for t, x in _gaussian_apply(cols, _conj(cols.get(j, {}))).items() if x} != {j: sden * sden}:
                    raise NotSelfConjugate("conjugation is not an involution")
            # sigma[e_i, e_j] = S·conj(c_ij) must equal [S e_i, S e_j]
            if _table_mismatch({ij: _conj(terms) for ij, terms in nums.items()}, den, self, cols, sden) is not None:
                raise NotSelfConjugate("structure constants are not conjugation-stable")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def degrees_present(self):
        """The degrees, in order of first appearance."""
        return list(self._blocks)

    def indices_of_degree(self, d: int):
        """The basis indices of degree d, increasing, as a tuple."""
        return self._blocks.get(d, ())

    def dims_by_degree(self) -> dict:
        """{degree: dimension}, by increasing degree."""
        return {d: len(self._blocks[d]) for d in sorted(self._blocks)}

    @property
    def table(self) -> dict:
        """{(i, j): {k: QI}} for i < j: a read-only view of ``_numerators``, in its order, built on first read."""
        if self._table is None:
            nums, den = self._numerators
            self._table = {ij: _qi_view(terms, den) for ij, terms in nums.items()}
        return self._table

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j] as {k: QI}, a view of ``table``."""
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
    ``floor`` None every triple is checked.  So are the triples of the
    first ``algebra._jacobi_prefix`` basis vectors, on which the identity
    is known to hold: only triples with an index past that prefix are
    visited, and an empty result records a passed gate on the algebra.
    The loop runs over the support, on the numerators: each constant of
    [e_a, e_b] at e_t times each nonzero [e_t, e_c] is a term of
    [[e_a, e_b], e_c], which enters the Jacobiator of {a, b, c} with sign
    -1 when a < c < b.  A triple reached by no term has a zero Jacobiator.
    A pair (a, b) inside the prefix brackets into it, so its terms with a
    c past the prefix come from the rows of those c alone.  Sums are over
    den², packed, and only a violating triple goes back to ``QI``.
    """
    known = algebra._jacobi_prefix
    if known == algebra.dim:
        return []
    nums, den = algebra._numerators
    degrees = algebra.degrees
    rows = {}  # t: [(c, sign, terms)] with [e_t, e_c] = sign·terms
    new_rows = {}  # the same, for c past the prefix only
    for (a, b), terms in nums.items():
        rows.setdefault(a, []).append((b, 1, terms))
        rows.setdefault(b, []).append((a, -1, terms))
        if b >= known:
            new_rows.setdefault(a, []).append((b, 1, terms))
            if a >= known:
                new_rows.setdefault(b, []).append((a, -1, terms))
    sums = {}  # (i, j, k), i < j < k: {s: re, ~s: im}
    for (a, b), u, turn, x in _table_entries(nums.items()):
        for c, sign, inner in (rows if b >= known else new_rows).get(u, ()):
            if c == a or c == b:
                continue
            if floor is not None and degrees[a] + degrees[b] + degrees[c] < floor:
                continue
            if a < c < b:
                key, sign = (a, c, b), -sign
            else:
                key = (a, b, c) if b < c else (c, a, b)
            _gaussian_axpy(sums.setdefault(key, {}), sign * x, inner, turn)
    violations = []
    for key in sorted(sums):
        if any(sums[key].values()):
            acc = _qi_view({s: x for s, x in sums[key].items() if x}, den * den)
            violations.append((*key, [acc.get(s, QI_ZERO) for s in range(algebra.dim)]))
    if not violations:
        algebra._jacobi_prefix = algebra.dim
    return violations


def check_grading(algebra: GradedLieAlgebra):
    """Structure constants landing outside degree deg(a)+deg(b), as (i, j, k, coefficient), read from ``_numerators``."""
    degrees = algebra.degrees
    nums, den = algebra._numerators
    bad = {}
    for (i, j), k, _, _ in _table_entries(nums.items()):
        if degrees[k] != degrees[i] + degrees[j]:
            bad[i, j] = None
    return [(i, j, k, c) for i, j in bad for k, c in _qi_view(nums[i, j], den).items() if degrees[k] != degrees[i] + degrees[j]]


def is_fundamental(algebra: GradedLieAlgebra) -> bool:
    """True iff iterated brackets of the degree -1 part span every layer."""
    return _generating_expressions(algebra) is not None


def _generating_expressions(algebra: GradedLieAlgebra):
    """One expression e_x = sum of c·[e_g, e_y], deg g = -1, deg y = deg x + 1, per x of degree <= -2.

    Returns ``{x: ([(g, y, turn, c), ...], den)}``, each c/den·i^turn a
    part of the coefficient (``exact._entries``), or None when some layer
    m_a is not spanned by [g_-1, m_(a+1)], i.e.
    when the algebra is not fundamental.  One echelon per layer of the
    rows [e_g, e_y], read from ``_numerators`` and each augmented by its
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
    nums, den = algebra._numerators
    ones = algebra.indices_of_degree(-1)
    loc = algebra._positions
    out = {}
    for a in range(-2, min(algebra.degrees) - 1, -1):
        block = algebra.indices_of_degree(a)
        nb = len(block)
        pairs = [(g, y) for g in ones for y in algebra.indices_of_degree(a + 1)]
        rows = []
        for p, (g, y) in enumerate(pairs):
            # den·[e_g, e_y]; the table is keyed i < j, so a pair with g > y reads -[e_y, e_g]
            sign = 1 if g < y else -1
            terms = nums.get((min(g, y), max(g, y)), {})
            rows.append({_key(loc[k], turn): sign * x for k, turn, x in _entries(terms) if algebra.degrees[k] == a} | {nb + p: den})
        pivots = [(c, row) for c, row in _gaussian_reduce(rows, nb + len(pairs))[0] if c < nb]
        if len(pivots) != nb:
            return None
        for c, row in pivots:
            out[block[c]] = ([(*pairs[q - nb], turn, x) for q, turn, x in _entries(row) if q >= nb], row[c])
    return out


def _acts_faithfully(algebra: GradedLieAlgebra, acting, on) -> bool:
    """True iff no nonzero combination of ``acting`` basis vectors brackets all of ``on`` to zero.

    The rows, one per (x in ``on``, coordinate t) that some [g, x]
    reaches, are read from ``_numerators`` and yielded x by x, packed
    (den·[g, x]_t at the position of g in ``acting``, its imaginary part
    at the complement, as stored), into ``_gaussian_reduce``.  The action is faithful
    iff the rows have full rank, so the reduction stops at the row that
    completes it.
    """
    nums, _ = algebra._numerators

    def rows():
        for x in on:
            block = {}  # t: {position of g in acting: den·[g, x]_t, packed}
            for pos, g in enumerate(acting):
                # the table is keyed i < j, so a pair with g > x reads -[e_x, e_g]
                sign = 1 if g < x else -1
                for t, turn, y in _entries(nums.get((min(g, x), max(g, x)), {})):
                    block.setdefault(t, {})[_key(pos, turn)] = sign * y
            yield from block.values()

    return len(_gaussian_reduce(rows(), len(acting))[0]) == len(acting)


def is_nondegenerate_symbol(algebra: GradedLieAlgebra) -> bool:
    """True iff no nonzero degree -1 element annihilates the degree -1 part."""
    ones = algebra.indices_of_degree(-1)
    return _acts_faithfully(algebra, ones, ones)


def is_pseudocomplex(algebra: GradedLieAlgebra) -> bool:
    """Check [x, y] = [Jx, Jy] on the degree -1 part, as jden²·[e_a, e_b] = [J e_a, J e_b] over jden²·den for J over jden."""
    if algebra.J is None:
        raise MissingJ("algebra has no complex structure map")
    ones = algebra.indices_of_degree(-1)
    nums, _ = algebra._numerators
    jcols, jden = algebra.J._numerators
    images = _bracket_images(nums, _rows({ones[q]: _relabel(col, ones) for q, col in jcols.items()}))
    f = jden * jden
    for a, b in combinations(ones, 2):
        want = {k: f * x for k, x in nums.get((a, b), {}).items()}
        if {k: x for k, x in images.get((a, b), {}).items() if x} != want:
            return False
    return True


# -- symbol algebras ------------------------------------------------------


class QuotientSpec:
    """Which central subspace of the top free layer gets quotiented away.

    kind "default": conjugation-adapted trailing drop; "explicit": rows are
    coefficient vectors over the length-rho Hall words (any scalars);
    "frame": same format, produced by evaluating a model's vector fields.
    """

    def __init__(self, kind: str = "default", rows: tuple = (), provenance: str = ""):
        self.kind = kind
        self.rows = rows
        self.provenance = provenance

    def __eq__(self, other):
        if not isinstance(other, QuotientSpec):
            return NotImplemented
        return (self.kind, self.rows, self.provenance) == (other.kind, other.rows, other.provenance)

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
    """The graded nilpotent algebra of a codimension-k model, on its Hall ``words``; no quotient row is kept."""

    __slots__ = ("algebra", "codim", "length", "words", "quotient")

    def __init__(self, algebra, codim, length, words, quotient):
        self.algebra = algebra
        self.codim = codim
        self.length = length
        self.words = tuple(words)
        self.quotient = quotient

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


@lru_cache(maxsize=None)
def conjugation_adapted_top_basis(rho: int):
    """Real basis of the top layer adapted to the generator-swap involution; built once per length.

    Returns a tuple of (vector over Q, eigentype), each vector a tuple,
    where eigentype +1 means the rational vector itself is fixed, -1 means
    i times it is fixed.  Ordered by (leading Hall word, +1 before -1);
    leading coefficients positive.  This ordering is what "drop trailing"
    refers to.

    The swap S is real, so z = x + iy is fixed by F(z) = S·conj(z) iff
    Sx = x and Sy = -y: one ``_real_fixed_points`` elimination of the
    image of F + I gives the reduced bases of the images of S + I (tag +1)
    and S - I (tag -1), each vector signed positive at its leading
    coefficient and checked F·v = v in integers.
    """
    top = [w for w in hall_basis(rho).words if w.length == rho]
    pos = {w.word: p for p, w in enumerate(top)}
    # column j of S: the coefficients of the top words in the swap of top word j
    swap = {j: {pos[word]: c for word, c in conjugate_normal_form(w.word)} for j, w in enumerate(top)}
    tagged = []
    for vec, den, (_, part) in _real_fixed_points((swap, 1)):
        # the system splits, so each vector lies in the x half (part 0, keys p) or the y half (part 1, keys ~p)
        half = {p: x for p, _, x in _entries(vec)}
        tagged.append((min(half), part, tuple(_qi(half.get(p, 0), 0, den) for p in range(len(top)))))
    tagged.sort(key=lambda t: t[:2])
    return tuple((v, 1 - 2 * part) for _, part, v in tagged)


def default_quotient_rows(k: int):
    """Rows of the default quotient subspace for codimension ``k``."""
    rho = min_length_for_codim(k)
    n_top = witt_dim(rho)
    keep = (2 + k) - cumulative_dim(rho - 1)
    adapted = conjugation_adapted_top_basis(rho)
    assert len(adapted) == n_top
    return tuple(v for v, _tag in adapted[keep:])


def build_symbol_algebra(k: int, quotient=None) -> SymbolAlgebra:
    """Symbol algebra of codimension ``k`` for a chosen top-layer quotient.

    ``quotient`` is None for the canonical conjugation-adapted trailing
    drop, or a :class:`QuotientSpec` with explicit rows; a spec of kind
    "default" with rows must span the default subspace, else
    :class:`BadQuotient` is raised.  The quotient map π is read once off
    the numerators of the reduced rows (``Echelon.reduced``): it gives
    every structure constant, the conjugation-stability test and the
    conjugation's top columns, with no further reduction and no ``QI`` row.
    All invariants (grading, Jacobi, fundamentality, nondegeneracy, layer
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
    order = range(n_top - 1, -1, -1)
    reducer = Echelon([list(r) for r in spec.rows], n_top, col_order=order)
    if reducer.rank != need:
        raise BadQuotient(f"quotient must have dimension {need}, got rank {reducer.rank}")
    # equal ranks, and the reduced form is unique for the column order
    if spec is quotient and spec.kind == "default" and Echelon(default_quotient_rows(k), n_top, col_order=order).reduced != reducer.reduced:
        raise BadQuotient("a quotient of kind 'default' must span the default quotient subspace")
    retained = sorted(reducer.free_cols)
    assert len(retained) == keep

    words = list(low_words) + [top_words[t] for t in retained]
    labels = [f"L{w.length}_{i + 1}" for i, w in enumerate(words)]
    degrees = [-w.length for w in words]
    pos_top_retained = {t: len(low_words) + r for r, t in enumerate(retained)}

    # the quotient map π on words, over pden: a lower or retained word keeps its
    # coordinate, and a pivot top word c goes to minus the rest of its reduced
    # row, which is zero at every other pivot; π is keyed by the Hall words'
    # positions in ``basis``, so a combination of words is a packed form
    hall = {w.word: h for h, w in enumerate(basis.words)}
    pi = [(hall[w.word], {i: 1}, 1) for i, w in enumerate(low_words)]
    pi += [(hall[top_words[t].word], {pos: 1}, 1) for t, pos in pos_top_retained.items()]
    for c, row in reducer.reduced:
        pi.append((hall[top_words[c].word], _relabel({u: -x for u, x in row.items() if u != c}, pos_top_retained), row[c]))
    pi_nums, pden = _numerator_table(pi)

    n = len(words)
    # a Hall word's standard bracketing is its own normal form
    entries = [
        ((i, j), _gaussian_apply(pi_nums, {hall[w]: c for w, c in _bracket_basis(words[i].word, words[j].word)}), pden)
        for i in range(n)
        for j in range(i + 1, n)
        if words[i].length + words[j].length <= rho
    ]

    # conjugation: generator swap S extended as an antilinear bracket morphism,
    # defined on the quotient only when the quotient subspace is stable, i.e.
    # when π(S·conj(q)) = Σ_t conj(q_t)·π(S·e_t) vanishes for every quotient row q
    def swap(w):
        """π(S·w) over pden."""
        return _gaussian_apply(pi_nums, {hall[v]: c for v, c in conjugate_normal_form(w.word)})

    swapped = {t: swap(w) for t, w in enumerate(top_words)}
    stable = not any(any(_gaussian_apply(swapped, _conj(row)).values()) for _, row in reducer.reduced)
    conjugation = None
    if stable:
        conj_cols = [swap(w) for w in low_words] + [swapped[t] for t in retained]
        conjugation = Matrix._from_numerators(n, n, [(j, col, pden) for j, col in enumerate(conj_cols)])

    j_mat = Matrix._from_numerators(2, 2, [(0, {~0: 1}, 1), (1, {~1: -1}, 1)])
    algebra = GradedLieAlgebra._from_numerators(labels, degrees, _numerator_table(entries), conjugation=conjugation, J=j_mat, scalar_tag="Qi")

    # invariant gate.  Each holds by construction and checks the arithmetic
    # above: the table is the free nilpotent algebra's, bracketed by Hall
    # normal forms, modulo a subspace of its top layer, which is central, so
    # it is graded and satisfies Jacobi; the lower layers keep every Hall
    # word, and the rank check leaves keep = 2 + k - (their dimension) top
    # words; and degree -1 generates the free algebra, hence its quotient
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
    # holds once the algebra is fundamental: g_-1 is spanned by L and L̄, so a
    # nonzero v there with [v, g_-1] = 0 forces [L, L̄] = 0, and nothing of
    # degree -2 is generated, while the dimension 2 + k > 2 needs g_-2 != 0
    if not is_nondegenerate_symbol(algebra):
        raise AssertionError("symbol algebra is degenerate")

    return SymbolAlgebra(algebra, k, rho, words, spec)


# -- real forms ------------------------------------------------------------


class RealForm:
    """Real form of a complex algebra: the fixed points of its conjugation.

    ``embedding`` holds the complex coordinates of each real basis vector
    as matrix columns, block-diagonal by degree, so brackets and operators
    transport both ways.
    """

    def __init__(self, algebra: GradedLieAlgebra, embedding: Matrix):
        self.algebra = algebra
        self.embedding = embedding


def real_form(algebra: GradedLieAlgebra) -> RealForm:
    """Fixed-point real form of ``algebra`` under its conjugation, computed on integer numerators.

    Per degree d, which the conjugation S preserves, the real basis E_d is
    the reduced image of F + I for F(z) = S·conj(z) on that block
    (``_real_fixed_points``: ±1 at its free columns, leading coefficients
    positive, each vector checked F·v = v in integers); degree -1 lands on x = g1 + g2, y = i(g1 - g2).  Brackets
    and J images move as Gaussian integer numerators over one denominator;
    their real coordinates are read at the free columns, where each basis
    vector is ±1 and the others are 0, and each image must equal that real
    combination (``exact._real_coordinates``); one that does not raises
    :class:`NotSelfConjugate`.  The real brackets, J_R and the embedding
    are built from numerators, and no ``QI`` is written.
    """
    if algebra.conjugation is None:
        raise NotSelfConjugate("algebra has no conjugation involution")
    columns, dens = [], []  # real basis vector c: its packed complex coordinates over dens[c]
    sc, sden = algebra.conjugation._numerators
    free = {}  # packed key: [c], the real basis vectors whose free column it is
    labels, degrees = [], []
    loc = algebra._positions
    for d in algebra.degrees_present():
        block = algebra.indices_of_degree(d)
        s = {q: _relabel(sc.get(b, {}), loc) for q, b in enumerate(block)}  # S on the block, over sden
        basis = _real_fixed_points((s, sden))  # column c of E_d, [(packed column, den, free column)] on the positions p of block
        # unreachable through the constructors: _build refuses a conjugation that is
        # not a degree-preserving involution, and the fixed points of an antilinear
        # involution of a block are always a real form of it, of the block's dimension
        if len(basis) != len(block):
            raise NotSelfConjugate("real form of a degree block has wrong dimension")
        first = len(columns)
        for c, (col, den, (p, part)) in enumerate(basis, first):
            free.setdefault(_key(block[p], part), []).append(c)
            columns.append(_relabel(col, block))
            dens.append(den)
            degrees.append(d)
            labels.append(("y" if labels else "x") if d == -1 else f"e{-d}_{c - first + 1}")

    def real_coords(w: dict, den: int, message: str) -> dict:
        """The real coordinates of w / den for packed Gaussian numerators w, as numerators {c: x} over den without zeros."""
        coords = _real_coordinates(w, den, columns, dens, free)
        if coords is None:
            raise NotSelfConjugate(message)
        return coords

    consts, tden = algebra._numerators
    brackets = _bracket_images(consts, _rows(dict(enumerate(columns))))  # over dens[i]·dens[j]·tden
    message = "real form produced non-real structure constants"
    entries = []
    for (i, j), w in sorted(brackets.items()):
        den = dens[i] * dens[j] * tden
        entries.append(((i, j), real_coords(w, den, message), den))
    j_real = None
    if algebra.J is not None:
        ones_c = algebra.indices_of_degree(-1)
        ones_r = [c for c, d in enumerate(degrees) if d == -1]
        jm, jden = algebra.J._numerators
        j_cols = {ones_c[q]: _relabel(col, ones_c) for q, col in jm.items()}  # over jden
        jr_cols = []
        for q, r in enumerate(ones_r):
            den = dens[r] * jden
            coords = real_coords(_gaussian_apply(j_cols, columns[r]), den, "J does not restrict to the real form")
            jr_cols.append((q, {ones_r.index(t): x for t, x in coords.items()}, den))
        j_real = Matrix._from_numerators(len(ones_r), len(ones_r), jr_cols)
    real = GradedLieAlgebra._from_numerators(labels, degrees, _numerator_table(entries), J=j_real, scalar_tag="Q")
    emb = Matrix._from_numerators(algebra.dim, len(columns), [(c, col, dens[c]) for c, col in enumerate(columns)])
    return RealForm(real, emb)


def realify(algebra: GradedLieAlgebra) -> GradedLieAlgebra:
    """Real form of a conjugation-equipped complex algebra."""
    return real_form(algebra).algebra


# -- isomorphism checks ----------------------------------------------------


def first_bracket_mismatch(src: GradedLieAlgebra, dst: GradedLieAlgebra, p: Matrix):
    """First basis pair (i, j) of ``src``, in (i, j) order, where P[a,b] != [Pa, Pb], or None.

    P must be ``dst.dim`` x ``src.dim``, else ValueError is raised.
    """
    if (p.rows, p.cols) != (dst.dim, src.dim):
        raise ValueError(f"P must be {dst.dim}x{src.dim}, got {p.rows}x{p.cols}")
    return _table_mismatch(*src._numerators, dst, *p._numerators)


def _table_mismatch(nums, den, dst: GradedLieAlgebra, cols, pden):
    """``first_bracket_mismatch`` for the numerators ``nums`` over ``den`` and the columns ``cols`` of P over ``pden``.

    P·c_ij is over den·pden and [P e_i, P e_j] over pden²·dden, so they are
    compared as integers, times pden·dden and den.  Both run over the support:
    the constants of ``nums``, and each nonzero [e_a, e_b] of ``dst`` times
    the entries of P in rows a and b.  A pair reached by neither is zero on
    both sides.
    """
    dnums, dden = dst._numerators
    diff = _bracket_images(dnums, _rows(cols), -den)  # pden·dden·(P·c_ij) - den·[P e_i, P e_j]
    f = pden * dden
    for ij, k, turn, x in _table_entries(nums.items()):
        _gaussian_axpy(diff.setdefault(ij, {}), f * x, cols.get(k, {}), turn)
    return min((ij for ij, acc in diff.items() if any(acc.values())), default=None)


def _rows(cols):
    """The rows {a: [(j, turn, x)]} of the packed columns ``cols`` = {j: form}: entry (a, j) has the part x·i^turn (``exact._entries``)."""
    rows = {}
    for j, a, turn, x in _table_entries(cols.items()):
        rows.setdefault(a, []).append((j, turn, x))
    return rows


def _bracket_images(nums, rows, scale=1):
    """scale·[P e_i, P e_j] as packed {(i, j): form}, i < j, zeros kept, for the bracket numerators ``nums`` and the rows of P (``_rows``)."""
    out = {}
    for (a, b), terms in nums.items():
        for i, ti, x in rows.get(a, ()):
            for j, tj, y in rows.get(b, ()):
                if i != j:  # the (a, b) and (b, a) terms of [P e_i, P e_i] cancel
                    sign = scale if i < j else -scale
                    _gaussian_axpy(out.setdefault((min(i, j), max(i, j)), {}), sign * x * y, terms, ti + tj)
    return out

