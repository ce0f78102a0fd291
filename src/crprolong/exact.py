"""Exact scalars and sparse exact linear algebra.

Scalars are Gaussian rationals (elements of Q(i)), each held as its one
integer normal form (a + b·i)/d with d > 0 and gcd(a, b, d) = 1, so
nothing in the library ever rounds.  Every solve goes through one
Gauss-Jordan kernel, ``integer_rref``: fraction-free elimination on sparse
rows ``{col: int}``, each row kept primitive, read one at a time and
stopped at full rank.  Every system over Q(i) reaches it through one
reduction, ``_gaussian_reduce``, of a stream of packed Gaussian integer
rows: real rows go to ``integer_rref`` as they come, and from the first
row with an imaginary part on, the rows are realified (``_realify``) onto
twice the columns, so a system of full rank is read only up to the row
that completes the rank, whatever the scalars.  ``_integer_kernel`` (the
prolongation's kernels) and the faithfulness test of the nondegeneracy
and transitivity gates read it, and so does ``_gaussian_rref``, which
maps ``(re, im)`` rows onto unknowns in a column order and back: rank,
``Echelon`` (which keeps it) and the frame filtration and quotient read
that.  The real basis of a conjugation block, the fixed points of the
involution F(z) = S·conj(z), is read off one ``integer_rref`` of the
image of F + I (``_real_fixed_points``), and ``liealg.real_form`` reads
coordinates in it at the free columns, with no inverse
(``_real_coordinates``).  The reduced row echelon form for a fixed
column order is unique, so every basis, reducer and solution depends only
on the input and the column order, never on row order or on how the
elimination is scheduled.

This module owns the fraction-free form that ``prolong``, ``bch``,
``frames`` and ``liealg`` compute on: integer numerators over one positive
denominator, Gaussian numerators as ``(re, im)`` pairs.  A structure-
constant table, a ``Matrix`` (columns ``({col: {row: (re, im)}}, den)``)
and a derivation map's column (``({t: (re, im)}, den)``) are stored in
it.  Only the solves pack a Gaussian form into one dict, re at key k and
im at key ~k (``_times_i``): the prolongation's linear forms and
``_gaussian_reduce``.  ``_gaussian_integers`` is the way in (a real caller
refuses a nonzero ``im`` itself), ``_sum_forms`` the one scaled sum of
packed forms and ``_gaussian_sum`` of ``(re, im)`` vectors (one gcd
each, on the finished sum; a caller that accumulates its own sum uses
the two steps, ``_over_one_denominator`` and ``_lowest_terms``),
``_numerator_table`` the one table in lowest terms, and ``_qi(re, im,
den)`` the way back to a ``QI``.  No other module takes a gcd or an
lcm, or reads the slots of a ``QI``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

__all__ = [
    "QI",
    "Matrix",
    "Echelon",
    "Inconsistent",
    "rank",
    "integer_rref",
    "qi_from_json",
]


# nothing in the package raises it; it stays public because
# perfbench/tracer.py reads it when it installs its wrappers
class Inconsistent(ValueError):
    """Linear system has no solution."""


def _frac(x) -> Fraction:
    if isinstance(x, (int, Fraction, str)):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class QI:
    """A Gaussian rational (a + b·i)/d, stored as ints a, b, d with d > 0 and gcd(a, b, d) = 1.

    The form is unique, so ``==`` compares three ints; ``re`` and ``im`` are the parts as ``Fraction``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _frac(re), _frac(im)
        # parts in lowest terms, over the lcm of their denominators, have gcd 1
        d = lcm(re._denominator, im._denominator)
        self._a, self._b, self._d = re._numerator * (d // re._denominator), im._numerator * (d // im._denominator), d

    re = property(lambda self: Fraction(self._a, self._d))
    im = property(lambda self: Fraction(self._b, self._d))

    def conj(self) -> "QI":
        return _form(self._a, -self._b, self._d)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # a real QI equals its Fraction and int, so it hashes as they do
        return hash((self.re, self.im)) if self._b else hash(Fraction(self._a, self._d))

    def __neg__(self) -> "QI":
        return _form(-self._a, -self._b, self._d)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _qi(self._a + other._a, self._b + other._b, d)
        return _qi(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        # real-by-real fast path: realified algebras live entirely here
        if not b and not e:
            return _qi(a * c, 0, self._d * other._d)
        return _qi(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"QI({self.re!s}, {self.im!s})"

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio(a, d)
        im = ("+" if b > 0 else "-") + ("i" if abs(b) == d else _ratio(abs(b), d) + "i")
        return _ratio(a, d) + im if a else im.removeprefix("+")


def _ratio(n: int, d: int) -> str:
    """n/d as ``str(Fraction(n, d))`` writes it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _form(a: int, b: int, d: int) -> QI:
    """The ``QI`` with slots (a, b, d), which must already be the normal form."""
    q = object.__new__(QI)
    q._a, q._b, q._d = a, b, d
    return q


def _qi(re: int, im: int, den: int) -> QI:
    """(re + i·im)/den as a ``QI``, for den > 0: the one way back from numerators."""
    if den != 1:
        g = gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
    return _form(re, im, den)


def _coerce(x):
    if isinstance(x, QI):
        return x
    if isinstance(x, (int, Fraction)):
        return _form(x.numerator, 0, x.denominator)
    return NotImplemented


QI_ZERO = _form(0, 0, 1)
QI_ONE = _form(1, 0, 1)


def as_qi(x) -> QI:
    q = _coerce(x)
    if q is NotImplemented:
        raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")
    return q


_RATIONAL = re.compile(r"[-+]?([0-9]+)(?:/([0-9]+))?")
# Python's default bound on the digits of an int parsed from a string
_MAX_DIGITS = 4300


def qi_from_json(x, where: str) -> QI:
    """An entry {"re": "p/q", "im": "p/q"} of exact rational strings.

    A part is ``[-+]N`` or ``[-+]N/D`` in decimal digits, as ``str(Fraction)``
    writes it, N and D of at most ``_MAX_DIGITS`` digits.  Anything else, a
    JSON number or a decimal or exponent string such as ``"1e400"`` included,
    raises ValueError naming ``where``, such as ``terms[0].re: must be an
    exact rational string``; too many digits are refused before parsing.
    """
    if not isinstance(x, dict):
        raise ValueError(f"{where}: must be an object with 're' and 'im'")
    parts = []
    for key in ("re", "im"):
        if key not in x:
            raise ValueError(f"{where}: missing {key!r}")
        match = _RATIONAL.fullmatch(x[key]) if isinstance(x[key], str) else None
        if match and any(len(g or "") > _MAX_DIGITS for g in match.groups()):
            raise ValueError(f"{where}.{key}: more than {_MAX_DIGITS} digits in a numerator or denominator")
        bad = f"{where}.{key}: must be an exact rational string, got {x[key]!r}"
        if not match:
            raise ValueError(bad)
        try:
            parts.append(Fraction(x[key]))
        except (ValueError, ZeroDivisionError):
            raise ValueError(bad) from None
    return QI(*parts)


class Matrix:
    """Matrix over Q(i), stored once as Gaussian numerator columns ``({col: {row: (re, im)}}, den)``.

    That is the structure-constant table's form (``_numerator_table``): in
    lowest terms, without zero entries or empty columns.  ``Matrix(rows)``
    builds one from dense rows (JSON, tests), ``Matrix.sparse(rows,
    columns)`` from sparse columns, each converting its ``QI`` input once,
    and ``_from_numerators`` from numerators, for the engine.  Every
    product, comparison and solve works on the numerators; ``data``, a
    read-only dense tuple of row tuples, and ``sparse_column`` are ``QI``
    views for output and tests.
    """

    __slots__ = ("rows", "cols", "_numerators")

    def __init__(self, data):
        data = [[as_qi(x) for x in row] for row in data]
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged matrix")
        self.rows, self.cols = len(data), cols
        self._numerators = _numerator_table([(j, *_gaussian_integers((i, row[j]) for i, row in enumerate(data))) for j in range(cols)])

    @classmethod
    def sparse(cls, rows: int, columns) -> "Matrix":
        """The ``rows``-row matrix whose column j is ``columns[j]``, a dict {row: entry}; zeros are dropped."""
        columns = [_gaussian_integers((i, as_qi(x)) for i, x in col.items()) for col in columns]
        return cls._from_numerators(rows, len(columns), [(j, *col) for j, col in enumerate(columns)])

    @classmethod
    def _from_numerators(cls, rows: int, cols: int, entries) -> "Matrix":
        """The ``rows`` x ``cols`` matrix whose column j is nums/den for ``entries`` = [(j, {row: (re, im)}, den)], brought to lowest terms."""
        self = object.__new__(cls)
        self.rows, self.cols = rows, cols
        self._numerators = _numerator_table(entries)
        if any(not 0 <= i < rows for col in self._numerators[0].values() for i in col):
            raise ValueError("row index out of range")
        return self

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_numerators(n, n, [(j, {j: (1, 0)}, 1) for j in range(n)])

    @property
    def data(self):
        nums, den = self._numerators
        out = [[QI_ZERO] * self.cols for _ in range(self.rows)]
        for j, col in nums.items():
            for i, (re, im) in col.items():
                out[i][j] = _qi(re, im, den)
        return tuple(map(tuple, out))

    def sparse_column(self, j: int) -> dict:
        """Column j as a new dict {row: QI} without zeros, rows increasing."""
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        nums, den = self._numerators
        return {i: _qi(re, im, den) for i, (re, im) in sorted(nums.get(j, {}).items())}

    def __neg__(self) -> "Matrix":
        nums, den = self._numerators
        return Matrix._from_numerators(self.rows, self.cols, [(j, {i: (-re, -im) for i, (re, im) in col.items()}, den) for j, col in nums.items()])

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        (nums, den), (onums, oden) = self._numerators, other._numerators
        return Matrix._from_numerators(self.rows, other.cols, [(j, _gaussian_apply(nums, col), den * oden) for j, col in onums.items()])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._numerators == other._numerators
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"


def _realify(rows):
    """Packed Gaussian integer rows as integer rows ``{col: int}``, yielded one at a time.

    Unknown u becomes columns 2u (real part, key u) and 2u + 1 (imaginary
    part, key ~u).  Each row r gives the rows of r and of i·r
    (``_times_i``), relabelled, one at a time as the consumer asks for
    them, so a reader that stops early realifies no row past its last.
    """
    for row in rows:
        for form in (row, _times_i(row)):
            yield {2 * u if u >= 0 else 2 * ~u + 1: x for u, x in form.items()}


def _gaussian_reduce(rows, width):
    """The reduced rows over Q(i) of packed Gaussian integer rows in ``width`` unknowns, and the rows read: ``(pivots, read)``.

    Key u of a row holds the real part of entry u and key ~u its imaginary
    part.  Rows are read lazily from any iterable, each kept in ``read``.
    Real rows go to ``integer_rref`` on ``width`` columns.  At the first row
    with an imaginary part, the reduced real rows, that row and then the
    unread rows, one at a time, are realified (``_realify``) into
    ``integer_rref`` on 2·``width`` columns.  That row space is closed
    under i, so its reduced form is the complex one realified: its pivot
    rows at even columns are the reduced rows over Q(i), and a rational
    reduced form complexifies to it.  Either reduction stops at the row
    that completes the rank; otherwise every row is read.  ``pivots`` is
    ``[(col, row)]`` by increasing col, each row packed, primitive,
    positive at its pivot and zero at every other pivot: the unique
    reduced form for the row space and the column order, times the
    pivot entry.
    """
    rows, read = iter(rows), []

    def taken(real):
        """The next rows, each kept in ``read``; with ``real``, up to the first with an imaginary part, which ends them."""
        for row in rows:
            read.append(row)
            if real and row and min(row) < 0:
                return
            yield row

    pivots = integer_rref(taken(True), width)
    if read and read[-1] and min(read[-1]) < 0:
        rest = chain([row for _, row in pivots], read[-1:], taken(False))
        pivots = [
            (c >> 1, {~(j >> 1) if j & 1 else j >> 1: x for j, x in row.items()})
            for c, row in integer_rref(_realify(rest), 2 * width)
            if not c & 1
        ]
    return pivots, read


def _gaussian_rref(rows, col_order):
    """Reduced row echelon form of Gaussian integer rows ``{col: (re, im)}``, yielded as ``(col, row, den)``.

    Pivots are taken only in ``col_order`` and come back in that order;
    each row ``{col: [re, im]}``, over its positive ``den``, is 1 at its
    pivot and 0 at every other pivot.  Column ``cols[p]`` (``col_order``,
    then the other columns in increasing order) is unknown p of
    ``_gaussian_reduce``.
    """
    cols = list(col_order)
    cols += sorted({c for row in rows for c in row} - set(cols))
    position = {c: p for p, c in enumerate(cols)}
    packed = ({k: x for c, (re, im) in row.items() for k, x in ((position[c], re), (~position[c], im)) if x} for row in rows)
    for p, row in _gaussian_reduce(packed, len(cols))[0]:
        if p < len(col_order):
            parts = {}
            for u, x in row.items():
                parts.setdefault(cols[u if u >= 0 else ~u], [0, 0])[u < 0] = x
            yield cols[p], parts, row[p]


def _gaussian_integers(entries):
    """``QI`` entries ``(key, x)`` as ``({key: (re, im)}, den)``, numerators over the lcm of the denominators; zeros dropped."""
    entries = [(key, x) for key, x in entries if x]
    den = lcm(*(x._d for _, x in entries))
    return {key: (x._a * (s := den // x._d), x._b * s) for key, x in entries}, den


def _gaussian_table(table):
    """``{key: {k: QI}}`` as ``({key: {k: (re, im)}}, den)``, in lowest terms; zeros and empty keys dropped."""
    return _numerator_table([(key, *_gaussian_integers(terms.items())) for key, terms in table.items()])


def _extend_numerators(base, entries):
    """The numerator table ``base`` = ({key: {k: (re, im)}}, den) plus ``entries`` = [(key, {k: (re, im)}, den)], over the lcm of the denominators.

    Zero terms of the entries are dropped, and ``base`` is rescaled only
    when that lcm exceeds its denominator; its entries are shared otherwise.
    """
    nums, bden = base
    den = lcm(bden, *(d for _, _, d in entries))
    s = den // bden
    out = dict(nums) if s == 1 else {key: {k: (re * s, im * s) for k, (re, im) in terms.items()} for key, terms in nums.items()}
    for key, terms, d in entries:
        f = den // d
        if terms := {k: (re * f, im * f) for k, (re, im) in terms.items() if re or im}:
            out[key] = terms
    return out, den


def _numerator_table(entries):
    """``entries`` = [(key, {k: (re, im)}, den)] as one table ``({key: {k: (re, im)}}, den)``.

    In lowest terms: den is the lcm of the terms' reduced denominators.
    Zero terms and empty keys are dropped.
    """
    nums, den = _extend_numerators(({}, 1), entries)
    g = gcd(den, *(x for terms in nums.values() for z in terms.values() for x in z))
    if g == 1:
        return nums, den
    return {key: {k: (re // g, im // g) for k, (re, im) in terms.items()} for key, terms in nums.items()}, den // g


def _sum_forms(terms):
    """Sum of num/den · form at coordinate t over ``terms`` = [(t, num, den, form)], forms {key: int}.

    Returns ``({t: form}, den)``: integer numerators over one common
    denominator, zeros dropped, in lowest terms (the gcd is taken once, on
    the finished sum).
    """
    den = lcm(*(d for _, _, d, _ in terms))
    out = {}
    for t, num, d, form in terms:
        f = num * (den // d)
        if (acc := out.get(t)) is None:
            out[t] = {v: f * x for v, x in form.items()}  # a new dict: no input form is aliased
        else:
            for v, x in form.items():
                acc[v] = acc.get(v, 0) + f * x
    return _lowest_terms(out, den)


def _over_one_denominator(fractions):
    """Fractions ``(num, den)`` as ``([num'], den')``: their numerators over the lcm of their denominators, each in lowest terms first."""
    fractions = [(num // g, d // g) for num, d in fractions for g in (gcd(num, d),)]
    den = lcm(*(d for _, d in fractions))
    return [num * (den // d) for num, d in fractions], den


def _lowest_terms(forms, den):
    """Forms ``{t: {key: int}}`` over ``den`` with zeros dropped, divided by one gcd; returns ``(forms, den)``."""
    out = {t: form for t, acc in forms.items() if (form := {v: x for v, x in acc.items() if x})}
    g = gcd(den, *chain.from_iterable(form.values() for form in out.values()))
    if g == 1:
        return out, den
    return {t: {v: x // g for v, x in form.items()} for t, form in out.items()}, den // g


def _gaussian_axpy(acc, u, terms):
    """acc += u·terms, in place, for Gaussian numerators ``acc`` = {t: [re, im]}, ``u`` = (re, im), ``terms`` = {t: (re, im)}."""
    ur, ui = u
    for t, (xr, xi) in terms.items():
        z = acc.setdefault(t, [0, 0])
        z[0] += ur * xr - ui * xi
        z[1] += ur * xi + ui * xr


def _gaussian_sum(terms):
    """The sum of u/d·vec over ``terms`` = [(u, d, vec)], u = (re, im), vec = {k: (re, im)}, as ``({k: (re, im)}, den)``.

    In lowest terms without zeros, so equal sums have equal results; zero is ``({}, 1)``.
    """
    den = lcm(*(d for _, d, _ in terms))
    acc = {}
    for (ur, ui), d, vec in terms:
        f = den // d
        _gaussian_axpy(acc, (ur * f, ui * f), vec)
    out = {k: (re, im) for k, (re, im) in acc.items() if re or im}
    g = gcd(den, *chain.from_iterable(out.values()))
    if g == 1:
        return out, den
    return {k: (re // g, im // g) for k, (re, im) in out.items()}, den // g


def _gaussian_apply(cols, w):
    """The sum of w[s]·cols[s] for ``w`` = {s: (re, im)} and ``cols`` = {s: {t: (re, im)}}, as {t: [re, im]}."""
    acc = {}
    for s, u in w.items():
        _gaussian_axpy(acc, u, cols.get(s, {}))
    return acc


def _int_eliminate(row, pivot_row, col):
    """A multiple of ``row`` minus a multiple of ``pivot_row``, zero at ``col``; int rows, without zeros."""
    p, x = pivot_row[col], row[col]
    g = gcd(p, x)
    p, x = p // g, x // g
    out = {j: p * y for j, y in row.items()} if p != 1 else dict(row)
    for j, y in pivot_row.items():
        z = out.get(j, 0) - x * y
        if z:
            out[j] = z
        else:
            del out[j]
    return out


def _primitive(row, col):
    """``row`` divided by the gcd of its entries, signed so that it is positive at ``col``."""
    g = gcd(*row.values())
    if row[col] < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


def integer_rref(rows, width):
    """Reduced row echelon form of integer rows ``{col: int}`` on the columns ``range(width)``, in increasing order.

    Fraction-free Gauss-Jordan: an incoming row is reduced by the pivot
    rows whose columns it touches (cross-multiplied, so it stays integral),
    takes its first nonzero column as its pivot, and that column is
    cleared from the earlier pivot rows; reading stops at ``width`` pivots,
    which no later row can change.  Returns ``[(col, row)]`` by increasing
    ``col``, each row without zeros, primitive (its entries have gcd 1),
    positive at its pivot and zero at every other pivot.  Divided by its
    pivot entry, each row is the row of the unique reduced echelon form for
    the column order ``range(width)``.
    """
    pivots = {}
    for row in rows:
        row = {j: x for j, x in row.items() if x}
        # pivot rows are 0 at each other's pivots, so one pass reduces fully
        for c in [c for c in row if c in pivots]:
            row = _int_eliminate(row, pivots[c], c)
        if not row:
            continue
        lead = min(row)
        row = _primitive(row, lead)
        for c, other in pivots.items():
            if lead in other:
                pivots[c] = _primitive(_int_eliminate(other, row, lead), c)
        pivots[lead] = row
        if len(pivots) == width:
            break
    return sorted(pivots.items())


def _integer_kernel(rows, width):
    """Kernel basis over Q(i) of the rows in ``width`` unknowns, in column form ``(columns, dens)``.

    The rows, the columns and every vector are packed Gaussian integers
    (``_times_i``): key u holds the real part of entry u and key ~u its
    imaginary part.  The rows are reduced by ``_gaussian_reduce``, which
    stops at the row that completes the rank: the kernel of all the rows
    lies inside that of any subset, so it is then zero.
    Vector v belongs to the v-th free column f of the reduced rows, by
    increasing f: the reduced kernel vector with 1 at f, times the lcm
    ``dens[v]`` of the pivot entries it divides by.
    ``columns`` maps each unknown to the nonzero packed entries of every
    vector there, so one ``_apply_kernel`` per row checks all vectors at
    once by substitution, in integers, on every row read.
    """
    pivots, read = _gaussian_reduce(rows, width)
    if len(pivots) == width:
        return {}, []  # full rank: no kernel vector to build or check
    pivot_cols = {c for c, _ in pivots}
    index = {f: v for v, f in enumerate(f for f in range(width) if f not in pivot_cols)}
    dens = [1] * len(index)
    for c, row in pivots:
        for f in {u if u >= 0 else ~u for u in row} & index.keys():
            dens[index[f]] = lcm(dens[index[f]], row[c])
    columns = {f: {v: dens[v]} for f, v in index.items()}
    for c, row in pivots:
        col = {}
        for u, x in row.items():
            if (v := index.get(u if u >= 0 else ~u)) is not None:
                col[v if u >= 0 else ~v] = -x * (dens[v] // row[c])
        if col:
            columns[c] = col
    if any(x for row in read for x in _apply_kernel(row, columns).values()):
        raise AssertionError("integer kernel produced a non-kernel vector")
    return columns, dens


def _times_i(form):
    """i·``form`` for a packed Gaussian form: re at key k and im at key ~k become -im at k and re at ~k."""
    return {~k: x if k >= 0 else -x for k, x in form.items()}


def _apply_kernel(form, columns):
    """form · v for every kernel vector v of ``columns`` (``_integer_kernel``) at once, packed, zeros kept."""
    out = {}
    for u, c in form.items():
        if u >= 0:
            for v, x in columns.get(u, {}).items():
                out[v] = out.get(v, 0) + c * x
        else:  # i·c times the column of unknown ~u
            for v, x in columns.get(~u, {}).items():
                out[~v] = out.get(~v, 0) + (c * x if v >= 0 else -c * x)
    return out


def _real_fixed_points(s):
    """Real basis of the fixed points of F(z) = S·conj(z), as ``[({p: (x_p, y_p)}, den, (p, part))]``.

    S is square, given as Gaussian numerator columns ``({q: {p: (re, im)}},
    den)``, one column per q in range(nb).  F is an involution, so its
    fixed space is the image of F + I, spanned by the 2nb real vectors
    (F + I)e_q and (F + I)(i·e_q) = i·(e_q - S e_q), times den.  One
    ``integer_rref`` of them with the real columns x_0..y_{nb-1} in
    reverse order pivots each basis vector at its last nonzero entry, its
    free column, part 0 (x) or 1 (y) of entry p; there it is ±den and
    every other vector is 0.  Each vector is signed so that its leading
    coefficient is positive and checked F·v = v, in integers.
    """
    cols, den = s
    nb = len(cols)
    last = 2 * nb - 1  # x_p is real column p and y_p column nb + p; u -> last - u reverses them
    rows = []
    for q, col in cols.items():
        fix, flip = {last - q: den}, {last - nb - q: den}
        for p, (re, im) in col.items():
            fix[last - p], fix[last - nb - p] = fix.get(last - p, 0) + re, im
            flip[last - p], flip[last - nb - p] = im, flip.get(last - nb - p, 0) - re
        rows += fix, flip
    basis = []
    for f, row in reversed(integer_rref(rows, 2 * nb)):
        sign = 1 if row[max(row)] > 0 else -1  # the leading coefficient, at the highest reversed column
        z = {q: (sign * row.get(last - q, 0), sign * row.get(last - nb - q, 0)) for q in sorted({(last - u) % nb for u in row})}
        fixed = _gaussian_apply(cols, {q: (x, -y) for q, (x, y) in z.items()})
        if {q: w for q, w in fixed.items() if w[0] or w[1]} != {q: [den * x, den * y] for q, (x, y) in z.items()}:
            raise AssertionError("real fixed-point basis vector is not fixed by z -> S·conj(z)")
        part, p = divmod(last - f, nb)
        basis.append((z, row[f], (p, part)))
    return basis


def _real_coordinates(w, den, columns, dens, free):
    """The real coordinates of w/den in the basis ``columns`` over ``dens``, as numerators {c: (x, 0)} over den, or None if it has none.

    All are Gaussian numerators {a: (re, im)}.  ``free`` = {a: [(c, part)]}
    names each vector's free column (``_real_fixed_points``), where it is
    ±1 and the others are 0, so the coordinate of c is ±w[a][part]/den;
    w must equal that real combination, checked in integers.  Zeros are
    dropped and c increases.
    """
    coords = {}
    for a, z in w.items():
        for c, part in free.get(a, ()):
            if x := z[part]:
                coords[c] = x if columns[c][a][part] > 0 else -x
    scale = lcm(*(dens[c] for c in coords))
    acc = {}
    for c, x in coords.items():
        _gaussian_axpy(acc, (x * (scale // dens[c]), 0), columns[c])
    if {a: z for a, z in acc.items() if z[0] or z[1]} != {a: [scale * re, scale * im] for a, (re, im) in w.items() if re or im}:
        return None
    return {c: (x, 0) for c, x in sorted(coords.items())}


def rank(m: Matrix) -> int:
    """The rank of ``m``: that of its transpose, whose rows are the stored numerator columns."""
    return sum(1 for _ in _gaussian_rref(list(m._numerators[0].values()), range(m.rows)))


class Echelon:
    """A row span's reduced echelon form, stored once as ``_gaussian_rref``'s numerators.

    ``reduced`` is a tuple of ``(col, {j: (re, im)}, den)``, one per pivot
    col, unique for ``col_order``; the reversed order prefers trailing
    pivots, which is how quotients pick the words that survive.  The
    package builds one only in ``build_symbol_algebra``; ``rows`` and
    ``reduce`` are views it never reads.
    """

    __slots__ = ("cols", "reduced", "free_cols")

    def __init__(self, rows, cols: int, col_order=None):
        rows = list(rows)
        if any(len(r) != cols for r in rows):
            raise ValueError("row width mismatch")
        sparse = [_gaussian_integers((j, as_qi(x)) for j, x in enumerate(r))[0] for r in rows]
        pivots = _gaussian_rref(sparse, range(cols) if col_order is None else col_order)
        self.reduced = tuple((c, {j: tuple(z) for j, z in row.items()}, den) for c, row, den in pivots)
        self.cols = cols
        self.free_cols = sorted(set(range(cols)).difference(c for c, _, _ in self.reduced))

    @property
    def rank(self) -> int:
        return len(self.reduced)

    @property
    def rows(self):
        """The reduced rows as dense ``QI`` lists: a view for output and tests."""
        return [[_qi(*row.get(j, (0, 0)), den) for j in range(self.cols)] for _, row, den in self.reduced]

    def reduce(self, vec):
        """Canonical representative of ``vec`` modulo the span: vec - Σ_c vec[c]·(row of pivot c), one sum in numerators."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        v, vden = _gaussian_integers((j, as_qi(x)) for j, x in enumerate(vec))
        out, den = _gaussian_sum([((1, 0), vden, v)] + [((-v[c][0], -v[c][1]), vden * den, row) for c, row, den in self.reduced if c in v])
        return [_qi(*out.get(j, (0, 0)), den) for j in range(self.cols)]
