"""Exact scalars and sparse exact linear algebra.

Scalars are Gaussian rationals (elements of Q(i)), each held as its one
integer normal form (a + b·i)/d with d > 0 and gcd(a, b, d) = 1, so
nothing in the library ever rounds.  Every solve goes through one
Gauss-Jordan kernel, ``integer_rref``: fraction-free elimination on sparse
rows ``{col: int}``, each row kept primitive, read one at a time and
stopped at full rank.  Every system over Q(i) reaches it through one
entry, ``_gaussian_reduce``, which reduces a stream of packed Gaussian
integer rows: real rows go to ``integer_rref`` as they come, and from the
first row with an imaginary part on, the rows are realified
(``_realify``) onto twice the columns, so a system of full rank is read
only up to the row that completes the rank, whatever the scalars.  Its
output is one row form, ``(col, row)`` pivots, each packed row over its
pivot entry ``row[col]``.  ``_integer_kernel`` (the prolongation's
kernels), the faithfulness test of the nondegeneracy and transitivity
gates, ``rank``, ``Echelon`` (which relabels its columns into
``col_order`` and back), the frame filtration and quotient, the
generating expressions of ``liealg`` and ``_real_fixed_points`` read it.
The real basis of a conjugation block, the fixed points of the
involution F(z) = S·conj(z), is read off one reduction of the image of
F + I (``_real_fixed_points``), and ``liealg.real_form`` reads
coordinates in it at the free columns, with no inverse
(``_real_coordinates``).  The reduced row echelon form for a fixed
column order is unique, so every basis, reducer and solution depends only
on the input and the column order, never on row order or on how the
elimination is scheduled.

This module owns the fraction-free form that ``prolong``, ``bch``,
``frames`` and ``liealg`` compute on: integer numerators over one positive
denominator, each Gaussian numerator packed into one dict, the real part
of entry k at key k and its imaginary part at key ~k, each stored only
where it is nonzero.  A real form is a plain ``{k: int}`` with no
negative key.  It is the one stored form: a structure-constant table
(``{(i, j): {k: re, ~k: im}}``), a ``Matrix`` (columns ``({col: {row:
re, ~row: im}}, den)``), a derivation map's column (``({t: re, ~t: im},
den)``), the reduced rows of ``Echelon`` and of the frame filtration,
and every solve's rows.  ``_gaussian_integers`` is the way in.  Only
this module reads or writes the key layout: ``_entries`` reads a form as
its parts (index, turn, x), the part x·i^turn of entry index,
``_table_entries`` reads a whole table so in one pass, ``_key`` writes
the key of a part, and ``_relabel``, ``_conj``, ``_transpose`` and
``_gaussian_primitive`` move, conjugate, transpose and normalize whole
forms.  ``_times_i`` is the one product by i, which ``_term``,
``_form_terms`` and ``_gaussian_axpy`` apply.  ``_sum_forms`` is the one
scaled sum of packed forms (one gcd, on the finished sum; a Gaussian
scale enters as its real part and its i part, ``_term``; a caller that
accumulates its own sum uses the two steps, ``_over_one_denominator``
and ``_lowest_terms``), ``_gaussian_axpy`` and ``_gaussian_apply`` the
accumulating products, ``_numerator_table`` the one table in lowest
terms (a ``_sum_forms``, so ``_lowest_terms`` is the one place a table
is divided by its gcd), and ``_qi_view`` the way back to ``QI`` for the
views, the only reader of key k together with key ~k.  No other module
takes a gcd or an lcm, or reads the slots of a ``QI``.
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
    """Matrix over Q(i), stored once as packed Gaussian numerator columns ``({col: {row: re, ~row: im}}, den)``.

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
        if any(not isinstance(i, int) or i < 0 for col in columns for i in col):
            raise ValueError("row index out of range")  # refused before packing, where a negative row would read as an imaginary part
        columns = [_gaussian_integers((i, as_qi(x)) for i, x in col.items()) for col in columns]
        return cls._from_numerators(rows, len(columns), [(j, *col) for j, col in enumerate(columns)])

    @classmethod
    def _from_numerators(cls, rows: int, cols: int, entries) -> "Matrix":
        """The ``rows`` x ``cols`` matrix whose column j is nums/den for ``entries`` = [(j, {row: re, ~row: im}, den)], brought to lowest terms."""
        self = object.__new__(cls)
        self.rows, self.cols = rows, cols
        self._numerators = _numerator_table(entries)
        if any(not 0 <= (i if i >= 0 else ~i) < rows for col in self._numerators[0].values() for i in col):
            raise ValueError("row index out of range")
        return self

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_numerators(n, n, [(j, {j: 1}, 1) for j in range(n)])

    @property
    def data(self):
        nums, den = self._numerators
        out = [[QI_ZERO] * self.cols for _ in range(self.rows)]
        for j, col in nums.items():
            for i, x in _qi_view(col, den).items():
                out[i][j] = x
        return tuple(map(tuple, out))

    def sparse_column(self, j: int) -> dict:
        """Column j as a new dict {row: QI} without zeros, rows increasing."""
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        nums, den = self._numerators
        return dict(sorted(_qi_view(nums.get(j, {}), den).items()))

    def __neg__(self) -> "Matrix":
        nums, den = self._numerators
        return Matrix._from_numerators(self.rows, self.cols, [(j, {i: -x for i, x in col.items()}, den) for j, col in nums.items()])

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


def _entries(form):
    """The packed Gaussian ``form`` as ``[(index, turn, x)]``: x·i^turn is the real (turn 0) or imaginary (turn 1) part of entry index.

    Every other module reads a packed form through it or
    ``_table_entries`` and writes a key through ``_key``, its inverse.
    """
    return [(u, 0, x) if u >= 0 else (~u, 1, x) for u, x in form.items()]


def _table_entries(items):
    """The parts of the packed forms ``items`` = [(key, form)] as ``(key, index, turn, x)``: ``_entries`` over a whole table, in one generator."""
    for key, form in items:
        for u, x in form.items():
            yield (key, u, 0, x) if u >= 0 else (key, ~u, 1, x)


def _transpose(cols, n):
    """Packed columns ``cols`` = {j: {i: re, ~i: im}}, i < n, as the n packed rows [{j: re, ~j: im}], zeros dropped; each entry keeps its parts."""
    rows = [{} for _ in range(n)]
    for j, col in cols.items():
        for u, x in col.items():
            if x:
                rows[u if u >= 0 else ~u][j if u >= 0 else ~j] = x
    return rows


def _key(index, turn):
    """The packed key of the real (turn 0) or imaginary (turn 1) part of entry ``index``: the inverse of ``_entries``."""
    return ~index if turn else index


def _relabel(form, labels):
    """The packed Gaussian ``form`` with index u moved to ``labels[u]``: key u to labels[u], key ~u to ~labels[u]."""
    return {labels[u] if u >= 0 else ~labels[~u]: x for u, x in form.items()}


def _conj(form):
    """The conjugate of a packed Gaussian form: its imaginary parts negated."""
    return {k: x if k >= 0 else -x for k, x in form.items()}


def _qi_view(form, den):
    """The packed Gaussian ``form`` over ``den`` as ``{k: QI}``, k in order of first appearance.

    The ``QI`` views of tables, matrices, maps and reduced rows read through
    it: it is the one reader of key k together with key ~k.
    """
    return {k: _qi(form.get(k, 0), form.get(~k, 0), den) for k in dict.fromkeys(k if k >= 0 else ~k for k in form)}


def _gaussian_integers(entries):
    """``QI`` entries ``(key, x)``, int keys, as ``({key: re, ~key: im}, den)``, numerators over the lcm of the denominators; zeros dropped."""
    entries = [(key, x) for key, x in entries if x]
    den = lcm(*(x._d for _, x in entries))
    return {k: y * (den // x._d) for key, x in entries for k, y in ((key, x._a), (~key, x._b)) if y}, den


def _gaussian_table(table):
    """``{key: {k: QI}}`` as ``({key: {k: re, ~k: im}}, den)``, in lowest terms; zeros and empty keys dropped."""
    return _numerator_table([(key, *_gaussian_integers(terms.items())) for key, terms in table.items()])


def _extend_numerators(base, entries):
    """The numerator table ``base`` = ({key: form}, den) plus ``entries`` = [(key, form, den)], over the lcm of the denominators.

    The forms are packed Gaussian integers.  Zero terms of the entries are
    dropped, and ``base`` is rescaled only when that lcm exceeds its
    denominator; its entries are shared otherwise.
    """
    nums, bden = base
    den = lcm(bden, *(d for _, _, d in entries))
    s = den // bden
    out = dict(nums) if s == 1 else {key: {k: x * s for k, x in terms.items()} for key, terms in nums.items()}
    for key, terms, d in entries:
        f = den // d
        if terms := {k: x * f for k, x in terms.items() if x}:
            out[key] = terms
    return out, den


def _numerator_table(entries):
    """``entries`` = [(key, form, den)], keys distinct, as one table ``({key: form}, den)`` of packed Gaussian forms.

    It is their ``_sum_forms``: in lowest terms, zero terms and empty keys dropped.
    """
    return _sum_forms([(key, 1, den, form) for key, form, den in entries])


def _sum_forms(terms):
    """Sum of num/den · form at coordinate t over ``terms`` = [(t, num, den, form)], int num, packed forms {key: int}.

    A Gaussian scale enters as two terms, its real part times the form and
    its imaginary part times i·form (``_term``, ``_form_terms``).  Returns
    ``({t: form}, den)``: integer numerators over one common denominator,
    zeros dropped, in lowest terms (the gcd is taken once, on the finished
    sum), so equal sums have equal results.
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


def _term(t, turn, x, den, form):
    """The ``_sum_forms`` term of x/den · i^turn · ``form`` at t, for a part x·i^turn of a packed form (``_entries``)."""
    return t, x, den, _times_i(form) if turn else form


def _form_terms(coeffs, x, den, form, labels=None):
    """The ``_sum_forms`` terms of x/den·c·i^turn·``form`` at ``labels[index]`` (at index without ``labels``), one per part (index, turn, c) of the packed ``coeffs``.

    That is one ``_term`` per part, with i·form made once for all the imaginary parts.
    """
    out, turned = [], None
    for u, c in coeffs.items():
        if u >= 0:
            out.append((u if labels is None else labels[u], x * c, den, form))
        else:
            turned = turned or _times_i(form)
            out.append((~u if labels is None else labels[~u], x * c, den, turned))
    return out


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


def _gaussian_axpy(acc, x, form, turn=0):
    """acc += x·i^turn·form, in place, for packed Gaussian forms ``acc`` and ``form``, an int x and turn 0, 1 or 2; zeros kept.

    A part x·i^turn of a packed form (``_entries``) gives turn 0 or 1, the
    product of two parts the sum of their turns.
    """
    x = -x if turn == 2 else x
    for k, y in (_times_i(form) if turn == 1 else form).items():
        acc[k] = acc.get(k, 0) + x * y


def _gaussian_apply(cols, w):
    """The sum of w[s]·cols[s] for the packed Gaussian ``w`` and ``cols`` = {s: form}, packed, zeros kept."""
    acc = {}
    for s, x in w.items():
        if s < 0:
            _gaussian_axpy(acc, x, cols.get(~s, {}), 1)
            continue
        for k, y in cols.get(s, {}).items():
            acc[k] = acc.get(k, 0) + x * y
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


def _gaussian_primitive(form):
    """The nonzero packed ``form`` turned by i onto a real part if it has none, then made primitive, positive at its least key."""
    if max(form) < 0:
        form = _times_i(form)
    return _primitive(form, min(form))


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
    vector there, so one ``_gaussian_apply`` per row checks all vectors at
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
    if any(x for row in read for x in _gaussian_apply(columns, row).values()):
        raise AssertionError("integer kernel produced a non-kernel vector")
    return columns, dens


def _times_i(form):
    """i·``form`` for a packed Gaussian form: re at key k and im at key ~k become -im at k and re at ~k."""
    return {~k: x if k >= 0 else -x for k, x in form.items()}


def _real_fixed_points(s):
    """Real basis of the fixed points of F(z) = S·conj(z), as ``[(z, den, (p, part))]``.

    S is square, given as packed Gaussian numerator columns ``({q: {p: re,
    ~p: im}}, den)``, one column per q in range(nb).  F is an involution,
    so its fixed space is the image of F + I, spanned by the 2nb real
    vectors (F + I)e_q and (F + I)(i·e_q) = i·(e_q - S e_q), times den.
    One ``_gaussian_reduce`` of these real rows, with the real columns
    x_0..y_{nb-1} in reverse order, pivots each basis vector at its last
    nonzero entry, its free column, part 0 (x) or 1 (y) of entry p; there
    it is ±den and every other vector is 0.  Each vector z = x + iy is
    packed ({p: x_p, ~p: y_p}), signed so that its leading coefficient is
    positive and checked F·z = z, in integers.
    """
    cols, den = s
    nb = len(cols)
    last = 2 * nb - 1  # x_p is real column p and y_p column nb + p; u -> last - u reverses them
    rows = []
    for q, col in cols.items():
        fix, flip = {last - q: den}, {last - nb - q: den}
        for p, turn, x in _entries(col):
            # entry p of S e_q is re + i·im: (F + I)e_q gains it, (F + I)(i·e_q) gains -i·(re + i·im) = im - i·re
            (a, b), y = ((last - nb - p, last - p), x) if turn else ((last - p, last - nb - p), -x)
            fix[a] = fix.get(a, 0) + x
            flip[b] = flip.get(b, 0) + y
        rows += fix, flip
    basis = []
    for f, row in reversed(_gaussian_reduce(rows, 2 * nb)[0]):
        sign = 1 if row[max(row)] > 0 else -1  # the leading coefficient, at the highest reversed column
        z = {r if r < nb else ~(r - nb): sign * x for u, x in row.items() for r in (last - u,)}
        if {k: y for k, y in _gaussian_apply(cols, _conj(z)).items() if y} != {k: den * x for k, x in z.items()}:
            raise AssertionError("real fixed-point basis vector is not fixed by z -> S·conj(z)")
        part, p = divmod(last - f, nb)
        basis.append((z, row[f], (p, part)))
    return basis


def _real_coordinates(w, den, columns, dens, free):
    """The real coordinates of w/den in the basis ``columns`` over ``dens``, as numerators {c: x} over den, or None if it has none.

    All are packed Gaussian numerators.  ``free`` = {key: [c]} names each
    vector's free column (``_real_fixed_points``) by its packed key, where
    the vector is ±1 and the others are 0, so the coordinate of c is
    ±w[key]/den; w must equal that real combination, checked in integers.
    Zeros are dropped and c increases.
    """
    w = {u: x for u, x in w.items() if x}
    coords = {}
    for u, x in w.items():
        for c in free.get(u, ()):
            coords[c] = x if columns[c][u] > 0 else -x
    scale = lcm(*(dens[c] for c in coords))
    acc = {}
    for c, x in coords.items():
        _gaussian_axpy(acc, x * (scale // dens[c]), columns[c])
    if {u: y for u, y in acc.items() if y} != {u: scale * x for u, x in w.items()}:
        return None
    return dict(sorted(coords.items()))


def rank(m: Matrix) -> int:
    """The rank of ``m``: that of its transpose, whose rows are the stored numerator columns."""
    return len(_gaussian_reduce(m._numerators[0].values(), m.rows)[0])


class Echelon:
    """A row span's reduced echelon form, stored once as ``_gaussian_reduce``'s pivots.

    ``reduced`` is a tuple of ``(col, {j: re, ~j: im})``, one per pivot col
    taken in ``col_order``, in that order; each packed row over its pivot
    entry ``row[col]`` is 1 at its pivot and 0 at every other pivot, the
    unique reduced form for ``col_order``.  Column ``col_order[p]`` is
    unknown p of the reduction and the unlisted columns follow in
    increasing order, so a prefix order pivots only in its columns.  The
    reversed order prefers trailing pivots, which is how quotients pick the
    words that survive.  The package builds one only in
    ``build_symbol_algebra``; ``rows`` and ``reduce`` are views it never
    reads.
    """

    __slots__ = ("cols", "reduced", "free_cols")

    def __init__(self, rows, cols: int, col_order=None):
        rows = list(rows)
        if any(len(r) != cols for r in rows):
            raise ValueError("row width mismatch")
        order = list(range(cols) if col_order is None else col_order)
        if len(set(order)) != len(order) or not all(0 <= c < cols for c in order):
            # refused before packing, where such a column would mislabel the unknowns
            raise ValueError(f"col_order must list distinct columns in range({cols})")
        labels = order + sorted(set(range(cols)).difference(order))
        position = {c: p for p, c in enumerate(labels)}
        sparse = [_gaussian_integers((position[j], as_qi(x)) for j, x in enumerate(r))[0] for r in rows]
        pivots, _ = _gaussian_reduce(sparse, cols)
        self.reduced = tuple((labels[p], _relabel(row, labels)) for p, row in pivots if p < len(order))
        self.cols = cols
        self.free_cols = sorted(set(range(cols)).difference(c for c, _ in self.reduced))

    @property
    def rank(self) -> int:
        return len(self.reduced)

    @property
    def rows(self):
        """The reduced rows as dense ``QI`` lists: a view for output and tests."""
        return [[view.get(j, QI_ZERO) for j in range(self.cols)] for c, row in self.reduced for view in (_qi_view(row, row[c]),)]

    def reduce(self, vec):
        """Canonical representative of ``vec`` modulo the span: vec - Σ_c vec[c]·(row of pivot c), one sum in numerators."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        v, vden = _gaussian_integers((j, as_qi(x)) for j, x in enumerate(vec))
        pivots = {c: (row, row[c]) for c, row in self.reduced}
        rows = [(turn, x, *pivots[c]) for c, turn, x in _entries(v) if c in pivots]
        out, den = _sum_forms([(0, 1, vden, v)] + [_term(0, turn, -x, vden * den, row) for turn, x, row, den in rows])
        view = _qi_view(out.get(0, {}), den)
        return [view.get(j, QI_ZERO) for j in range(self.cols)]
