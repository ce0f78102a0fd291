"""Exact scalars and dense exact linear algebra.

Scalars are Gaussian rationals (elements of Q(i)) built on arbitrary
precision ``fractions.Fraction`` parts, so nothing in the library ever
rounds.  The matrix routines implement deterministic Gauss-Jordan
elimination: pivots are chosen by scanning columns left to right and,
within a column, rows top to bottom.  Every downstream basis choice in
the package inherits its reproducibility from this rule.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "QI",
    "Matrix",
    "Echelon",
    "Inconsistent",
    "kernel_basis",
    "solve_linear",
    "rank",
    "invert",
    "frac_to_str",
    "frac_from_str",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


class Inconsistent(ValueError):
    """Linear system has no solution."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class QI:
    """A Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "QI":
        self = object.__new__(cls)
        self.re = re
        self.im = im
        return self

    def conj(self) -> "QI":
        return QI._raw(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __neg__(self) -> "QI":
        return QI._raw(-self.re, -self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QI._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QI._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QI._raw(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # real-by-real fast path: realified algebras live entirely here
        if not self.im and not other.im:
            return QI._raw(self.re * other.re, _F0)
        a, b, c, d = self.re, self.im, other.re, other.im
        return QI._raw(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero Gaussian rational")
        if not self.im and not other.im:
            return QI._raw(self.re / other.re, _F0)
        a, b, c, d = self.re, self.im, other.re, other.im
        n = c * c + d * d
        return QI._raw((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __repr__(self) -> str:
        return f"QI({self.re!s}, {self.im!s})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imtxt = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{imtxt}"


def _coerce(x):
    if isinstance(x, QI):
        return x
    if isinstance(x, (int, Fraction)):
        return QI._raw(_frac(x), _F0)
    return NotImplemented


QI_ZERO = QI._raw(_F0, _F0)
QI_ONE = QI._raw(_F1, _F0)
QI_I = QI._raw(_F0, _F1)


def as_qi(x) -> QI:
    q = _coerce(x)
    if q is NotImplemented:
        raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")
    return q


def frac_to_str(f: Fraction) -> str:
    return str(f)


def frac_from_str(s: str) -> Fraction:
    return Fraction(s)


class Matrix:
    """Dense matrix over Q(i)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [[as_qi(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged matrix")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[QI_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[QI_ONE if i == j else QI_ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns) -> "Matrix":
        columns = [list(c) for c in columns]
        if not columns:
            return cls.zeros(0, 0)
        n = len(columns[0])
        return cls([[columns[j][i] for j in range(len(columns))] for i in range(n)])

    def column(self, j: int):
        return [self.data[i][j] for i in range(self.rows)]

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.data:
            acc = QI_ZERO
            for a, x in zip(row, v):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return out

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = Matrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            ri = self.data[i]
            oi = out.data[i]
            for k in range(self.cols):
                a = ri[k]
                if not a:
                    continue
                rk = other.data[k]
                for j in range(other.cols):
                    if rk[j]:
                        oi[j] = oi[j] + a * rk[j]
        return out

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def copy_rows(self):
        return [list(row) for row in self.data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(self.data[i][j] == other.data[i][j] for i in range(self.rows) for j in range(self.cols))
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"


def _rref(rows, cols, col_order=None):
    """In-place reduced row echelon form; returns the pivot list [(row, col)].

    Pivot choice: columns in ``col_order`` (default left to right), first
    nonzero row from the top.  Result rows are normalized to pivot 1 with
    zeros above and below.
    """
    if col_order is None:
        col_order = range(cols)
    pivots = []
    r = 0
    nrows = len(rows)
    for c in col_order:
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != QI_ONE:
            inv = QI_ONE / piv
            rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [ri[j] - f * rr[j] for j in range(cols)]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots


def _dedupe_rows(rows):
    seen = set()
    out = []
    for row in rows:
        if all(not x for x in row):
            continue
        key = tuple((x.re, x.im) for x in row)
        if key in seen:
            continue
        seen.add(key)
        out.append(list(row))
    return out


def kernel_basis(m: Matrix):
    """Basis of the null space of ``m``, as a list of column vectors.

    Deterministic: reduced echelon pivots, one basis vector per free
    column, ordered by free column index, with the free coordinate set
    to 1.
    """
    rows = _dedupe_rows(m.copy_rows())
    pivots = _rref(rows, m.cols)
    pivot_cols = {c: r for r, c in pivots}
    free_cols = [j for j in range(m.cols) if j not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [QI_ZERO] * m.cols
        v[f] = QI_ONE
        for c, r in pivot_cols.items():
            v[c] = -rows[r][f]
        basis.append(v)
    return basis


def rank(m: Matrix) -> int:
    rows = _dedupe_rows(m.copy_rows())
    return len(_rref(rows, m.cols))


def solve_linear(m: Matrix, b):
    """One exact solution of m·x = b with free variables set to 0.

    Raises :class:`Inconsistent` when no solution exists.  The result is
    verified by substitution before being returned.
    """
    if len(b) != m.rows:
        raise ValueError("dimension mismatch")
    aug = [list(row) + [as_qi(x)] for row, x in zip(m.data, b)]
    pivots = _rref(aug, m.cols + 1)
    x = [QI_ZERO] * m.cols
    for r, c in pivots:
        if c == m.cols:
            raise Inconsistent("no solution")
        x[c] = aug[r][m.cols]
    check = m.matvec(x)
    if any(check[i] != as_qi(b[i]) for i in range(m.rows)):
        raise AssertionError("solve_linear produced a non-solution")
    return x


def invert(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("only square matrices are invertible")
    n = m.rows
    aug = [list(row) + [QI_ONE if i == j else QI_ZERO for j in range(n)] for i, row in enumerate(m.data)]
    pivots = _rref(aug, 2 * n, col_order=range(n))
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return Matrix([row[n:] for row in aug])


class Echelon:
    """Echelonized row span with a canonical reduction map.

    ``col_order`` controls where pivots land; passing the reversed column
    order prefers trailing coordinates as pivots, which is how quotient
    subspaces pick which basis vectors survive.
    """

    __slots__ = ("cols", "rows", "pivots", "pivot_cols", "free_cols")

    def __init__(self, rows, cols: int, col_order=None):
        work = _dedupe_rows([list(r) for r in rows])
        for r in work:
            if len(r) != cols:
                raise ValueError("row width mismatch")
        pivots = _rref(work, cols, col_order=col_order)
        self.cols = cols
        self.rows = [work[r] for r, _ in pivots]
        self.pivots = [(i, c) for i, (_, c) in enumerate(pivots)]
        self.pivot_cols = {c: i for i, (_, c) in enumerate(pivots)}
        self.free_cols = [j for j in range(cols) if j not in self.pivot_cols]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        """Canonical representative of ``vec`` modulo the row span."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        v = [as_qi(x) for x in vec]
        for c, r in self.pivot_cols.items():
            f = v[c]
            if f:
                row = self.rows[r]
                v = [v[j] - f * row[j] for j in range(self.cols)]
        return v

    def contains(self, vec) -> bool:
        return all(not x for x in self.reduce(vec))
