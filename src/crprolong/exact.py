"""Exact scalars and sparse exact linear algebra.

Scalars are Gaussian rationals (elements of Q(i)) built on arbitrary
precision ``fractions.Fraction`` parts, so nothing in the library ever
rounds.  Every solve (kernel, rank, inverse, echelon reducer)
goes through one Gauss-Jordan kernel on sparse rows ``{col: QI}``: each
incoming row is reduced by the pivot rows whose columns it touches, takes
its first nonzero column in the given column order (default left to
right) as its pivot, is scaled to 1 there, and that column is cleared
from the earlier pivot rows.  The reduced row echelon form of a matrix
for a fixed column order is unique, so every basis, reducer and solution
depends only on the input and the column order, never on row order or
on how the elimination is scheduled; every downstream basis choice in
the package inherits its reproducibility from this.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "QI",
    "Matrix",
    "Echelon",
    "Inconsistent",
    "kernel_basis",
    "rank",
    "invert",
    "qi_from_json",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


# nothing in the package raises it; it stays public because
# perfbench/tracer.py reads it when it installs its wrappers
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
        # the numerators directly: Fraction.__bool__ is a Python-level call
        return self.re._numerator != 0 or self.im._numerator != 0

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


def qi_from_json(x, where: str) -> QI:
    """An entry {"re": "p/q", "im": "p/q"} of exact rational strings.

    Anything else, a JSON number included, raises ValueError naming
    ``where``, such as ``terms[0].re: must be an exact rational string``.
    """
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
            parts.append(Fraction(x[key]))
        except (ValueError, ZeroDivisionError):
            raise ValueError(bad) from None
    return QI(*parts)


class Matrix:
    """Dense matrix over Q(i); the solvers convert its rows to sparse form."""

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
        support = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for row in self.data:
            acc = QI_ZERO
            for j, x in support:
                a = row[j]
                if a:
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


def _axpy(row, f, other):
    """row -= f * other, in place, on sparse rows; drops entries that cancel."""
    for j, y in other.items():
        x = row.get(j)
        x = -(f * y) if x is None else x - f * y
        if x:
            row[j] = x
        else:
            del row[j]


def _rref(rows, col_order):
    """Reduced row echelon form of dense ``rows``; returns ``[(col, row)]``.

    Each row is kept sparse, as ``{col: QI}`` without zeros.  Pivots are
    taken only in ``col_order``, and the pairs come back in that order,
    each row normalized to 1 at its pivot and 0 at every other pivot.
    """
    position = {c: i for i, c in enumerate(col_order)}
    pivots = {}
    for dense in rows:
        row = {j: x for j, x in enumerate(dense) if x}
        # pivot rows are 0 at each other's pivots, so one pass reduces fully
        for c in [c for c in row if c in pivots]:
            _axpy(row, row[c], pivots[c])
        lead = min((c for c in row if c in position), key=position.__getitem__, default=None)
        if lead is None:
            continue
        piv = row[lead]
        if piv != QI_ONE:
            inv = QI_ONE / piv
            row = {j: x * inv for j, x in row.items()}
        for other in pivots.values():
            f = other.get(lead)
            if f:
                _axpy(other, f, row)
        pivots[lead] = row
    return [(c, pivots[c]) for c in col_order if c in pivots]


def kernel_basis(m: Matrix):
    """Basis of the null space of ``m``, as a list of column vectors.

    Deterministic: reduced echelon pivots, one basis vector per free
    column, ordered by free column index, with the free coordinate set
    to 1.  Each vector is verified by substitution before being returned.
    """
    pivots = _rref(m.data, range(m.cols))
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for f in range(m.cols):
        if f in pivot_cols:
            continue
        v = [QI_ZERO] * m.cols
        v[f] = QI_ONE
        for c, row in pivots:
            v[c] = -row.get(f, QI_ZERO)
        if any(m.matvec(v)):
            raise AssertionError("kernel_basis produced a non-kernel vector")
        basis.append(v)
    return basis


def rank(m: Matrix) -> int:
    return len(_rref(m.data, range(m.cols)))


def invert(m: Matrix) -> Matrix:
    """Inverse of a square ``m``, verified by m·m⁻¹ = I before being returned."""
    if m.rows != m.cols:
        raise ValueError("only square matrices are invertible")
    n = m.rows
    aug = [row + [QI_ONE if i == j else QI_ZERO for j in range(n)] for i, row in enumerate(m.data)]
    pivots = _rref(aug, range(n))
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    inv = Matrix([[row.get(n + j, QI_ZERO) for j in range(n)] for _, row in pivots])
    if m.mul(inv) != Matrix.identity(n):
        raise AssertionError("invert produced a non-inverse")
    return inv


class Echelon:
    """Echelonized row span with a canonical reduction map.

    ``col_order`` controls where pivots land; passing the reversed column
    order prefers trailing coordinates as pivots, which is how quotient
    subspaces pick which basis vectors survive.
    """

    __slots__ = ("cols", "rows", "pivots", "pivot_cols", "free_cols", "_sparse")

    def __init__(self, rows, cols: int, col_order=None):
        rows = list(rows)
        if any(len(r) != cols for r in rows):
            raise ValueError("row width mismatch")
        self._sparse = _rref(rows, range(cols) if col_order is None else col_order)
        self.cols = cols
        self.rows = [[row.get(j, QI_ZERO) for j in range(cols)] for _, row in self._sparse]
        self.pivots = [(i, c) for i, (c, _) in enumerate(self._sparse)]
        self.pivot_cols = {c: i for i, (c, _) in enumerate(self._sparse)}
        self.free_cols = [j for j in range(cols) if j not in self.pivot_cols]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        """Canonical representative of ``vec`` modulo the row span."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        v = [as_qi(x) for x in vec]
        for c, row in self._sparse:
            f = v[c]
            if f:
                for j, y in row.items():
                    v[j] = v[j] - f * y
        return v

    def contains(self, vec) -> bool:
        return all(not x for x in self.reduce(vec))
