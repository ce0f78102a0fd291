"""Independent oracles shared by the test suite.

These deliberately avoid the package's rewriting and series machinery:
Lyndon words are enumerated straight from the rotation-minimality
definition, and bracket expressions are expanded as iterated commutators
in a hand-rolled free associative algebra.
"""

from fractions import Fraction
from itertools import product


def brute_force_lyndon(length, alphabet=(1, 2)):
    """All words strictly smaller than every proper rotation."""
    out = []
    for w in product(alphabet, repeat=length):
        if all(w < w[i:] + w[:i] for i in range(1, length)):
            out.append(w)
    return out


def assoc_add(a, b, mult=1):
    out = dict(a)
    for w, c in b.items():
        nc = out.get(w, 0) + mult * c
        if nc:
            out[w] = nc
        else:
            out.pop(w, None)
    return out


def assoc_mul(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            nc = out.get(w, 0) + ca * cb
            if nc:
                out[w] = nc
            else:
                out.pop(w, None)
    return out


def expand_commutator(tree):
    """Iterated-commutator expansion of a nested bracket tree."""
    if isinstance(tree, int):
        return {(tree,): Fraction(1)}
    left = expand_commutator(tree[0])
    right = expand_commutator(tree[1])
    return assoc_add(assoc_mul(left, right), assoc_mul(right, left), -1)


# -- dense Gauss-Jordan over Q(i), entries as (re, im) pairs of Fractions --

C_ZERO = (Fraction(0), Fraction(0))
C_ONE = (Fraction(1), Fraction(0))


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def c_inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def dense_rref(rows, col_order):
    """Reduced row echelon form with pivots taken only in ``col_order``.

    Textbook Gauss-Jordan: for each column in turn, swap up the first
    remaining row that is nonzero there, scale it to 1 and clear the
    column in every other row.  Returns ``(pivot_cols, pivot_rows)``.
    """
    rows = [list(r) for r in rows]
    pivot_cols = []
    for c in col_order:
        r = len(pivot_cols)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != C_ZERO), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = c_inv(rows[r][c])
        rows[r] = [c_mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f != C_ZERO:
                rows[i] = [c_sub(x, c_mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
    return pivot_cols, rows[: len(pivot_cols)]


def dense_kernel(rows, cols):
    """Null space basis: one vector per free column, free coordinate 1."""
    pivot_cols, prows = dense_rref(rows, range(cols))
    basis = []
    for f in range(cols):
        if f in pivot_cols:
            continue
        v = [C_ZERO] * cols
        v[f] = C_ONE
        for c, row in zip(pivot_cols, prows):
            v[c] = c_sub(C_ZERO, row[f])
        basis.append(v)
    return basis


def dense_solve(rows, b):
    """Solution of rows·x = b with free coordinates 0, or None if inconsistent."""
    cols = len(rows[0])
    pivot_cols, prows = dense_rref([r + [x] for r, x in zip(rows, b)], range(cols + 1))
    if cols in pivot_cols:
        return None
    x = [C_ZERO] * cols
    for c, row in zip(pivot_cols, prows):
        x[c] = row[cols]
    return x


def dense_inverse(rows):
    """Inverse of a square matrix, or None if it is singular."""
    n = len(rows)
    ident = [[C_ONE if i == j else C_ZERO for j in range(n)] for i in range(n)]
    pivot_cols, prows = dense_rref([r + e for r, e in zip(rows, ident)], range(n))
    if len(pivot_cols) != n:
        return None
    return [row[n:] for row in prows]


def dense_reduce(pivot_cols, prows, v):
    """Canonical representative of ``v`` modulo the span of RREF rows."""
    v = list(v)
    for c, row in zip(pivot_cols, prows):
        f = v[c]
        if f != C_ZERO:
            v = [c_sub(x, c_mul(f, y)) for x, y in zip(v, row)]
    return v
