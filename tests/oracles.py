"""Independent oracles shared by the test suite.

These deliberately avoid the package's rewriting and series machinery:
Lyndon words are enumerated straight from the rotation-minimality
definition, bracket expressions are expanded as iterated commutators
in a hand-rolled free associative algebra, Lie brackets and the
Jacobi identity are evaluated from a dense array of structure constants,
prolongation components are solved for every full block map at once, and
the group law is summed bracket by bracket over the series on plain
exponent-tuple polynomials, and the origin values of Hall words are read
off vector fields bracketed in full.  None of them imports ``crprolong``;
``replaced_bracket``, the negative controls' corrupted copy of an
algebra, builds it through the algebra's own type.
"""

from fractions import Fraction
from itertools import product


def brute_force_lyndon(length, alphabet=(1, 2)):
    """All words strictly smaller than every proper rotation."""
    return [w for w in product(alphabet, repeat=length) if _is_lyndon(w)]


def _is_lyndon(w):
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


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


def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


# -- dense structure constants: table {(i, j): {k: (re, im)}} with i < j --


def dense_structure_constants(n, table):
    """``C[a][b][k]``, the e_k coordinate of [e_a, e_b], antisymmetry filled in."""
    C = [[[C_ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j), terms in table.items():
        for k, c in terms.items():
            C[i][j][k] = c
            C[j][i][k] = c_sub(C_ZERO, c)
    return C


def dense_bracket(C, u, v):
    """[u, v] of dense coordinate vectors: sum over all a, b of u_a v_b [e_a, e_b]."""
    n = len(C)
    out = [C_ZERO] * n
    for a in range(n):
        for b in range(n):
            uv = c_mul(u[a], v[b])
            if uv == C_ZERO:
                continue
            for k in range(n):
                out[k] = c_add(out[k], c_mul(uv, C[a][b][k]))
    return out


def jacobi_violations(n, table):
    """Every basis triple i < j < k with a nonzero Jacobiator, by a dense loop.

    Returns {(i, j, k): dense coordinates of
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]}.
    """
    C = dense_structure_constants(n, table)
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = [C_ZERO] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for t in range(n):
                        if C[a][b][t] == C_ZERO:
                            continue
                        for s in range(n):
                            acc[s] = c_add(acc[s], c_mul(C[a][b][t], C[t][c][s]))
                if any(x != C_ZERO for x in acc):
                    out[(i, j, k)] = acc
    return out


def replaced_bracket(algebra, i, j, terms):
    """Copy of a graded Lie algebra with [e_i, e_j] replaced by ``terms``.

    For negative controls.  The copy keeps J but not the conjugation, which
    the corrupted bracket would in general no longer respect.
    """
    if i >= j:
        raise ValueError("need i < j")
    table = {k: dict(v) for k, v in algebra.table.items()}
    table[(i, j)] = dict(terms)
    return type(algebra)(algebra.labels, algebra.degrees, table, None, algebra.J, algebra.scalar_tag)


# -- prolongation components as the kernel of the full-block Leibniz system --


def full_block_component(degrees, table, l, lower=(), J=None):
    """Basis of the degree-l component by the textbook full-block solve.

    m has basis 0..n-1 with negative ``degrees`` and structure constants
    ``table`` {(i, j): {k: (re, im)}}, i < j.  V_t is m_t for t <= -1 and,
    for 0 <= t < l, the component whose basis maps are ``lower[t]``, each
    {a: rows of the block m_a -> V_(a+t)}.  The unknown is every block
    m_a -> V_(a+l), the blocks by increasing a and each one row by row.
    The rows are the Leibniz identity D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j]
    on every pair i < j, plus DJ = JD on the degree -1 block when J is
    given.  Returns each ``dense_kernel`` vector as {a: rows of its block}.
    """
    n = len(degrees)
    C = dense_structure_constants(n, table)
    idx = {a: [i for i in range(n) if degrees[i] == a] for a in sorted(set(degrees))}
    loc = {i: p for block in idx.values() for p, i in enumerate(block)}

    def dim(t):
        return len(idx.get(t, [])) if t < 0 else len(lower[t]) if t < l else 0

    offset, cols = {}, 0
    for a, block in idx.items():
        offset[a] = cols
        cols += dim(a + l) * len(block)

    def var(a, t, s):
        return offset[a] + t * len(idx[a]) + s

    def act(sdeg, s, x):
        """Coordinates of [basis element s of V_sdeg, e_x] in V_(sdeg + deg x)."""
        if sdeg >= 0:
            return [row[loc[x]] for row in lower[sdeg][s][degrees[x]]]
        return [C[idx[sdeg][s]][x][k] for k in idx.get(sdeg + degrees[x], [])]

    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = degrees[i], degrees[j]
            eq = [[C_ZERO] * cols for _ in range(dim(a + b + l))]
            for t, row in enumerate(eq):
                for k in idx.get(a + b, []):
                    row[var(a + b, t, loc[k])] = c_add(row[var(a + b, t, loc[k])], C[i][j][k])
            for s in range(dim(a + l)):
                for t, c in enumerate(act(a + l, s, j)):
                    eq[t][var(a, s, loc[i])] = c_sub(eq[t][var(a, s, loc[i])], c)
            for s in range(dim(b + l)):
                for t, c in enumerate(act(b + l, s, i)):
                    eq[t][var(b, s, loc[j])] = c_add(eq[t][var(b, s, loc[j])], c)
            rows.extend(eq)
    if J is not None:
        nb = len(idx[-1])
        for p in range(nb):
            for q in range(nb):
                eq = [C_ZERO] * cols
                for s in range(nb):
                    eq[var(-1, p, s)] = c_add(eq[var(-1, p, s)], J[s][q])
                    eq[var(-1, s, q)] = c_sub(eq[var(-1, s, q)], J[p][s])
                rows.append(eq)
    return [
        {a: [[v[var(a, t, s)] for s in range(len(block))] for t in range(dim(a + l))] for a, block in idx.items()}
        for v in dense_kernel(rows, cols)
    ]


# -- the group law by textbook polynomial arithmetic --
# A polynomial is {exponent tuple: Fraction}; a vector is a list of them.


def standard_bracketing(word):
    """Bracket tree of a Lyndon word: w = uv with v its longest proper Lyndon suffix."""
    if len(word) == 1:
        return word[0]
    i = next(i for i in range(1, len(word)) if _is_lyndon(word[i:]))
    return (standard_bracketing(word[:i]), standard_bracketing(word[i:]))


def poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def vector_bracket(table, u, v):
    """[u, v] of polynomial vectors by real structure constants {(i, j): {k: c}}, i < j."""
    out = [{} for _ in u]
    for (i, j), terms in table.items():
        p = assoc_add(poly_mul(u[i], v[j]), poly_mul(u[j], v[i]), -1)
        for k, c in terms.items():
            out[k] = assoc_add(out[k], p, c)
    return out


def bch_law(series, table, avec, bvec):
    """Sum of coeff · (standard bracketing of the word at X = a, Y = b) over ``series``.

    ``series`` is a list of (Lyndon word over {1, 2}, coefficient); every
    bracket is evaluated afresh, with no memo.
    """

    def value(tree):
        if isinstance(tree, int):
            return avec if tree == 1 else bvec
        return vector_bracket(table, value(tree[0]), value(tree[1]))

    out = [{} for _ in avec]
    for word, coeff in series:
        out = [assoc_add(o, p, coeff) for o, p in zip(out, value(standard_bracketing(word)))]
    return out


def left_invariant_fields(law, n):
    """Field j, component c: the part of law[c] linear in b_j, as a polynomial in a.

    ``law`` is a law on 2n coordinates (a_1..a_n, b_1..b_n).
    """
    fields = []
    for j in range(n):
        b_j = tuple(int(t == j) for t in range(n))
        fields.append([{e[:n]: c for e, c in p.items() if e[n:] == b_j} for p in law])
    return fields


# -- origin values of Hall words by textbook vector-field brackets --
# A field is a list of polynomials {exponent tuple: coefficient}, one per
# coordinate; coefficients are any exact scalars with + and * (the tests
# pass Gaussian rationals) that also have .conj().


def poly_diff(p, j):
    """Partial derivative of a polynomial in variable j."""
    out = {}
    for e, c in p.items():
        if e[j]:
            out[e[:j] + (e[j] - 1,) + e[j + 1 :]] = c * e[j]
    return out


def conjugate_field(field, perm):
    """Formal conjugate: conjugate every coefficient, move variable i to perm[i]."""
    out = [None] * len(field)
    for i, p in enumerate(field):
        terms = {}
        for e, c in p.items():
            ne = [0] * len(e)
            for t, x in enumerate(e):
                ne[perm[t]] = x
            terms[tuple(ne)] = c.conj()
        out[perm[i]] = terms
    return out


def field_bracket(u, v):
    """[U, V]_i = sum over every j of U_j·d_jV_i - V_j·d_jU_i, each product formed in full."""
    out = []
    for i in range(len(u)):
        acc = {}
        for j in range(len(u)):
            acc = assoc_add(acc, poly_mul(u[j], poly_diff(v[i], j)))
            acc = assoc_add(acc, poly_mul(v[j], poly_diff(u[i], j)), -1)
        out.append(acc)
    return out


def hall_word_origin_values(field, perm, max_length):
    """{Lyndon word: origin value of its standard bracketing of (L, Lbar)}.

    L is ``field``, Lbar its conjugate under ``perm``.  The words come by
    length, then lexicographically, up to ``max_length``; every word is
    bracketed as a whole field, the longest ones included, and a missing
    constant term reads as 0.
    """
    gens = {1: field, 2: conjugate_field(field, perm)}
    memo = {}

    def value(tree):
        if isinstance(tree, int):
            return gens[tree]
        if tree not in memo:
            memo[tree] = field_bracket(value(tree[0]), value(tree[1]))
        return memo[tree]

    origin = (0,) * len(field)
    return {
        w: [p.get(origin, 0) for p in value(standard_bracketing(w))]
        for length in range(1, max_length + 1)
        for w in brute_force_lyndon(length)
    }
