"""Independent oracles shared by the test suite.

These deliberately avoid the package's rewriting and series machinery:
Lyndon words are enumerated straight from the rotation-minimality
definition, bracket expressions are expanded as iterated commutators
in a hand-rolled free associative algebra, the group-law series comes
from exp-log in ``Fraction`` arithmetic, Lie brackets, the Jacobi
identity and bracket morphisms are evaluated from dense arrays of
structure constants, prolongation components are solved for every full
block map at once,
real forms are built from dense fixed-point kernels, a dense inverse and
dense transport of every bracket, aut_CR in the real basis moves the
rotation by dense products with the embedding, the real coordinates of d
and r in a grade-0 component come from dense 2 x 2 products and a dense
reduction, the group law is summed bracket by
bracket over the series on plain exponent-tuple polynomials, and the
origin values of Hall words are read off vector fields bracketed in
full.  None of them imports ``crprolong``; ``replaced_bracket``, the
negative controls' corrupted copy of an algebra, builds it through the
algebra's own type.
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


# -- the universal group-law series by exp-log in Fraction arithmetic --


def bch_log_oracle(cap):
    """log(exp X · exp Y) through word length ``cap``: {word over {1, 2}: Fraction}, zeros dropped."""
    fact = [Fraction(1)]
    for i in range(1, cap + 1):
        fact.append(fact[-1] * i)
    prod = {}
    for i in range(cap + 1):
        for j in range(cap + 1 - i):
            w = (1,) * i + (2,) * j
            prod[w] = prod.get(w, Fraction(0)) + 1 / (fact[i] * fact[j])
    prod.pop((), None)
    log = {}
    power = {(): Fraction(1)}
    for n in range(1, cap + 1):
        new = {}
        for wa, ca in power.items():
            for wb, cb in prod.items():
                if len(wa) + len(wb) > cap:
                    continue
                w = wa + wb
                new[w] = new.get(w, Fraction(0)) + ca * cb
        power = {w: c for w, c in new.items() if c}
        for w, c in power.items():
            log[w] = log.get(w, Fraction(0)) + Fraction((-1) ** (n + 1), n) * c
    return {w: c for w, c in log.items() if c}


def bch_series_oracle(cap):
    """The Lyndon coordinates of :func:`bch_log_oracle` as (word, Fraction) pairs, by (length, word).

    Each length is solved against the iterated-commutator expansions of
    the standard bracketings of its Lyndon words, least word first; the
    expansion of a Lyndon word's bracketing starts with that word, so each
    step zeroes the least word left.  A residue raises.
    """
    log = bch_log_oracle(cap)
    series = []
    for length in range(1, cap + 1):
        part = {w: c for w, c in log.items() if len(w) == length}
        for w in brute_force_lyndon(length):
            c = part.get(w, 0)
            if c:
                series.append((w, c))
                part = assoc_add(part, expand_commutator(standard_bracketing(w)), -c)
        if part:
            raise AssertionError(f"log(exp X exp Y) is not a Lie element at length {length}")
    return tuple(series)


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


def dense_matvec(rows, v):
    """rows·v for dense rows of pairs, entry by entry."""
    out = []
    for row in rows:
        acc = C_ZERO
        for x, y in zip(row, v):
            acc = c_add(acc, c_mul(x, y))
        out.append(acc)
    return out


def dense_matmul(a, b, cols):
    """a·b for dense rows of pairs, ``b`` with ``cols`` columns."""
    b_cols = [[row[j] for row in b] for j in range(cols)]
    return [[dense_matvec([row], col)[0] for col in b_cols] for row in a]


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


def bracket_mismatches(n, src_table, dst_table, P):
    """Every basis pair i < j of the source where P[e_i, e_j] != [P e_i, P e_j], by a dense loop.

    ``P`` is given by its dense rows of pairs: one row per target basis
    vector, n columns.  Returns the pairs in (i, j) order.
    """
    C = dense_structure_constants(n, src_table)
    D = dense_structure_constants(len(P), dst_table)
    cols = [[row[j] for row in P] for j in range(n)]
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if dense_matvec(P, C[i][j]) != dense_bracket(D, cols[i], cols[j])
    ]


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


# -- the real form by dense fixed points, dense inverse and dense transport --


def dense_fixed_basis(S, block):
    """Real basis of the fixed points of z -> S·conj(z) on the indices ``block``, which S preserves.

    ``dense_kernel`` of the rows [P - I | Q] and [Q | -(P + I)] (S = P + iQ)
    in the unknowns z = x + iy, each vector negated when its first nonzero
    entry is negative; returns the vectors z as lists of (re, im) pairs.
    """
    zero = Fraction(0)
    rows = []
    for a in block:
        rows.append([(S[a][b][0] - (a == b), zero) for b in block] + [(S[a][b][1], zero) for b in block])
        rows.append([(S[a][b][1], zero) for b in block] + [(-S[a][b][0] - (a == b), zero) for b in block])
    out = []
    for v in dense_kernel(rows, 2 * len(block)):
        if next(x for x in v if x != C_ZERO)[0] < 0:
            v = [c_sub(C_ZERO, x) for x in v]
        out.append([(v[p][0], v[len(block) + p][0]) for p in range(len(block))])
    return out


def dense_real_form(degrees, table, S, J=None):
    """Real form of a complex algebra under its conjugation v -> S·conj(v), by textbook dense algebra.

    ``table`` is {(i, j): {k: (re, im)}} with i < j; ``S`` and ``J`` (on
    the degree -1 block, or None) are dense matrices of (re, im) pairs.
    Per degree, in order of first appearance, the real basis is the
    ``dense_kernel`` of the rows [P - I | Q] and [Q | -(P + I)] (S = P + iQ)
    in the unknowns z = x + iy, each vector negated when its first nonzero
    entry is negative.  E has those vectors as columns and F is
    ``dense_inverse(E)``.  The real structure constants are F·[E e_i, E e_j]
    and the real J is F·J·E on degree -1, each coordinate computed with
    dense vectors; an imaginary coordinate raises ValueError.  Returns
    ``(table, J, E, F)``: {(i, j): {k: Fraction}} without zeros, the real J
    as dense rows of Fractions (None without J), and E and F as dense
    rows of pairs.
    """
    n = len(degrees)
    E = [[C_ZERO] * n for _ in range(n)]
    real_degrees = []
    for d in dict.fromkeys(degrees):
        block = [i for i in range(n) if degrees[i] == d]
        for v in dense_fixed_basis(S, block):
            c = len(real_degrees)
            for p, a in enumerate(block):
                E[a][c] = v[p]
            real_degrees.append(d)
    F = dense_inverse(E)
    C = dense_structure_constants(n, table)

    def real_coords(w):
        out = [C_ZERO] * n
        for s in range(n):
            if w[s] != C_ZERO:
                out = [c_add(o, c_mul(f[s], w[s])) for o, f in zip(out, F)]
        if any(x[1] for x in out):
            raise ValueError("imaginary real-basis coordinate")
        return [x[0] for x in out]

    column = [[E[r][c] for r in range(n)] for c in range(n)]
    support = [[a for a, x in enumerate(col) if x != C_ZERO] for col in column]
    real_table = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = [C_ZERO] * n
            for a in support[i]:
                for b in support[j]:
                    uv = c_mul(column[i][a], column[j][b])
                    w = [c_add(x, c_mul(uv, y)) for x, y in zip(w, C[a][b])]
            entry = {k: x for k, x in enumerate(real_coords(w)) if x}
            if entry:
                real_table[(i, j)] = entry
    real_j = None
    if J is not None:
        ones = [i for i in range(n) if degrees[i] == -1]
        real_ones = [c for c in range(n) if real_degrees[c] == -1]
        images = []
        for c in real_ones:
            w = [C_ZERO] * n
            for p, a in enumerate(ones):
                for q, b in enumerate(ones):
                    w[a] = c_add(w[a], c_mul(J[p][q], column[c][b]))
            coords = real_coords(w)
            images.append([coords[t] for t in real_ones])
        real_j = [[images[c][t] for c in range(len(real_ones))] for t in range(len(real_ones))]
    return real_table, real_j, E, F


# -- the real coordinates of d and r in a complex grade-0 component, by dense 2 x 2 products --


def real_grade0_coordinates(S1, J, blocks):
    """Coordinates of d and r in the real basis of a complex grade-0 component.

    ``S1`` and ``J`` are the degree -1 blocks of the conjugation and of J,
    and ``blocks`` the degree -1 blocks of the component's basis maps, all
    dense 2 x 2 rows of (re, im) pairs.  E has the ``dense_fixed_basis``
    vectors as columns, F = ``dense_inverse(E)`` and J_R = F·J·E, which
    must be real.  Each block B moves to F·B·E, whose row-major entries are
    one row of a ``dense_rref`` with pivots taken from the last entry back;
    the reduced rows must be real and as many as the blocks.  d has the
    block -I and r the block -J_R; the coordinates of each are its entries
    at the pivots, by increasing pivot, or None when they do not recombine
    to the block.  A failed requirement raises ValueError.  Returns
    [coordinates of d, coordinates of r], each a list of Fractions or None.
    """
    E = [list(row) for row in zip(*dense_fixed_basis(S1, [0, 1]))]
    F = dense_inverse(E)

    def moved(B):
        return dense_matmul(dense_matmul(F, B, 2), E, 2)

    j_real = moved(J)
    if any(x[1] for row in j_real for x in row):
        raise ValueError("J does not restrict to the real form")
    pivots, rows = dense_rref([[x for row in moved(B) for x in row] for B in blocks], range(3, -1, -1))
    if len(pivots) != len(blocks) or any(x[1] for row in rows for x in row):
        raise ValueError("grade-0 component has no real form of the same dimension")
    basis = sorted(zip(pivots, rows))
    out = []
    for block in ([[(-1, 0), C_ZERO], [C_ZERO, (-1, 0)]], [[c_sub(C_ZERO, x) for x in row] for row in j_real]):
        flat = [x for row in block for x in row]
        coords = [flat[c] for c, _ in basis]
        rest = dense_reduce([c for c, _ in basis], [row for _, row in basis], flat)
        out.append(None if any(x != C_ZERO for x in rest) else [Fraction(x[0]) for x in coords])
    return out


# -- aut_CR in the real basis: the real form plus d, and r moved by dense products --


def real_basis_aut_table(degrees, table, E, F, weights=None):
    """Structure constants of aut_CR in the real basis of the symbol's real form.

    ``table`` is the real form's {(i, j): {k: Fraction}} with i < j and
    ``degrees`` its degrees; ``E`` is the embedding and ``F`` its inverse,
    ``dense_inverse(E)``, as dense rows of (re, im) pairs (``real_form``
    itself forms no inverse).  The grading element d is
    index n, with [e_i, d] = -deg(e_i)·e_i.  ``weights`` (None when there
    is no rotation) are the n - nt of the complex basis words: r is index
    n + 1, and its action is the bidegree diagonal D = -i·diag(weights)
    moved to the real basis by the dense product F·D·E, so that
    [e_i, r] = -(F·D·E)e_i.  An imaginary entry raises ValueError.
    Returns {(i, j): {k: Fraction}} without zeros.
    """
    n = len(degrees)
    out = {ij: dict(terms) for ij, terms in table.items()}
    for i in range(n):
        out[(i, n)] = {i: Fraction(-degrees[i])}
    if weights is None:
        return out
    for i in range(n):
        image = [C_ZERO] * n
        for a in range(n):
            de = c_mul((Fraction(0), Fraction(-weights[a])), E[a][i])
            if de != C_ZERO:
                image = [c_add(x, c_mul(F[c][a], de)) for c, x in enumerate(image)]
        if any(x[1] for x in image):
            raise ValueError("rotation action is not real in the real basis")
        entry = {c: -x[0] for c, x in enumerate(image) if x[0]}
        if entry:
            out[(i, n + 1)] = entry
    return out


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
