import ast
import json
import math
import random
from fractions import Fraction
from operator import setitem
from pathlib import Path

import pytest
from oracles import C_ONE, C_ZERO, c_add, c_mul, c_sub, dense_fixed_basis, dense_inverse, dense_kernel, dense_matmul, dense_matvec, dense_reduce, dense_rref

from crprolong import exact
from crprolong.exact import QI, Echelon, Matrix, _gaussian_integers, _qi, _sum_forms, integer_rref, qi_from_json, rank
from crprolong.liealg import _matrix_from_json, _matrix_to_json

I = QI(0, 1)


def _apply(m, v):
    """m·v for the dense vector ``v``, as a dense list: one ``mul`` by a one-column matrix."""
    return [row[0] for row in m.mul(Matrix.sparse(len(v), [dict(enumerate(v))])).data]


def test_field_arithmetic():
    a = QI(Fraction(3, 2), Fraction(-1, 3))
    b = QI(2, 5)
    assert a + b - b == a
    assert a * b == b * a
    assert a * (b + I) == a * b + a * I


@pytest.mark.parametrize(
    "value,truth",
    [
        (QI(), False),
        (QI(0, 0), False),
        (QI("0"), False),
        (QI("0", "0/7"), False),
        (QI(Fraction(0, 5), Fraction(0, 5)), False),
        (QI(Fraction(0), Fraction(0)), False),
        (-QI(0), False),
        (QI(Fraction(2, 3), Fraction(-1, 4)) - QI(Fraction(4, 6), Fraction(-2, 8)), False),
        (QI(1, 1) * QI(0, 0), False),
        (QI(1), True),
        (QI(0, 1), True),
        (QI(Fraction(-1, 5)), True),
        (QI(0, Fraction(3, 7)), True),
        (QI("-2/3", "5"), True),
        (QI(Fraction(0), Fraction(-1, 9)), True),
        (-QI(0, 2), True),
        (QI(1, 1) - QI(1, 0), True),
    ],
)
def test_truthiness_is_nonzero(value, truth):
    assert bool(value) is truth
    assert (value != 0) is truth


def test_conjugation_involution_and_norm():
    rng = random.Random(7)
    for _ in range(50):
        q = QI(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        r = QI(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert q.conj().conj() == q
        assert (q + r).conj() == q.conj() + r.conj()
        assert (q * r).conj() == q.conj() * r.conj()
        norm = q * q.conj()
        assert norm.im == 0
        assert norm.re >= 0


def _kernel(m):
    """The reduced kernel basis of ``m``, read off its ``Echelon``.

    One vector per free column f, by increasing f: 1 at f, minus the pivot
    rows' entries at f at their pivots, and 0 at the other free columns.
    """
    e = Echelon(m.data, m.cols)
    assert all(row[c] > 0 for c, row in e.reduced)
    basis = []
    for f in e.free_cols:
        v = [QI(0)] * m.cols
        v[f] = QI(1)
        for i, c in enumerate([c for c, _ in e.reduced]):
            v[c] = -e.rows[i][f]
        basis.append(v)
    return basis


def test_kernel_zero_map():
    assert _kernel(Matrix([[0]])) == [[QI(1)]]


def test_kernel_injective_map():
    assert _kernel(Matrix.identity(3)) == []


def test_kernel_gaussian_example():
    # hand row-reduction: x1 + i·x2 = 0, so the kernel is spanned by (-i, 1)
    m = Matrix([[1, I], [-I, 1]])
    basis = _kernel(m)
    assert len(basis) == 1
    assert basis[0] == [-I, QI(1)]
    assert all(not x for x in _apply(m, basis[0]))


def test_integer_kernel_runs_the_substitution_check(monkeypatch):
    """A pivot row corrupted at a free column gives a non-kernel vector, which the integer check refuses."""
    original = exact.integer_rref

    def corrupted(rows, width):
        pivots = original(rows, width)
        col, row = pivots[0]
        free = min(set(range(4)) - {c for c, _ in pivots})
        pivots[0] = (col, {**row, free: row.get(free, 0) + 1})
        return pivots

    # [[1, i], [-i, 1]] realified: the complex kernel (-i, 1) is two real vectors
    rows = list(exact._realify([{0: 1, ~1: 1}, {~0: -1, 1: 1}]))
    assert len(exact._integer_kernel(rows, 4)[1]) == 2
    monkeypatch.setattr(exact, "integer_rref", corrupted)
    with pytest.raises(AssertionError, match="non-kernel vector"):
        exact._integer_kernel(rows, 4)


def _solutions(m, b):
    """Solutions of m·x = b read off the kernel of [m | -b]: the vectors ending in 1.

    The kernel has one such vector when b is in the column span (the last
    column is then free, and the other free coordinates are 0), none otherwise.
    """
    aug = Matrix([[*row, -x] for row, x in zip(m.data, b)])
    return [v[:-1] for v in _kernel(aug) if v[-1] == 1]


def test_solve_identity():
    b = [QI(2), QI(0, 3)]
    assert _solutions(Matrix.identity(2), b) == [b]


def test_solve_underdetermined_convention():
    assert _solutions(Matrix([[1, 1]]), [QI(2)]) == [[QI(2), QI(0)]]


def test_solve_inconsistent():
    assert _solutions(Matrix([[1], [1]]), [QI(1), QI(2)]) == []
    assert rank(Matrix([[1], [1]])) < rank(Matrix([[1, 1], [1, 2]]))


def _random_matrix(rng, rows, cols):
    def q():
        return QI(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )

    return Matrix([[q() for _ in range(cols)] for _ in range(rows)])


def test_rank_nullity_property():
    rng = random.Random(20240811)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        kern = _kernel(m)
        assert rank(m) + len(kern) == cols
        for v in kern:
            assert all(not x for x in _apply(m, v))


def test_solve_random_consistent_systems():
    rng = random.Random(99)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        x = [QI(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(cols)]
        b = _apply(m, x)
        [y] = _solutions(m, b)
        assert _apply(m, y) == b


def test_echelon_reduction_right_preference():
    # span{(1,0,1), (0,1,0)} with trailing pivots: e3 reduces to -e1
    e = Echelon([[QI(1), QI(0), QI(1)], [QI(0), QI(1), QI(0)]], 3, col_order=range(2, -1, -1))
    assert e.rank == 2
    assert e.free_cols == [0]
    assert e.reduce([QI(0), QI(0), QI(1)]) == [QI(-1), QI(0), QI(0)]
    # a vector of the span reduces to zero, one outside it does not
    assert e.reduce([QI(1), QI(0), QI(1)]) == [QI(0)] * 3
    assert e.reduce([QI(1), QI(0), QI(0)]) == [QI(1), QI(0), QI(0)]


@pytest.mark.parametrize("col_order", [[-1, 0], [5, 0], [0, 0]], ids=["negative", "past-the-end", "repeated"])
def test_echelon_refuses_a_bad_column_order(col_order):
    """A column outside range(cols), or one listed twice, is refused before packing; each once read this rank-2 matrix as rank 1."""
    rows = [[QI(1), QI(2)], [QI(0), QI(1)]]
    with pytest.raises(ValueError) as info:
        Echelon(rows, 2, col_order=col_order)
    assert str(info.value) == "col_order must list distinct columns in range(2)"
    assert Echelon(rows, 2, col_order=[1, 0]).rank == 2


def test_fraction_string_round_trip():
    for s in ("0", "5", "-3/2", "22/7"):
        q = qi_from_json({"re": s, "im": s}, "x")
        assert (str(q.re), str(q.im)) == (s, s)
    assert qi_from_json({"re": "+4/6", "im": "-007"}, "x") == QI(Fraction(2, 3), -7)


@pytest.mark.parametrize("s", ["1e400", "1E3", "1.5", ".5", "1/2.0", " 1", "1 ", "1_000", "inf", "nan", "0x10", "1/-2", "\u0661", ""])
def test_qi_from_json_refuses_other_forms(s):
    with pytest.raises(ValueError, match=r"^x\.re: must be an exact rational string, got "):
        qi_from_json({"re": s, "im": "0"}, "x")


def test_qi_from_json_bounds_the_digits_before_parsing():
    most = "9" * 4300
    assert qi_from_json({"re": most, "im": f"-1/{most}"}, "x") == QI(int(most), Fraction(-1, int(most)))
    for part in ("1" * 4301, "-" + "1" * 4301, f"1/{'0' * 4300}7"):
        with pytest.raises(ValueError) as info:
            qi_from_json({"re": "0", "im": part}, "terms[3]")
        # the message names the field and the limit, not the value
        assert str(info.value) == "terms[3].im: more than 4300 digits in a numerator or denominator"


# -- the sparse kernel against the dense oracle in tests/oracles.py ----------

FIELDS = pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "gaussian"])


def _oracle_entry(rng, complex_entries, density=1.0):
    if rng.random() >= density:
        return C_ZERO
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if complex_entries else Fraction(0)
    return (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), im)


def _oracle_combination(rng, complex_entries, vectors):
    out = [C_ZERO] * len(vectors[0])
    for vec in vectors:
        f = _oracle_entry(rng, complex_entries)
        out = [(a[0] + p[0], a[1] + p[1]) for a, p in zip(out, (c_mul(f, x) for x in vec))]
    return out


def _oracle_matrix(rng, complex_entries, rows=None, cols=None):
    """Seeded sparse-to-dense matrix of pairs, with zero, duplicate and dependent rows."""
    rows = rows or rng.randint(1, 12)
    cols = cols or rng.randint(1, 16)
    density = rng.choice((0.1, 0.25, 0.5, 1.0))
    data = [[_oracle_entry(rng, complex_entries, density) for _ in range(cols)] for _ in range(rows)]
    if rows > 2:
        data[rng.randrange(rows)] = [C_ZERO] * cols
        data[rng.randrange(rows)] = list(data[rng.randrange(rows)])
        data[rng.randrange(rows)] = _oracle_combination(rng, complex_entries, rng.sample(data, 2))
    return data


def _qis(vec):
    return [QI(re, im) for re, im in vec]


def _pairs(vec):
    return [(x.re, x.im) for x in vec]


@FIELDS
def test_kernel_and_rank_match_dense_oracle(complex_entries):
    rng = random.Random(4101 + complex_entries)
    for _ in range(40):
        data = _oracle_matrix(rng, complex_entries)
        m = Matrix([_qis(r) for r in data])
        assert [_pairs(v) for v in _kernel(m)] == dense_kernel(data, m.cols)
        assert rank(m) == len(dense_rref(data, range(m.cols))[0])


@FIELDS
def test_integer_kernel_matches_dense_oracle(complex_entries):
    """``_integer_kernel`` on packed Gaussian integer rows (re at key u, im at key ~u) gives the oracle's kernel over Q(i)."""
    rng = random.Random(4151 + complex_entries)
    for _ in range(40):
        data = _oracle_matrix(rng, complex_entries)
        cols = len(data[0])
        rows = []
        for row in data:
            rows.append(_gaussian_integers((j, QI(re, im)) for j, (re, im) in enumerate(row))[0])
        columns, dens = exact._integer_kernel(rows, cols)
        basis = [
            [(Fraction(columns.get(u, {}).get(v, 0), d), Fraction(columns.get(u, {}).get(~v, 0), d)) for u in range(cols)]
            for v, d in enumerate(dens)
        ]
        assert basis == dense_kernel(data, cols)


def _antilinear_involution(rng, complex_entries, nb):
    """S = A·conj(A)^-1 for a seeded invertible A, as dense rows of pairs: S·conj(S) = I, so z -> S·conj(z) is an involution."""
    while True:
        a = [[_oracle_entry(rng, complex_entries) for _ in range(nb)] for _ in range(nb)]
        inverse = dense_inverse([[(re, -im) for re, im in row] for row in a])
        if inverse is not None:
            return dense_matmul(a, inverse, nb)


def _reduced(vec, free):
    """``vec`` (a list of (re, im) pairs) divided by its real entry at ``free`` = (p, part)."""
    p, part = free
    scale = vec[p][part]
    return [(re / scale, im / scale) for re, im in vec]


def _fixed_points(S):
    return exact._real_fixed_points(Matrix([_qis(row) for row in S])._numerators)


@FIELDS
@pytest.mark.parametrize("nb", range(1, 7))
def test_real_fixed_points_match_dense_oracle(complex_entries, nb):
    """On seeded antilinear involutions z -> S·conj(z), S = A·conj(A)^-1, the basis is the oracle's.

    Scaled to 1 at each vector's free column, its last nonzero real entry
    in the order x_0..y_{nb-1}, both are the reduced basis; there each
    vector is ±den and every other vector is 0, and each vector's leading
    coefficient is positive.
    """
    rng = random.Random(4201 + 10 * nb + complex_entries)
    for _ in range(4):
        S = _antilinear_involution(rng, complex_entries, nb)
        basis = _fixed_points(S)
        frees = [free for _, _, free in basis]
        got = [[(Fraction(vec.get(q, 0), den), Fraction(vec.get(~q, 0), den)) for q in range(nb)] for vec, den, _ in basis]
        want = dense_fixed_basis(S, range(nb))
        assert len(got) == len(want) == nb
        assert [_reduced(v, free) for v, free in zip(got, frees)] == [_reduced(v, free) for v, free in zip(want, frees)]
        for v, (vec, den, (p, part)) in zip(got, basis):
            assert vec[p if part == 0 else ~p] in (den, -den)
            assert max(j * nb + q for q in range(nb) for j in (0, 1) if v[q][j]) == part * nb + p
            assert next(x for j in (0, 1) for q in range(nb) if (x := v[q][j])) > 0
            assert all(other[p][part] == 0 for other in got if other is not v)


def test_real_fixed_points_refuse_a_map_that_is_not_an_involution():
    """Where S·conj(S) != I the F·v = v check raises, or fewer than nb vectors come back; both callers refuse a short basis.

    2S (S·conj(S) = 4I) has no fixed point but 0; a seeded Gaussian S is
    almost never an antilinear involution.
    """
    rng = random.Random(4261)
    refused = 0
    for nb in range(1, 7):
        identity = [[C_ONE if i == j else C_ZERO for j in range(nb)] for i in range(nb)]
        for complex_entries in (False, True):
            S = _antilinear_involution(rng, complex_entries, nb)
            doubled = [[c_mul((Fraction(2), Fraction(0)), x) for x in row] for row in S]
            for bad in (doubled, [[_oracle_entry(rng, True) for _ in range(nb)] for _ in range(nb)]):
                if dense_inverse(bad) is None or dense_matmul(bad, [[(re, -im) for re, im in row] for row in bad], nb) == identity:
                    continue
                try:
                    basis = _fixed_points(bad)
                except AssertionError as exc:
                    assert str(exc) == "real fixed-point basis vector is not fixed by z -> S·conj(z)"
                    refused += 1
                else:
                    assert len(basis) < nb
    assert refused


@FIELDS
@pytest.mark.parametrize("trailing", [False, True], ids=["default-order", "reversed-order"])
def test_echelon_matches_dense_oracle(complex_entries, trailing):
    rng = random.Random(4401 + 2 * complex_entries + trailing)
    for _ in range(40):
        data = _oracle_matrix(rng, complex_entries)
        cols = len(data[0])
        order = range(cols - 1, -1, -1) if trailing else range(cols)
        e = Echelon([_qis(r) for r in data], cols, col_order=order if trailing else None)
        pivot_cols, prows = dense_rref(data, order)
        assert [_pairs(r) for r in e.rows] == prows
        assert [c for c, _ in e.reduced] == pivot_cols
        assert e.free_cols == [j for j in range(cols) if j not in pivot_cols]
        for v in ([_oracle_entry(rng, complex_entries) for _ in range(cols)], _oracle_combination(rng, complex_entries, data)):
            assert _pairs(e.reduce(_qis(v))) == dense_reduce(pivot_cols, prows, v)


# -- the integer kernel against the dense oracle -----------------------------


def _integer_system(rng, rows, cols):
    """Seeded sparse integer rows {col: int}, with zero, scaled, duplicate and dependent rows."""
    density = rng.choice((0.1, 0.25, 0.5, 1.0))
    data = [{j: x for j in range(cols) if rng.random() < density and (x := rng.randint(-9, 9))} for _ in range(rows)]
    if rows > 3:
        data[rng.randrange(rows)] = {}
        data[rng.randrange(rows)] = {j: -3 * x for j, x in data[rng.randrange(rows)].items()}
        a, b = rng.sample(data, 2)
        f, g = rng.randint(-4, 4), rng.randint(-4, 4)
        combo = {j: f * a.get(j, 0) + g * b.get(j, 0) for j in set(a) | set(b)}
        data[rng.randrange(rows)] = {j: x for j, x in combo.items() if x}
    return data


@pytest.mark.parametrize("rows, cols", [(0, 5), (6, 1), (None, None)], ids=["empty", "single-column", "random"])
def test_integer_rref_matches_dense_oracle(rows, cols):
    rng = random.Random(4501 + (rows or 0) + (cols or 0))
    deficient = 0
    for _ in range(60):
        r = rng.randint(1, 12) if rows is None else rows
        c = rng.randint(1, 16) if cols is None else cols
        data = _integer_system(rng, r, c)
        got = integer_rref(data, c)
        for col, row in got:
            assert row[col] > 0 and 0 not in row.values() and min(row) == col
            assert math.gcd(*row.values()) == 1
            assert all(p == col or p not in row for p, _ in got)
        pivot_cols, prows = dense_rref([[(Fraction(row.get(j, 0)), Fraction(0)) for j in range(c)] for row in data], range(c))
        assert [col for col, _ in got] == pivot_cols
        assert [[Fraction(row.get(j, 0), row[col]) for j in range(c)] for col, row in got] == [[x for x, _ in prow] for prow in prows]
        deficient += len(got) < min(r, c)
    assert rows == 0 or deficient


# -- the streamed integer kernel ---------------------------------------------


def _packed_system(rng, kind, rows, cols):
    """Seeded packed Gaussian rows (re at key u, im at key ~u) of one ``kind``.

    ``real`` rows have no imaginary part, ``complex`` rows all have one,
    ``complex-after-real`` rows have one from the middle row on,
    ``full-rank`` rows start with ``cols`` real rows of full rank (1 on the
    diagonal, random entries after it) followed by random real rows, and
    ``complex-full-rank`` rows are those rows with i times 1 to 3 added on
    the diagonal and random imaginary parts added to the rows after it.
    """
    re, im = _integer_system(rng, rows, cols), _integer_system(rng, rows, cols)
    if kind.endswith("full-rank"):
        head = [{p: 1} | {j: x for j in range(p + 1, cols) if (x := rng.randint(-3, 3))} for p in range(cols)]
        if kind == "full-rank":
            return head + re
        return [row | {~p: rng.randint(1, 3)} for p, row in enumerate(head)] + [r | {~u: x for u, x in i.items()} for r, i in zip(re, im)]
    start = {"real": rows, "complex": 0, "complex-after-real": rows // 2}[kind]
    out = [r | {~u: x for u, x in i.items()} if n >= start else r for n, (r, i) in enumerate(zip(re, im))]
    if kind != "real":
        # a row with an imaginary part, so the kind holds even when the random parts are empty
        out[start] = out[start] | {~0: 1}
    return out


def _counted(rows, read):
    """The rows of ``rows``, counting in ``read[0]`` how many the consumer takes."""
    for row in rows:
        read[0] += 1
        yield row


@pytest.mark.parametrize("kind", ["real", "complex", "complex-after-real", "full-rank", "complex-full-rank"])
def test_integer_kernel_of_a_stream_equals_the_kernel_of_its_list(kind):
    """``_integer_kernel`` reads a generator of rows as it reads the same rows in a list, and agrees with the oracle."""
    rng = random.Random(4601 + len(kind))
    for _ in range(40):
        cols = rng.randint(1, 10)
        rows = _packed_system(rng, kind, rng.randint(2, 12), cols)
        read = [0]
        got = exact._integer_kernel(_counted(rows, read), cols)
        assert got == exact._integer_kernel(list(rows), cols)
        columns, dens = got
        basis = [
            [(Fraction(columns.get(u, {}).get(v, 0), d), Fraction(columns.get(u, {}).get(~v, 0), d)) for u in range(cols)]
            for v, d in enumerate(dens)
        ]
        data = [[(Fraction(row.get(u, 0)), Fraction(row.get(~u, 0))) for u in range(cols)] for row in rows]
        assert basis == dense_kernel(data, cols)
        # rows are read up to the one that completes the rank (realified, once a row has an
        # imaginary part), the oracle's rank over Q(i); otherwise the whole stream is read
        need = next((n for n in range(1, len(rows) + 1) if len(dense_rref(data[:n], range(cols))[0]) == cols), len(rows))
        assert read[0] == need
        if kind.endswith("full-rank"):
            assert dens == [] and need == cols < len(rows)


def test_integer_rref_stops_at_the_row_that_completes_the_rank():
    """``integer_rref`` returns once it holds ``width`` pivots, and the rows read up to then give the full reduction."""
    rng = random.Random(4651)
    for _ in range(40):
        cols = rng.randint(1, 10)
        rows = _packed_system(rng, "full-rank", rng.randint(0, 6), cols)
        rng.shuffle(rows)
        read = [0]
        got = integer_rref(_counted(rows, read), cols)
        need = next(n for n in range(1, len(rows) + 1) if len(integer_rref(rows[:n], cols)) == cols)
        assert read[0] == need
        assert got == integer_rref(rows[:need], cols) and [c for c, _ in got] == list(range(cols))


# -- the realifying Q(i) adapter against the dense oracle --------------------


def _in_span(data, vec):
    """True iff ``vec`` lies in the span of the dense rows ``data`` (pairs)."""
    cols = len(vec)
    return len(dense_rref(data + [vec], range(cols))[0]) == len(dense_rref(data, range(cols))[0])


@pytest.mark.parametrize("order", ["full", "reversed", "prefix"])
def test_rref_matches_dense_oracle(order):
    _check_rref_against_dense_oracle(order, True)


@pytest.mark.parametrize("order", ["full", "reversed", "prefix"])
def test_rref_matches_dense_oracle_on_real_rows(order):
    """Rows with no imaginary part take the one reduction of their real parts, and give the same form."""
    _check_rref_against_dense_oracle(order, False, 20)


@pytest.mark.parametrize("order", ["full", "reversed", "prefix"])
def test_rref_matches_dense_oracle_on_complex_rows_after_real(order):
    """Real rows, then rows with imaginary parts: the reduction turns realified mid-stream and gives the same form."""
    _check_rref_against_dense_oracle(order, True, 20, after_real=True)


def _check_rref_against_dense_oracle(order, complex_entries, draws=60, after_real=False):
    rng = random.Random(4601 + ("full", "reversed", "prefix").index(order) + 10 * (not complex_entries) + 20 * after_real)
    deficient = switched = 0
    for _ in range(draws):
        data = _oracle_matrix(rng, complex_entries)
        cols = len(data[0])
        if after_real:
            # the first complex row has an imaginary part; the reduction switches there unless the real rows have full rank
            data[0][0] = (data[0][0][0], Fraction(1))
            real = _oracle_matrix(rng, False, rng.randint(1, 6), cols)
            switched += len(dense_rref(real, range(cols))[0]) < cols
            data = real + data
        col_order = {
            "full": range(cols),
            "reversed": range(cols - 1, -1, -1),
            "prefix": range(rng.randint(1, cols)),
        }[order]
        e = Echelon([_qis(row) for row in data], cols, col_order=col_order)
        pivot_cols, prows = dense_rref(data, col_order)
        assert [c for c, _ in e.reduced] == pivot_cols
        for (c, packed), row, prow in zip(e.reduced, e.rows, prows):
            # stored without zeros, over the positive pivot entry
            assert all(packed.values()) and packed[c] > 0
            assert [_pairs([row[j]])[0] for j in col_order] == [prow[j] for j in col_order]
            assert _in_span(data, _pairs(row))
        deficient += e.rank < min(len(data), len(col_order))
    assert deficient
    assert switched or not after_real


# -- the fraction-free form: numerators over one denominator ----------------


def _random_terms(rng):
    """Seeded terms (t, num, den, form) whose sums cancel at some coordinates and share factors at others."""
    terms = []
    for _ in range(rng.randint(0, 8)):
        form = {v: x for v in range(4) if (x := rng.randint(-6, 6))}
        terms.append((rng.randrange(3), rng.randint(-5, 5), rng.randint(1, 12), form))
    if terms:
        t, num, den, form = rng.choice(terms)
        terms.append((t, -num, den, form))
    return terms


def test_sum_forms_matches_fraction_oracle():
    rng = random.Random(4701)
    reduced = 0
    for _ in range(200):
        terms = _random_terms(rng)
        oracle = {}
        for t, num, den, form in terms:
            for v, x in form.items():
                oracle[t, v] = oracle.get((t, v), Fraction(0)) + Fraction(num, den) * x
        out, den = _sum_forms(terms)
        assert den > 0
        assert all(form and 0 not in form.values() for form in out.values())
        assert {(t, v): Fraction(x, den) for t, form in out.items() for v, x in form.items()} == {
            tv: x for tv, x in oracle.items() if x
        }
        assert math.gcd(den, *(x for form in out.values() for x in form.values())) == 1
        reduced += den < math.lcm(*(d for _, _, d, _ in terms))
    assert reduced


@pytest.mark.parametrize(
    "terms, expected",
    [
        ([], ({}, 1)),
        ([("a", 1, 2, {0: 3}), ("a", 1, 2, {0: 3})], ({"a": {0: 3}}, 1)),
        ([("a", 2, 6, {0: 3, 1: 6}), ("b", 1, 3, {1: 0})], ({"a": {0: 1, 1: 2}}, 1)),
        ([("a", 1, 4, {0: 2}), ("a", -1, 2, {0: 1})], ({}, 1)),
        ([("a", 2, 9, {0: 3}), ("b", 1, 3, {1: 2})], ({"a": {0: 2}, "b": {1: 2}}, 3)),
        ([("a", 1, 9, {0: 2}), ("b", 1, 3, {1: 1})], ({"a": {0: 2}, "b": {1: 3}}, 9)),
    ],
    ids=["empty", "shared-gcd", "zero-form", "cancelled", "partial-gcd", "lowest-terms"],
)
def test_sum_forms_cases(terms, expected):
    assert _sum_forms(terms) == expected


def test_sum_forms_never_aliases_an_input_form():
    # a lone form at scale 1 comes back equal but as a new dict, and adding
    # into the sum leaves every input as it was
    a, b = {0: 1, 1: 2}, {1: 3}
    out, den = _sum_forms([("s", 1, 1, a), ("t", 1, 1, b), ("t", 1, 1, a)])
    assert (out, den) == ({"s": {0: 1, 1: 2}, "t": {0: 1, 1: 5}}, 1)
    assert all(form is not x for form in out.values() for x in (a, b))
    out["s"][0] = out["t"][1] = 7
    assert a == {0: 1, 1: 2} and b == {1: 3}


def _drawn_terms(rng, case):
    """Seeded ``_sum_forms`` terms of one kind: over denominator 1, over denominators with a shared factor, cancelling to zero, with empty forms, or with imaginary parts (keys ~k)."""
    keys = range(-3, 4) if case == "imaginary" else range(4)
    g = rng.randint(2, 6) if case == "shared-gcd" else 1
    terms = []
    for _ in range(rng.randint(1, 6)):
        form = {} if case == "empty-forms" and rng.random() < 0.5 else {v: g * x for v in keys if (x := rng.randint(-4, 4))}
        den = 1 if case == "den-1" else g * rng.randint(1, 5)
        terms.append((rng.randrange(3), g * rng.randint(-3, 3) or g, den, form))
    if case == "cancel":
        terms += [(t, -num, den, form) for t, num, den, form in terms]
    return terms


def _fraction_sum(terms):
    """The sum of num/den · form over ``terms`` as {(t, key): Fraction}, zeros dropped."""
    out = {}
    for t, num, den, form in terms:
        for v, x in form.items():
            out[t, v] = out.get((t, v), Fraction(0)) + Fraction(num, den) * x
    return {tv: x for tv, x in out.items() if x}


@pytest.mark.parametrize("case", ["den-1", "shared-gcd", "cancel", "empty-forms", "imaginary"])
def test_sum_forms_and_lowest_terms_match_a_fraction_oracle(case):
    """Each sum and each division by its gcd equals the ``Fraction`` sum, in lowest terms, with no zero, no empty form and no input form in it."""
    rng = random.Random(f"sum-forms-{case}")
    reduced = 0
    for _ in range(150):
        terms = _drawn_terms(rng, case)
        out, den = _sum_forms(terms)
        assert den > 0 and all(form and all(form.values()) for form in out.values())
        assert {(t, v): Fraction(x, den) for t, form in out.items() for v, x in form.items()} == _fraction_sum(terms)
        assert math.gcd(den, *(x for form in out.values() for x in form.values())) == 1
        assert not any(form is f for form in out.values() for *_, f in terms)
        if case == "cancel":
            assert out == {} and den == 1
        if case == "den-1":
            assert den == 1
        # the same sum, accumulated by the caller, then brought to lowest terms
        raw, rden = {}, math.lcm(*(d for _, _, d, _ in terms))
        for t, num, d, form in terms:
            acc = raw.setdefault(t, {})
            for v, x in form.items():
                acc[v] = acc.get(v, 0) + num * (rden // d) * x
        assert exact._lowest_terms(raw, rden) == (out, den)
        reduced += den < rden
    assert reduced or case in ("den-1", "cancel")


def test_lowest_terms_keeps_a_form_exactly_when_it_has_no_zero_and_the_gcd_is_1():
    kept, zero, empty = {0: 3, ~1: -2}, {0: 3, 1: 0}, {}
    out, den = exact._lowest_terms({"a": kept, "b": zero, "c": empty}, 5)
    assert (out, den) == ({"a": {0: 3, ~1: -2}, "b": {0: 3}}, 5)
    assert out["a"] is kept and out["b"] is not zero and zero == {0: 3, 1: 0}
    # a gcd above 1 divides every form into a new dict and leaves the inputs as they were
    forms = {"a": {0: 6, ~1: -4}, "b": {1: 2}}
    out, den = exact._lowest_terms(forms, 8)
    assert (out, den) == ({"a": {0: 3, ~1: -2}, "b": {1: 1}}, 4)
    assert forms == {"a": {0: 6, ~1: -4}, "b": {1: 2}} and out["a"] is not forms["a"]
    # over denominator 1 no gcd is taken, and the forms are the caller's own
    out, den = exact._lowest_terms(forms, 1)
    assert den == 1 and out["a"] is forms["a"] and out["b"] is forms["b"]


def test_over_one_denominator_reduces_each_fraction_first():
    # 2/4, 0/6, -3/9 and 5/1 are 1/2, 0, -1/3 and 5: over 6, not over lcm(4, 6, 9) = 36
    assert exact._over_one_denominator([(2, 4), (0, 6), (-3, 9), (5, 1)]) == ([3, 0, -2, 30], 6)
    assert exact._over_one_denominator([]) == ([], 1)


def test_gaussian_integers_scales_entries_over_one_denominator():
    entries = [(0, QI(Fraction(1, 2))), (1, QI(0)), (2, QI(Fraction(-2, 3))), (3, QI(4)), (4, QI(0, Fraction(1, 4))), (5, QI(1, -1))]
    # packed: the real part of entry k at key k, the imaginary part at key ~k, each only where nonzero
    assert _gaussian_integers(entries) == ({0: 6, 2: -8, 3: 48, ~4: 3, 5: 12, ~5: -12}, 12)
    assert _gaussian_integers([]) == ({}, 1)


def test_qi_is_the_gaussian_rational_of_its_numerators():
    rng = random.Random(4801)
    for _ in range(200):
        re, im, den = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 12)
        assert _qi(re, im, den) == QI(Fraction(re, den), Fraction(im, den))


def _textbook_str(re, im):
    """``str`` of re + im·i as the two-``Fraction`` form wrote it."""
    if not im:
        return str(re)
    mag = abs(im)
    imtxt = "i" if mag == 1 else f"{mag}i"
    if not re:
        return imtxt if im > 0 else "-" + imtxt
    return f"{re}{'+' if im > 0 else '-'}{imtxt}"


def _assert_is_pair(q, pair):
    """``q`` is the normal form of the textbook pair, reads like it, and hashes like the number it equals.

    A real ``q`` equals the ``Fraction`` re, so it hashes as re does;
    nothing but a ``QI`` equals one with an imaginary part, which hashes
    as the pair.
    """
    re, im = pair
    assert type(q) is QI and q._d > 0 and math.gcd(q._a, q._b, q._d) == 1
    assert (q.re, q.im) == pair and q == QI(re, im) and bool(q) is bool(re or im)
    assert hash(q) == (hash(pair) if im else hash(re))
    assert str(q) == _textbook_str(re, im) and repr(q) == f"QI({re}, {im})"


def test_a_real_qi_hashes_like_the_fraction_and_int_it_equals():
    """``==`` and ``hash`` agree across ``QI``, ``Fraction`` and ``int``, so dict and set lookups do too."""
    rng = random.Random(3607)
    for _ in range(300):
        x = Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 4, 7, 12)))
        same = [QI(x), x] + ([x.numerator] if x.denominator == 1 else [])
        for a in same:
            for b in same:
                assert a == b and hash(a) == hash(b)
                assert {a: "v"}[b] == "v"
        assert len(set(same)) == 1
        z = QI(x, rng.choice((-3, -1, 1, 2)))
        assert hash(z) == hash((z.re, z.im)) and z not in set(same) and len({z, *same}) == 2
    assert {QI(2): "a"}[2] == "a" and len({QI(1), 1}) == 1 and {Fraction(1, 2): "b"}[QI("1/2")] == "b"


def test_qi_matches_the_textbook_fraction_pair():
    rng = random.Random(2511)

    def part():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6, 9)))

    def operand():
        """An int, a Fraction, a real QI or a complex QI, with its textbook pair."""
        kind = rng.randrange(4)
        if kind < 2:
            x = rng.randint(-4, 4) if kind == 0 else part()
            return x, (Fraction(x), Fraction(0))
        pair = (part(), part() if kind == 3 else Fraction(0))
        return QI(*pair), pair

    for _ in range(1500):
        (_, p), (y, r) = operand(), operand()
        x = QI(*p)
        _assert_is_pair(x, p)
        for q, pair in [
            (x + y, c_add(p, r)),
            (y + x, c_add(r, p)),
            (x - y, c_sub(p, r)),
            (y - x, c_sub(r, p)),
            (x * y, c_mul(p, r)),
            (y * x, c_mul(r, p)),
            (-x, (-p[0], -p[1])),
            (x.conj(), (p[0], -p[1])),
        ]:
            _assert_is_pair(q, pair)
        assert (x == y) is (y == x) is (p == r)
        assert (x != y) is (p != r)
    with pytest.raises(AttributeError):
        x.re = Fraction(1)


@pytest.mark.parametrize(
    "re, im, text",
    [
        (0, 0, "0"),
        (1, 0, "1"),
        (-1, 0, "-1"),
        (0, 1, "i"),
        (0, -1, "-i"),
        (0, Fraction(1, 2), "1/2i"),
        (0, Fraction(-1, 2), "-1/2i"),
        (Fraction(-2, 3), 5, "-2/3+5i"),
        (Fraction(1, 2), -1, "1/2-i"),
    ],
)
def test_qi_str_is_pinned(re, im, text):
    assert str(QI(re, im)) == text


def test_only_exact_takes_gcd_or_lcm():
    """The fraction-free form lives in ``exact``: no other module imports ``gcd`` or ``lcm`` from ``math``."""
    package = Path(exact.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                offenders += [(path.name, a.name) for a in node.names if a.name in ("gcd", "lcm", "*")]
            elif isinstance(node, ast.Import):
                offenders += [(path.name, a.name) for a in node.names if a.name == "math"]
    assert offenders == []


def _scopes(tree, matches, scope=""):
    """The enclosing qualified name of every node under ``tree`` for which ``matches(node)`` holds."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scopes(node, matches, f"{scope}{node.name}.")
        else:
            if matches(node):
                yield scope.rstrip(".")
            yield from _scopes(node, matches, scope)


def test_only_output_code_reads_matrix_views():
    """A ``Matrix`` is stored as numerators: outside ``exact``, only the JSON writers read its ``QI`` views ``data`` and ``sparse_column``."""
    package = Path(exact.__file__).parent
    allowed = {("liealg.py", "_matrix_to_json"), ("crmodels.py", "TheoremReport.to_json_dict")}
    reads = {
        (path.name, scope)
        for path in sorted(package.glob("*.py"))
        if path.name != "exact.py"
        for scope in _scopes(ast.parse(path.read_text()), lambda node: isinstance(node, ast.Attribute) and node.attr in {"data", "sparse_column"})
    }
    assert reads <= allowed, sorted(reads - allowed)


def test_only_exact_names_the_integer_elimination():
    """Every solve enters through ``exact``'s adapters: no other module names ``integer_rref``, ``_realify`` or ``_int_eliminate``."""
    package = Path(exact.__file__).parent
    inner = {"integer_rref", "_realify", "_int_eliminate"}
    offenders = [
        (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        if path.name != "exact.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id in inner)
        or (isinstance(node, ast.Attribute) and node.attr in inner)
        or (isinstance(node, ast.alias) and node.name in inner)
    ]
    assert offenders == []


def test_gaussian_reduce_is_the_one_entry_to_the_kernel():
    """Every Q(i) reduction enters through ``_gaussian_reduce``: it alone calls ``integer_rref``, and ``exact`` defines no second entry ``_gaussian_rref``."""
    package = Path(exact.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}

    def calls(node):
        return isinstance(node, ast.Call) and "integer_rref" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))

    callers = {(name, scope) for name, tree in trees.items() for scope in _scopes(tree, calls)}
    assert callers == {("exact.py", "_gaussian_reduce")}
    assert "_gaussian_rref" not in {node.name for node in ast.walk(trees["exact.py"]) if isinstance(node, ast.FunctionDef)}


def test_only_exact_decodes_a_packed_key():
    """The key layout stays in ``exact``: no other module picks k or ~k by the sign of k; they read parts through ``_entries``."""
    package = Path(exact.__file__).parent
    offenders = [
        (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        if path.name != "exact.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.IfExp)
        and isinstance(node.test, ast.Compare)
        and any(isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Invert) for n in ast.walk(node))
    ]
    assert offenders == []


def test_packed_parts_read_and_write_back():
    """``_entries``, ``_table_entries`` and ``_key`` read a packed form's parts and write them back; ``_transpose`` keeps each part; ``_form_terms`` and ``_gaussian_primitive`` turn imaginary parts by i."""
    form = {0: 3, ~0: -1, 2: 5, ~4: 7}
    parts = exact._entries(form)
    assert parts == [(0, 0, 3), (0, 1, -1), (2, 0, 5), (4, 1, 7)]
    assert {exact._key(k, turn): x for k, turn, x in parts} == form
    assert list(exact._table_entries([("a", form), ("b", {})])) == [("a", *p) for p in parts]
    rows = exact._transpose({1: form, 3: {~2: 2, 0: 0}}, 5)
    assert rows == [{1: 3, ~1: -1}, {}, {1: 5, ~3: 2}, {}, {~1: 7}]
    assert exact._transpose(dict(enumerate(rows)), 4) == [{}, form, {}, {~2: 2}]
    assert exact._form_terms({0: 2, ~1: 3}, 5, 7, {4: 1}, [10, 11]) == [(10, 10, 7, {4: 1}), (11, 15, 7, {~4: 1})]
    assert exact._form_terms({~1: 3}, -1, 2, {4: 1, ~5: 2}) == [(1, -3, 2, {~4: 1, 5: -2})]
    assert exact._gaussian_primitive({~1: -4, ~3: 6}) == {1: 2, 3: -3}
    assert exact._gaussian_primitive({~0: 2, 1: -4}) == {~0: 1, 1: -2}


def test_only_exact_reads_qi_slots():
    """The normal form (a + b·i)/d stays in ``exact``: no other module names a slot of ``QI``."""
    package = Path(exact.__file__).parent
    slots = set(QI.__slots__)
    offenders = [
        (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        if path.name != "exact.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in slots) or (isinstance(node, ast.Constant) and node.value in slots)
    ]
    assert offenders == []


# -- Matrix against dense rows of pairs --------------------------------------

SHAPES = [(0, 0), (3, 0), (0, 3), (1, 1), (2, 5), (5, 2), (4, 4)]


def _dense_pairs(rng, rows, cols):
    """Seeded dense rows of Gaussian pairs, about half of them zero."""
    return [[_oracle_entry(rng, True, 0.5) for _ in range(cols)] for _ in range(rows)]


def _matrix(data, rows, cols):
    """The ``Matrix`` of dense pairs, built from sparse columns so that every shape, 0 x n included, is kept."""
    return Matrix.sparse(rows, [{i: QI(*data[i][j]) for i in range(rows)} for j in range(cols)])


def _unreduced(rng, data, rows, cols):
    """The ``Matrix`` of dense pairs from ``_from_numerators``: each column over a multiple of its denominators' lcm, zeros kept."""
    entries = []
    for j in range(cols):
        den = math.lcm(*(x.denominator for i in range(rows) for x in data[i][j])) * rng.choice((1, 2, 6))
        entries.append((j, {k: int(data[i][j][part] * den) for i in range(rows) for k, part in ((i, 0), (~i, 1))}, den))
    return Matrix._from_numerators(rows, cols, entries)


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_matrix_views_and_constructors_match_dense_rows(rows, cols):
    rng = random.Random(4701 + 10 * rows + cols)
    for _ in range(10):
        data = _dense_pairs(rng, rows, cols)
        m = _matrix(data, rows, cols)
        assert (m.rows, m.cols) == (rows, cols)
        assert [_pairs(row) for row in m.data] == data
        for j in range(cols):
            col = m.sparse_column(j)
            assert list(col) == sorted(col) and all(col.values())
            nonzero = {i: row[j] for i, row in enumerate(data) if row[j] != C_ZERO}
            assert {i: (x.re, x.im) for i, x in col.items()} == nonzero
        if rows:
            assert Matrix([_qis(row) for row in data]) == m
        assert -(-m) == m
        assert [_pairs(row) for row in (-m).data] == [[(-a, -b) for a, b in row] for row in data]
        # numerators over an unreduced denominator: the same matrix, stored in lowest terms
        u = _unreduced(rng, data, rows, cols)
        assert u == m and u._numerators == m._numerators and (u.rows, u.cols) == (rows, cols)
        assert u.data == m.data and (-u).data == (-m).data and -u == -m
        assert [u.sparse_column(j) for j in range(cols)] == [m.sparse_column(j) for j in range(cols)]
        nums, den = u._numerators
        assert math.gcd(den, *(x for col in nums.values() for x in col.values())) == 1
        assert all(type(x) is int and x for col in nums.values() for x in col.values()) and all(nums.values())
        other = _dense_pairs(rng, cols, 3)
        assert u.mul(_matrix(other, cols, 3)) == m.mul(_matrix(other, cols, 3))
        assert [_pairs(row) for row in u.mul(_matrix(other, cols, 3)).data] == dense_matmul(data, other, 3)


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_matrix_products_match_dense_oracle(rows, cols):
    rng = random.Random(4801 + 10 * rows + cols)
    for _ in range(10):
        data = _dense_pairs(rng, rows, cols)
        m = _matrix(data, rows, cols)
        v = [_oracle_entry(rng, True, 0.5) for _ in range(cols)]
        assert _pairs(_apply(m, _qis(v))) == dense_matvec(data, v)
        for width in (0, 1, 3):
            other = _dense_pairs(rng, cols, width)
            product = m.mul(_matrix(other, cols, width))
            assert (product.rows, product.cols) == (rows, width)
            assert [_pairs(row) for row in product.data] == dense_matmul(data, other, width)
        with pytest.raises(ValueError, match="dimension mismatch"):
            m.mul(Matrix.identity(cols + 1))


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_matrix_equality_is_entrywise_and_shape_aware(rows, cols):
    rng = random.Random(4901 + 10 * rows + cols)
    data = _dense_pairs(rng, rows, cols)
    m = _matrix(data, rows, cols)
    assert m == _matrix([list(row) for row in data], rows, cols)
    for r, c in ((rows + 1, cols), (rows, cols + 1)):
        assert m != _matrix([[C_ZERO] * c for _ in range(r)], r, c)
    if rows and cols:
        i, j = rng.randrange(rows), rng.randrange(cols)
        changed = [list(row) for row in data]
        changed[i][j] = c_add(changed[i][j], (Fraction(1, 3), Fraction(0)))
        assert m != _matrix(changed, rows, cols)
    assert m != [list(row) for row in m.data]


@pytest.mark.parametrize("n", range(5))
def test_identity_matches_dense_oracle(n):
    ident = Matrix.identity(n)
    assert [_pairs(row) for row in ident.data] == [[C_ONE if i == j else C_ZERO for j in range(n)] for i in range(n)]
    rng = random.Random(5001 + n)
    m = _matrix(_dense_pairs(rng, n, 3), n, 3)
    assert ident.mul(m) == m
    assert m.mul(Matrix.identity(3)) == m


@pytest.mark.parametrize("rows, cols", [s for s in SHAPES if s[0]] + [(0, 0)])
def test_matrix_json_round_trip(rows, cols):
    rng = random.Random(5101 + 10 * rows + cols)
    m = _matrix(_dense_pairs(rng, rows, cols), rows, cols)
    text = json.dumps(_matrix_to_json(m))
    assert _matrix_from_json(json.loads(text), "m") == m


def test_matrix_data_is_read_only():
    m = Matrix([[1, I], [0, 2]])
    with pytest.raises(TypeError):
        setitem(m.data[0], 1, QI(5))
    with pytest.raises(TypeError):
        setitem(m.data, 0, (QI(5), QI(5)))
    with pytest.raises(AttributeError):
        m.data = ((QI(5), QI(5)), (QI(5), QI(5)))
    assert m == Matrix([[1, I], [0, 2]])


@pytest.mark.parametrize("columns", [[[1], [2, 3]], [[1, 2], [3]]], ids=["longer-last", "shorter-last"])
def test_sparse_refuses_ragged_columns(columns):
    """Dense columns of unequal length, read at the length of the shorter: the longer one leaves the matrix."""
    with pytest.raises(ValueError, match="^row index out of range$"):
        Matrix.sparse(min(map(len, columns)), [dict(enumerate(c)) for c in columns])


def test_sparse_refuses_rows_out_of_range():
    with pytest.raises(ValueError, match="row index out of range"):
        Matrix.sparse(2, [{2: QI(1)}])


@pytest.mark.parametrize("row", [-1, -2, 0.5], ids=["minus-one", "minus-two", "not-int"])
def test_sparse_refuses_a_row_that_is_negative_or_not_an_int(row):
    """Row -1 is refused, not stored as the imaginary part of row 0 (key ~0 of the packed form)."""
    with pytest.raises(ValueError, match="^row index out of range$"):
        Matrix.sparse(2, [{row: QI(1)}])
