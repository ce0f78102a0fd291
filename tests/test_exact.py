import random
from fractions import Fraction

import pytest
from oracles import C_ZERO, c_mul, dense_inverse, dense_kernel, dense_reduce, dense_rref

from crprolong.exact import QI, Echelon, Matrix, invert, kernel_basis, qi_from_json, rank

I = QI(0, 1)


def test_field_arithmetic():
    a = QI(Fraction(3, 2), Fraction(-1, 3))
    b = QI(2, 5)
    assert a + b - b == a
    assert a * b == b * a
    assert (a * b) / b == a
    assert a * (b + I) == a * b + a * I
    assert QI(1) / a * a == QI(1)
    with pytest.raises(ZeroDivisionError):
        a / QI(0)


@pytest.mark.parametrize(
    "value,truth",
    [
        (QI(), False),
        (QI(0, 0), False),
        (QI("0"), False),
        (QI("0", "0/7"), False),
        (QI(Fraction(0, 5), Fraction(0, 5)), False),
        (QI._raw(Fraction(0), Fraction(0)), False),
        (-QI(0), False),
        (QI(Fraction(2, 3), Fraction(-1, 4)) - QI(Fraction(4, 6), Fraction(-2, 8)), False),
        (QI(1, 1) * QI(0, 0), False),
        (QI(1), True),
        (QI(0, 1), True),
        (QI(Fraction(-1, 5)), True),
        (QI(0, Fraction(3, 7)), True),
        (QI("-2/3", "5"), True),
        (QI._raw(Fraction(0), Fraction(-1, 9)), True),
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


def test_kernel_zero_map():
    assert kernel_basis(Matrix([[0]])) == [[QI(1)]]


def test_kernel_injective_map():
    assert kernel_basis(Matrix.identity(3)) == []


def test_kernel_gaussian_example():
    # hand row-reduction: x1 + i·x2 = 0, so the kernel is spanned by (-i, 1)
    m = Matrix([[1, I], [-I, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis[0] == [-I, QI(1)]
    assert all(not x for x in m.matvec(basis[0]))


def _solutions(m, b):
    """Solutions of m·x = b read off the kernel of [m | -b]: the vectors ending in 1.

    The kernel has one such vector when b is in the column span (the last
    column is then free, and the other free coordinates are 0), none otherwise.
    """
    aug = Matrix([row + [-x] for row, x in zip(m.data, b)])
    return [v[:-1] for v in kernel_basis(aug) if v[-1] == 1]


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
        kern = kernel_basis(m)
        assert rank(m) + len(kern) == cols
        for v in kern:
            assert all(not x for x in m.matvec(v))


def test_solve_random_consistent_systems():
    rng = random.Random(99)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        x = [QI(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(cols)]
        b = m.matvec(x)
        [y] = _solutions(m, b)
        assert m.matvec(y) == b


def test_invert_round_trip():
    m = Matrix([[1, I, 0], [0, 1, 2], [1, 0, 1]])
    inv = invert(m)
    assert m.mul(inv) == Matrix.identity(3)
    with pytest.raises(ValueError):
        invert(Matrix([[1, 1], [1, 1]]))


def test_echelon_reduction_right_preference():
    # span{(1,0,1), (0,1,0)} with trailing pivots: e3 reduces to -e1
    e = Echelon([[QI(1), QI(0), QI(1)], [QI(0), QI(1), QI(0)]], 3, col_order=range(2, -1, -1))
    assert e.rank == 2
    assert e.free_cols == [0]
    assert e.reduce([QI(0), QI(0), QI(1)]) == [QI(-1), QI(0), QI(0)]
    assert e.contains([QI(1), QI(0), QI(1)])
    assert not e.contains([QI(1), QI(0), QI(0)])


def test_fraction_string_round_trip():
    for s in ("0", "5", "-3/2", "22/7"):
        q = qi_from_json({"re": s, "im": s}, "x")
        assert (str(q.re), str(q.im)) == (s, s)


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
        assert [_pairs(v) for v in kernel_basis(m)] == dense_kernel(data, m.cols)
        assert rank(m) == len(dense_rref(data, range(m.cols))[0])


@FIELDS
def test_invert_matches_dense_oracle(complex_entries):
    rng = random.Random(4301 + complex_entries)
    singular = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        data = _oracle_matrix(rng, complex_entries, rows=n, cols=n)
        want = dense_inverse(data)
        m = Matrix([_qis(r) for r in data])
        if want is None:
            singular += 1
            with pytest.raises(ValueError):
                invert(m)
        else:
            assert [_pairs(r) for r in invert(m).data] == want
    assert 0 < singular < 60


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
        assert e.pivots == list(enumerate(pivot_cols))
        assert e.free_cols == [j for j in range(cols) if j not in pivot_cols]
        for v in ([_oracle_entry(rng, complex_entries) for _ in range(cols)], _oracle_combination(rng, complex_entries, data)):
            assert _pairs(e.reduce(_qis(v))) == dense_reduce(pivot_cols, prows, v)

