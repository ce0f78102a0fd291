from fractions import Fraction

import pytest

from crprolong import bch
from crprolong.assoc import lie_coordinates
from crprolong.bch import GroupLaw, NotNilpotent, bch_series, left_invariant_frame
from crprolong.exact import QI
from crprolong.frames import builtin_catalog, symbol_from_frame
from crprolong.freelie import standard_tree
from crprolong.liealg import GradedLieAlgebra, build_symbol_algebra, check_jacobi, realify
from crprolong.poly import Poly, _decode, vf_bracket
from oracles import (
    assoc_add,
    bch_law,
    bch_log_oracle,
    bch_series_oracle,
    expand_commutator,
    left_invariant_fields,
    replaced_bracket,
)


def test_series_through_degree_three():
    got = dict(bch_series(3))
    assert got == {
        (1,): Fraction(1),
        (2,): Fraction(1),
        (1, 2): Fraction(1, 2),
        (1, 1, 2): Fraction(1, 12),
        (1, 2, 2): Fraction(1, 12),
    }


def test_series_degree_four_matches_classical_term():
    # the single classical degree-4 term -1/24·[Y,[X,[X,Y]]] equals
    # 1/24·[X,[[X,Y],Y]] by Jacobi, i.e. 1/24 on the word 1122
    got = dict(bch_series(4))
    assert got[(1, 1, 2, 2)] == Fraction(1, 24)
    assert got[(1, 1, 1, 2)] == 0 if (1, 1, 1, 2) in got else True
    assert (1, 1, 1, 2) not in got and (1, 2, 2, 2) not in got


def test_series_reexpands_to_the_logarithm():
    # independent re-expansion with the test-side commutator oracle
    cap = 5
    expanded = {}
    for word, coeff in bch_series(cap):
        expanded = assoc_add(expanded, expand_commutator(standard_tree(word)), coeff)
    expanded = {w: c for w, c in expanded.items() if len(w) <= cap}
    assert expanded == bch_log_oracle(cap)


@pytest.mark.parametrize("cap", range(1, 9))
def test_series_matches_the_fraction_oracle(cap):
    # the integer series against exp-log in Fractions, words and coefficients alike
    assert bch_series(cap) == bch_series_oracle(cap)


def test_lie_coordinates_refuse_an_element_that_is_not_lie():
    # 12 alone is [1, 2] + 21, and 21 is no Lyndon word
    with pytest.raises(ValueError, match=r"not a Lie element: leading word \(2, 1\) is not Lyndon"):
        lie_coordinates({(1, 2): 1}, 2, {})
    assert lie_coordinates({(1, 2): 3, (2, 1): -3}, 2, {}) == {(1, 2): 3}


def test_series_certification_catches_a_wrong_coordinate(monkeypatch):
    # one Lyndon coordinate off by one no longer re-expands to the logarithm
    def off_by_one(elem, cap, memo):
        coords = lie_coordinates(elem, cap, memo)
        coords[(1, 2)] += 1
        return coords

    monkeypatch.setattr(bch, "lie_coordinates", off_by_one)
    with pytest.raises(AssertionError, match="Lyndon extraction failed to reproduce the logarithm"):
        bch_series.__wrapped__(3)


def test_abelian_law_is_addition():
    A = GradedLieAlgebra(["p", "q"], [-1, -1], {})
    names, z = GroupLaw(A).symbolic()
    assert z[0] == Poly(4, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1})
    assert z[1] == Poly(4, {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1})


def test_heisenberg_law_class_two():
    R = realify(build_symbol_algebra(1).algebra)
    names, z = GroupLaw(R).symbolic()
    # [x, y] = -2t here, so a + b + (1/2)[a, b] has t-component
    # a_t + b_t + (a_y b_x - a_x b_y)
    assert z[2] == Poly(
        6,
        {
            (0, 0, 1, 0, 0, 0): 1,
            (0, 0, 0, 0, 0, 1): 1,
            (0, 1, 0, 1, 0, 0): 1,
            (1, 0, 0, 0, 1, 0): -1,
        },
    )


def test_f23_law_contains_twelfth_terms_and_associates():
    R = realify(build_symbol_algebra(3).algebra)
    law = GroupLaw(R)
    _, z = law.symbolic()
    denominators = {c.re.denominator for p in z for c in p.terms.values()}
    assert 12 in denominators or 6 in denominators
    assert all(p.is_zero() for p in law.associativity_residual())


def test_not_nilpotent():
    with pytest.raises(NotNilpotent):
        GroupLaw(GradedLieAlgebra(["a"], [0], {}))


def test_left_invariant_frame_heisenberg():
    R = realify(build_symbol_algebra(1).algebra)
    frame = left_invariant_frame(R)
    assert [f.pretty() for f in frame] == [
        "∂_x + y ∂_e2_1",
        "∂_y - x ∂_e2_1",
        "∂_e2_1",
    ]
    br = vf_bracket(frame[0], frame[1])
    assert br == frame[2].scale(QI(-2))


def test_left_invariant_frame_abelian():
    A = GradedLieAlgebra(["p", "q"], [-1, -1], {})
    frame = left_invariant_frame(A)
    assert [f.pretty() for f in frame] == ["∂_p", "∂_q"]


def _frame_reproduces_constants(R):
    frame = left_invariant_frame(R)
    n = R.dim
    for i in range(n):
        for j in range(i + 1, n):
            br = vf_bracket(frame[i], frame[j])
            expect = frame[0].scale(QI(0))
            for k, c in R.bracket_basis(i, j).items():
                expect = expect + frame[k].scale(c)
            assert br == expect, (R.labels[i], R.labels[j])


def test_left_invariant_frame_f23():
    R = realify(build_symbol_algebra(3).algebra)
    frame = left_invariant_frame(R)
    assert len(frame) == 5
    _frame_reproduces_constants(R)
    # iterated brackets of the first two fields regenerate the whole frame:
    # values at the origin of the degree-filtration span everything
    from crprolong.exact import Matrix, rank

    def at_origin(field):
        return [c.terms.get((0,) * R.dim, QI(0)) for c in field.comps]

    vals = [at_origin(frame[0]), at_origin(frame[1])]
    fields = [frame[0], frame[1]]
    current = list(fields)
    for _ in range(2):
        new = []
        for f in current:
            for g in fields[:2]:
                new.append(vf_bracket(g, f))
        vals.extend(at_origin(f) for f in new)
        current = new
    assert rank(Matrix(vals)) == 5


def test_group_law_identity_and_inverse():
    """bch(a, 0) = a, bch(0, b) = b and bch(a, -a) = 0, read off the symbolic law on (a, b)."""
    R = realify(build_symbol_algebra(2).algebra)
    n = R.dim
    _, law = GroupLaw(R).symbolic()
    unit = [tuple(int(i == k) for i in range(2 * n)) for k in range(2 * n)]
    for k, p in enumerate(law):
        # b = 0 keeps the monomials in a alone, and a = 0 those in b alone
        assert {e: c for e, c in p.terms.items() if not any(e[n:])} == {unit[k]: QI(1)}
        assert {e: c for e, c in p.terms.items() if not any(e[:n])} == {unit[n + k]: QI(1)}
        # b = -a takes a^u·b^v to (-1)^|v|·a^(u + v)
        inverse = {}
        for e, c in p.terms.items():
            key = tuple(x + y for x, y in zip(e[:n], e[n:]))
            inverse[key] = inverse.get(key, QI(0)) + (c if sum(e[n:]) % 2 == 0 else -c)
        assert not any(inverse.values())


def _real_terms(polys):
    """Each Poly as {exponent tuple: Fraction}, checking that it is real."""
    assert not any(c.im for p in polys for c in p.terms.values())
    return [{e: c.re for e, c in p.terms.items()} for p in polys]


@pytest.mark.parametrize("case", [*range(1, 13), 16, *sorted(builtin_catalog())])
def test_law_and_frame_match_textbook_oracle(case):
    # an int is the default symbol of that codimension, a string a catalog model
    if isinstance(case, int):
        R = realify(build_symbol_algebra(case).algebra)
    else:
        R = realify(symbol_from_frame(builtin_catalog()[case]).algebra)
    n = R.dim
    table = {ij: {k: c.re for k, c in terms.items()} for ij, terms in R.table.items()}
    coords = [{tuple(int(t == i) for t in range(2 * n)): Fraction(1)} for i in range(2 * n)]
    expect = bch_law(bch_series(-min(R.degrees)), table, coords[:n], coords[n:])
    assert _real_terms(GroupLaw(R).symbolic()[1]) == expect
    assert [_real_terms(f.comps) for f in left_invariant_frame(R)] == left_invariant_fields(expect, n)


def _oracle_sides(R):
    """bch(bch(a, b), c) and bch(a, bch(b, c)) by the textbook oracle on 3N coordinates."""
    n = R.dim
    table = {ij: {k: c.re for k, c in terms.items()} for ij, terms in R.table.items()}
    series = bch_series(-min(R.degrees))
    coords = [{tuple(int(t == i) for t in range(3 * n)): Fraction(1)} for i in range(3 * n)]
    a, b, c = coords[:n], coords[n : 2 * n], coords[2 * n :]
    return bch_law(series, table, bch_law(series, table, a, b), c), bch_law(series, table, a, bch_law(series, table, b, c))


@pytest.mark.parametrize("k", [4, 7, 17])
def test_packed_three_argument_laws_match_oracle(k):
    # both sides unpacked from the narrow bit fields: an exponent that
    # overflowed its field would land in the next variable and show here.
    # At k = 17 (length 6) raising any one degree floor of GroupLaw._plan
    # by 1 changes a side; at k = 13..16 the degree -6 layer is too small
    # to show four of the 17 floors
    R = realify(build_symbol_algebra(k).algebra)
    n = R.dim
    left, right, width = GroupLaw(R)._associativity_sides()
    unpacked = [_real_terms([_decode(comp, den, 3 * n, width) for comp in comps]) for comps, den in (left, right)]
    expect_left, expect_right = _oracle_sides(R)
    assert unpacked == [expect_left, expect_right]
    assert expect_left == expect_right


def _pack(*exps, width=2):
    return sum(x << (width * i) for i, x in enumerate(exps))


def test_mirror_swaps_the_outer_groups_and_signs_by_degree():
    # -f(-z, -y, -x) of f(x, y, z) on three groups of two variables, 2-bit
    # exponent fields: x and z trade places, y stays, and each term takes the
    # sign (-1)^(deg+1)
    f = [
        {_pack(1, 0, 0, 0, 0, 0): 3, _pack(0, 1, 2, 0, 1, 1): 5},
        {_pack(1, 1, 0, 0, 0, 0): 7, _pack(0, 0, 0, 0, 0, 0): 2, _pack(0, 0, 3, 0, 0, 0): -4},
    ], 6
    want = [
        {_pack(0, 0, 0, 0, 1, 0): 3, _pack(1, 1, 2, 0, 0, 1): 5},
        {_pack(0, 0, 0, 0, 1, 1): -7, _pack(0, 0, 0, 0, 0, 0): -2, _pack(0, 0, 3, 0, 0, 0): -4},
    ], 6
    assert bch._mirror(f, 3, 2, 2) == want
    assert bch._mirror(want, 3, 2, 2) == f
    # on two groups of one variable: x + y is fixed, x·y is not
    assert bch._mirror(([{_pack(1, 0): 1, _pack(0, 1): 1}], 1), 2, 1, 2) == ([{_pack(0, 1): 1, _pack(1, 0): 1}], 1)
    assert bch._mirror(([{_pack(1, 1): 1}], 2), 2, 1, 2) == ([{_pack(1, 1): -1}], 2)


def _doubled(k):
    """The k real form with [x, e2_1] doubled: a graded bilinear table that fails Jacobi."""
    R = realify(build_symbol_algebra(k).algebra)
    x, e = R.labels.index("x"), R.labels.index("e2_1")
    return replaced_bracket(R, x, e, {t: 2 * c for t, c in R.table[(x, e)].items()})


@pytest.mark.parametrize("doubled, calls", [(False, 1), (True, 2)], ids=["real-form", "doubled-bracket"])
def test_associativity_sides_evaluate_the_left_side_only_off_the_symmetry(monkeypatch, doubled, calls):
    # the right side is bch(a, b) composed with bch(b, c), so the law is
    # evaluated once; the k = 7 real form passes bch(x, y) = -bch(-y, -x), so
    # its left side is read off the right, and the doubled-bracket table fails
    # it and evaluates the left side too
    law = GroupLaw(_doubled(7) if doubled else realify(build_symbol_algebra(7).algebra))
    seen = []
    apply = GroupLaw._apply
    monkeypatch.setattr(GroupLaw, "_apply", lambda self, *args: seen.append(args) or apply(self, *args))
    left, right, _ = law._associativity_sides()
    assert len(seen) == calls
    assert (left == right) is not doubled


@pytest.mark.parametrize(
    "k, doubled",
    [(4, False), (7, False), (12, False), *(pytest.param(k, False, marks=pytest.mark.slow) for k in (21, 30, 39)), (7, True)],
)
def test_compose_equals_the_law_on_the_inner_vector(k, doubled):
    # bch(a, y) with y := bch(b, c) substituted is bch(a, bch(b, c)) evaluated
    # by the series, term for term in lowest terms, Jacobi or not
    R = _doubled(k) if doubled else realify(build_symbol_algebra(k).algebra)
    law = GroupLaw(R)
    n, width = R.dim, law._width
    a, b, c = law._variables(3, width)
    bc = law._apply(b, c)
    assert bch._compose(law._apply(a, b), bc, width * n, width) == law._apply(a, bc)


def test_apply_on_no_words_is_zero():
    # an empty word list is no request for the whole series
    R = realify(build_symbol_algebra(4).algebra)
    law = GroupLaw(R)
    a, b = law._variables(2, law._width)
    assert law._apply(a, b, []) == ([{}] * R.dim, 1)
    assert law._apply(a, b, None) == law._apply(a, b) != law._apply(a, b, [])


def test_ungraded_table_is_refused():
    # [p, q] lands in degree -1, not -2
    A = GradedLieAlgebra(["p", "q", "t"], [-1, -1, -2], {(0, 1): {0: QI(1)}})
    with pytest.raises(ValueError, match="group law needs a graded algebra"):
        GroupLaw(A)


@pytest.mark.parametrize("k", [4, 5, 7])
def test_doubled_bracket_breaks_jacobi_and_associativity(k):
    # negative control: doubling [x, e2_1] in a real form with a degree -4
    # layer leaves a bracket table that is no Lie algebra
    bad = _doubled(k)
    assert check_jacobi(bad)
    residual = GroupLaw(bad).associativity_residual()
    assert not all(p.is_zero() for p in residual)
    if k == 4:
        left, right = _oracle_sides(bad)
        assert _real_terms(residual) == [assoc_add(l, r, -1) for l, r in zip(left, right)]


def test_complex_scalars_are_refused():
    A = GradedLieAlgebra(["p", "q", "t"], [-1, -1, -2], {(0, 1): {2: QI(0, 1)}})
    with pytest.raises(ValueError, match="real structure constants"):
        GroupLaw(A)


@pytest.mark.slow
def test_associativity_k30_real_form():
    """Opt-in (``pytest -m slow``): the group law of the k = 30 real form (dim 32, class 7)."""
    law = GroupLaw(realify(build_symbol_algebra(30).algebra))
    assert law.cap == 7
    assert all(p.is_zero() for p in law.associativity_residual())
