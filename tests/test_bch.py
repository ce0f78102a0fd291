from fractions import Fraction

import pytest

from crprolong.bch import GroupLaw, NotNilpotent, bch_series, left_invariant_frame
from crprolong.exact import QI
from crprolong.frames import builtin_catalog, symbol_from_frame
from crprolong.liealg import GradedLieAlgebra, build_symbol_algebra, check_jacobi, realify
from crprolong.poly import Poly, vf_bracket
from oracles import assoc_add, bch_law, expand_commutator, left_invariant_fields, replaced_bracket


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
    series = bch_series(cap)
    expanded = {}
    for word, coeff in series:
        from crprolong.freelie import standard_tree

        expanded = assoc_add(expanded, expand_commutator(standard_tree(word)), coeff)
    expanded = {w: c for w, c in expanded.items() if len(w) <= cap}
    # rebuild log(exp X exp Y) directly
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
    log = {w: c for w, c in log.items() if c}
    assert expanded == log


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
    R = realify(build_symbol_algebra(2).algebra)
    law = GroupLaw(R)
    n = R.dim
    avec = [Poly.var(n, i) for i in range(n)]
    zero = [Poly.zero(n) for _ in range(n)]
    assert law.apply(avec, zero) == avec
    assert law.apply(zero, avec) == avec
    neg = [p.scale(-1) for p in avec]
    assert all(p.is_zero() for p in law.apply(avec, neg))


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


@pytest.mark.parametrize("k", [4, 5, 7])
def test_doubled_bracket_breaks_jacobi_and_associativity(k):
    # negative control: doubling [x, e2_1] in a real form with a degree -4
    # layer leaves a bracket table that is no Lie algebra
    R = realify(build_symbol_algebra(k).algebra)
    x, e = R.labels.index("x"), R.labels.index("e2_1")
    bad = replaced_bracket(R, x, e, {t: 2 * c for t, c in R.table[(x, e)].items()})
    assert check_jacobi(bad)
    assert not all(p.is_zero() for p in GroupLaw(bad).associativity_residual())


def test_complex_scalars_are_refused():
    A = GradedLieAlgebra(["p", "q", "t"], [-1, -1, -2], {(0, 1): {2: QI(0, 1)}})
    with pytest.raises(ValueError, match="real structure constants"):
        GroupLaw(A)
    law = GroupLaw(realify(build_symbol_algebra(1).algebra))
    avec = [Poly.var(3, i) for i in range(3)]
    with pytest.raises(ValueError, match="real polynomial coefficients"):
        law.apply(avec, [p.scale(QI(0, 1)) for p in avec])


@pytest.mark.slow
def test_associativity_k30_real_form():
    """Opt-in (``pytest -m slow``): the group law of the k = 30 real form (dim 32, class 7)."""
    law = GroupLaw(realify(build_symbol_algebra(30).algebra))
    assert law.cap == 7
    assert all(p.is_zero() for p in law.associativity_residual())
