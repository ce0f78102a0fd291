import json
import random
from fractions import Fraction

import pytest
from oracles import dense_bracket, dense_structure_constants, jacobi_violations, replaced_bracket

from crprolong import liealg
from crprolong.exact import QI, Matrix
from crprolong.liealg import (
    BadQuotient,
    GradedLieAlgebra,
    MissingJ,
    NotSelfConjugate,
    QuotientSpec,
    _acts_faithfully,
    build_symbol_algebra,
    check_grading,
    check_jacobi,
    first_bracket_mismatch,
    is_fundamental,
    is_nondegenerate_symbol,
    is_pseudocomplex,
    real_form,
    realify,
)
from crprolong.freelie import witt_dim
from crprolong.prolong import LEVI_TANAKA, full_prolongation

I = QI(0, 1)
J_STANDARD = Matrix([[0, -1], [1, 0]])


def heisenberg_real():
    return GradedLieAlgebra(
        ["x", "y", "t"], [-1, -1, -2], {(0, 1): {2: 1}}, J=J_STANDARD, scalar_tag="Q"
    )


def abelian(labels, degrees):
    return GradedLieAlgebra(labels, degrees, {})


def test_jacobi_pass_abelian_and_heisenberg():
    assert check_jacobi(abelian(["a", "b", "c"], [-1, -1, -2])) == []
    assert check_jacobi(heisenberg_real()) == []


def test_jacobi_corrupted_constant_reports_triple():
    sl2 = GradedLieAlgebra(
        ["e", "f", "h"], [1, -1, 0], {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}
    )
    assert check_jacobi(sl2) == []
    bad = replaced_bracket(sl2, 0, 2, {0: QI(-3)})
    violations = check_jacobi(bad)
    assert len(violations) == 1
    assert violations[0][:3] == (0, 1, 2)


def test_jacobi_corrupted_symbol_algebra():
    S = build_symbol_algebra(6)
    # redirect [L1_1, L2_3] to the wrong length-3 word
    bad = replaced_bracket(S.algebra, 0, 2, {4: QI(1)})
    assert check_jacobi(bad), "corruption must surface as a Jacobi violation"


def _pair_table(algebra):
    return {ij: {k: (c.re, c.im) for k, c in terms.items()} for ij, terms in algebra.table.items()}


def _levi_tanaka(k):
    return full_prolongation(realify(build_symbol_algebra(k).algebra), LEVI_TANAKA).algebra


SL2 = ["e", "f", "h"], [1, -1, 0], {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}

JACOBI_CASES = {
    **{f"symbol-k{k}": lambda k=k: build_symbol_algebra(k).algebra for k in range(2, 9)},
    **{f"real-k{k}": lambda k=k: realify(build_symbol_algebra(k).algebra) for k in range(2, 9)},
    "levi-tanaka-k1": lambda: _levi_tanaka(1),
    "levi-tanaka-k5": lambda: _levi_tanaka(5),
    "corrupted-sl2": lambda: replaced_bracket(GradedLieAlgebra(*SL2), 0, 2, {0: QI(-3)}),
    "corrupted-k6": lambda: replaced_bracket(build_symbol_algebra(6).algebra, 0, 2, {4: QI(1)}),
    # [e0, e1] gains an e1 term: the grading breaks, and the violating
    # triple (0, 1, 2) has degree sum -4, below the lowest degree -3
    "ungraded-k2": lambda: replaced_bracket(build_symbol_algebra(2).algebra, 0, 1, {1: QI(1), 2: QI(1)}),
}


@pytest.mark.parametrize("name", JACOBI_CASES)
def test_jacobi_matches_dense_oracle(name):
    algebra = JACOBI_CASES[name]()
    expected = jacobi_violations(algebra.dim, _pair_table(algebra))
    got = {(i, j, k): [(x.re, x.im) for x in acc] for i, j, k, acc in check_jacobi(algebra)}
    assert got == expected
    assert bool(expected) == name.startswith(("corrupted", "ungraded"))
    if name == "ungraded-k2":
        assert check_grading(algebra)
        floor = min(algebra.degrees)
        assert any(sum(algebra.degrees[t] for t in ijk) < floor for ijk in got)


def _random_sparse_vector(rng, n):
    """A seeded {index: coefficient} vector without zeros."""
    density = rng.choice((0.0, 0.2, 0.5, 1.0))
    out = {}
    for i in range(n):
        if rng.random() < density:
            x = QI(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
            if x:
                out[i] = x
    return out


def _dense_pairs(v, n):
    return [(v.get(i, QI(0)).re, v.get(i, QI(0)).im) for i in range(n)]


def test_bracket_vec_matches_dense_oracle():
    rng = random.Random(6011)
    A = build_symbol_algebra(7).algebra
    for algebra in (A, realify(A), _levi_tanaka(5)):
        n = algebra.dim
        C = dense_structure_constants(n, _pair_table(algebra))
        pairs = [({}, {}), ({}, _random_sparse_vector(rng, n))]
        pairs += [(_random_sparse_vector(rng, n), _random_sparse_vector(rng, n)) for _ in range(25)]
        for u, v in pairs:
            got = algebra.bracket_vec(u, v)
            assert all(got.values())
            assert _dense_pairs(got, n) == dense_bracket(C, _dense_pairs(u, n), _dense_pairs(v, n))
            assert algebra.bracket_vec(v, u) == {k: -x for k, x in got.items()}


def test_first_bracket_mismatch_finds_planted_pair():
    A = build_symbol_algebra(5).algebra
    rf = real_form(A)
    identity = Matrix.identity(A.dim)
    assert first_bracket_mismatch(A, A, identity) is None
    assert first_bracket_mismatch(rf.algebra, A, rf.embedding) is None
    assert first_bracket_mismatch(A, replaced_bracket(A, 2, 4, {6: QI(3)}), identity) == (2, 4)
    assert first_bracket_mismatch(replaced_bracket(A, 1, 4, {}), A, identity) == (1, 4)
    planted = replaced_bracket(rf.algebra, 1, 2, {3: QI(5)})
    assert first_bracket_mismatch(planted, A, rf.embedding) == (1, 2)


def test_acts_faithfully_when_no_bracket_reaches():
    A = abelian(["x", "y", "t"], [-1, -1, -2])
    assert not _acts_faithfully(A, [0, 1], [0, 1, 2])
    assert not _acts_faithfully(heisenberg_real(), [0, 1], [])
    assert not _acts_faithfully(heisenberg_real(), [2], [0, 1, 2])
    assert _acts_faithfully(heisenberg_real(), [], [0, 1])
    assert _acts_faithfully(heisenberg_real(), [0, 1], [0, 1])


def test_grading_check():
    assert check_grading(heisenberg_real()) == []
    bad = replaced_bracket(heisenberg_real(), 0, 1, {0: QI(1)})
    assert check_grading(bad)


def test_is_fundamental():
    assert is_fundamental(heisenberg_real())
    # direct sum with an extra central line in degree -2 is not generated
    bigger = GradedLieAlgebra(["x", "y", "t", "s"], [-1, -1, -2, -2], {(0, 1): {2: 1}})
    assert not is_fundamental(bigger)
    assert is_fundamental(build_symbol_algebra(3).algebra)
    with pytest.raises(ValueError):
        is_fundamental(GradedLieAlgebra(["a"], [0], {}))


def test_generating_expressions_computed_once_per_algebra(monkeypatch):
    A = build_symbol_algebra(5).algebra
    fundamental = GradedLieAlgebra(A.labels, A.degrees, A.table)
    not_fundamental = GradedLieAlgebra(["x", "y", "t", "s"], [-1, -1, -2, -2], {(0, 1): {2: 1}})
    calls = []
    rref = liealg._rref

    def counted(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(liealg, "_rref", counted)
    for algebra in (fundamental, not_fundamental):
        first = liealg._generating_expressions(algebra)
        made = len(calls)
        assert made
        assert liealg._generating_expressions(algebra) is first
        assert len(calls) == made
    assert liealg._generating_expressions(not_fundamental) is None
    graded_at_zero = GradedLieAlgebra(["a"], [0], {})
    for _ in range(2):
        with pytest.raises(ValueError):
            liealg._generating_expressions(graded_at_zero)


def test_is_nondegenerate():
    assert is_nondegenerate_symbol(heisenberg_real())
    assert not is_nondegenerate_symbol(abelian(["x", "y", "t"], [-1, -1, -2]))


def test_is_pseudocomplex():
    assert is_pseudocomplex(heisenberg_real())
    with pytest.raises(MissingJ):
        is_pseudocomplex(abelian(["x", "y"], [-1, -1]))


def test_is_pseudocomplex_rejects_a_j_that_breaks_the_bracket():
    # [x1, y1] = [x2, y2] = t.  On a 2-dimensional g_-1 every J with J² = -1
    # has det 1 and keeps the bracket, so a negative control needs g_-1 of
    # dimension 4.  Columns give J on (x1, y1, x2, y2).
    def heisenberg5(J):
        return GradedLieAlgebra(
            ["x1", "y1", "x2", "y2", "t"], [-1, -1, -1, -1, -2], {(0, 1): {4: 1}, (2, 3): {4: 1}}, J=Matrix(J)
        )

    # J x1 = y1, J x2 = y2
    assert is_pseudocomplex(heisenberg5([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]))
    # J x1 = y2, J y1 = x2, J x2 = -y1, J y2 = -x1, so [J x1, J y1] = [y2, x2] = -t
    assert not is_pseudocomplex(heisenberg5([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]))


def test_bad_j_rejected_at_construction():
    with pytest.raises(ValueError):
        GradedLieAlgebra(["x", "y"], [-1, -1], {}, J=Matrix([[1, 1], [0, 1]]))


def complex_heisenberg(center_sign, c=1):
    """[g1, g2] = c·t; the conjugation swaps g1, g2 and sends t to center_sign·t."""
    swap = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, center_sign]])
    return GradedLieAlgebra(["g1", "g2", "t"], [-1, -1, -2], {(0, 1): {2: c}}, conjugation=swap)


def test_conjugation_accepted_at_construction():
    # sigma[g1, g2] = [g2, g1] = -c·t, and sigma(c·t) = conj(c)·sigma(t)
    assert real_form(complex_heisenberg(-1)).algebra.table == {(0, 1): {2: QI(-2)}}
    assert complex_heisenberg(1, I).conjugation is not None


@pytest.mark.parametrize(
    "make",
    [
        lambda: GradedLieAlgebra(["a", "b"], [-1, -1], {}, conjugation=Matrix([[0, 1, 0], [1, 0, 0]])),
        lambda: GradedLieAlgebra(["a", "b"], [-1, -2], {}, conjugation=Matrix([[0, 1], [1, 0]])),
        lambda: GradedLieAlgebra(["a", "b"], [-1, -1], {}, conjugation=Matrix([[0, 1], [-1, 0]])),
        lambda: complex_heisenberg(1),
    ],
    ids=["not-square", "mixes-degrees", "not-involution", "not-bracket-morphism"],
)
def test_bad_conjugation_rejected_at_construction(make):
    with pytest.raises(NotSelfConjugate):
        make()


def test_flipped_conjugation_entry_rejected_from_json():
    obj = json.loads(build_symbol_algebra(3).to_json())
    entry = next(x for row in obj["conjugation"] for x in row if x["re"] != "0")
    entry["re"] = str(-int(entry["re"]))
    with pytest.raises(NotSelfConjugate):
        GradedLieAlgebra.from_json_dict(obj)


def test_conjugation_checked_once_per_theorem_input(monkeypatch):
    calls = []
    original = liealg.first_bracket_mismatch

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(liealg, "first_bracket_mismatch", counting)
    real_form(build_symbol_algebra(4).algebra)
    assert len(calls) == 1


def test_replaced_bracket_drops_conjugation_keeps_j():
    A = build_symbol_algebra(4).algebra
    bad = replaced_bracket(A, 0, 1, {2: QI(2)})
    assert bad.conjugation is None
    assert bad.J == A.J


def test_symbol_algebra_dimensions():
    S1 = build_symbol_algebra(1)
    assert S1.length == 2 and S1.dims_by_degree() == (2, 1)
    S2 = build_symbol_algebra(2)
    assert S2.length == 3 and S2.dims_by_degree() == (2, 1, 1)
    S3 = build_symbol_algebra(3)
    assert S3.length == 3 and S3.dims_by_degree() == (2, 1, 2)
    # k=3 is the full free nilpotent algebra: no quotient rows at all
    assert S3.quotient.rows == ()


def test_default_quotient_k2_identifies_top_words():
    S = build_symbol_algebra(2)
    labels = S.algebra.labels
    assert labels == ("L1_1", "L1_2", "L2_3", "L3_4")
    # retained word is 112; the other length-3 word reduces to +L3_4
    assert [w.word for w in S.retained_top] == [(1, 1, 2)]
    assert S.algebra.bracket_basis(0, 2) == {3: QI(1)}
    assert S.algebra.bracket_basis(1, 2) == {3: QI(-1)}


def test_symbol_invariant_sweep():
    for k in range(1, 13):
        S = build_symbol_algebra(k)
        A = S.algebra
        assert A.dim == 2 + k
        assert check_jacobi(A) == [] and check_grading(A) == []
        assert is_fundamental(A) and is_nondegenerate_symbol(A)
        for ell in range(1, S.length):
            assert len(A.indices_of_degree(-ell)) == witt_dim(ell)
        R = realify(A)
        assert is_pseudocomplex(R)
        assert is_fundamental(R) and is_nondegenerate_symbol(R)
        assert all(not c.im for t in R.table.values() for c in t.values())


def test_bad_quotient_wrong_rank():
    with pytest.raises(BadQuotient):
        build_symbol_algebra(2, QuotientSpec(kind="explicit", rows=((QI(0), QI(1)), (QI(1), QI(0)))))


def test_bad_quotient_outside_top_layer():
    with pytest.raises(BadQuotient):
        build_symbol_algebra(2, QuotientSpec(kind="explicit", rows=((QI(1), QI(0), QI(0)),)))


def test_raw_trailing_quotient_loses_conjugation():
    # killing the single trailing Hall word is not conjugation-stable
    S = build_symbol_algebra(2, QuotientSpec(kind="explicit", rows=((QI(0), QI(1)),)))
    assert S.algebra.conjugation is None
    with pytest.raises(NotSelfConjugate):
        realify(S.algebra)


def test_complex_quotient_row_keeps_conjugation():
    # the swap sends conj((1, i)) = (1, -i) to (-i, 1) = -i·(1, i): stable
    S = build_symbol_algebra(2, QuotientSpec(kind="explicit", rows=((QI(1), I),)))
    assert S.algebra.conjugation is not None
    assert all(not c.im for t in realify(S.algebra).table.values() for c in t.values())


def test_realify_heisenberg():
    rf = real_form(build_symbol_algebra(1).algebra)
    R = rf.algebra
    assert R.labels == ("x", "y", "e2_1")
    assert R.degrees == (-1, -1, -2)
    # x = g1 + g2, y = i(g1 - g2), center i·[g1,g2]; [x, y] = -2·center
    assert R.table == {(0, 1): {2: QI(-2)}}
    assert R.J == J_STANDARD
    assert rf.embedding.column(0) == [QI(1), QI(1), QI(0)]
    assert rf.embedding.column(1) == [I, -I, QI(0)]
    assert rf.embedding.column(2) == [QI(0), QI(0), I]


def test_realify_abelian():
    A = GradedLieAlgebra(
        ["a", "b"], [-1, -1], {}, conjugation=Matrix([[0, 1], [1, 0]]), J=Matrix([[I, 0], [0, -I]])
    )
    R = realify(A)
    assert R.table == {}
    assert R.labels == ("x", "y")


def test_realify_round_trip_is_isomorphism():
    # the embedding of the real form back into the complex algebra is a
    # Lie morphism on the distinguished basis
    for k in (1, 2, 4):
        A = build_symbol_algebra(k).algebra
        rf = real_form(A)
        R = rf.algebra
        cols = [rf.embedding.column(i) for i in range(R.dim)]
        sparse = [{t: x for t, x in enumerate(col) if x} for col in cols]
        for i in range(R.dim):
            for j in range(i + 1, R.dim):
                lhs = A.bracket_vec(sparse[i], sparse[j])
                rhs = [QI(0)] * A.dim
                for t, c in R.bracket_basis(i, j).items():
                    rhs = [x + c * y for x, y in zip(rhs, cols[t])]
                assert lhs == {t: x for t, x in enumerate(rhs) if x}


def test_realify_requires_conjugation():
    with pytest.raises(NotSelfConjugate):
        realify(heisenberg_real())


def test_json_round_trip_algebra():
    for k in (1, 3, 5):
        S = build_symbol_algebra(k)
        obj = json.loads(S.to_json())
        back = GradedLieAlgebra.from_json_dict(obj)
        assert back == S.algebra
        assert obj["meta"]["k"] == k
    # basis words serialize as nested integer pairs
    obj = json.loads(build_symbol_algebra(2).to_json())
    assert obj["meta"]["words"] == [1, 2, [1, 2], [1, [1, 2]]]


def test_json_round_trip_quotient_spec():
    spec = build_symbol_algebra(4).quotient
    back = QuotientSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert back == spec


def test_json_canonical_ordering_is_diff_stable():
    a = build_symbol_algebra(5).to_json()
    b = build_symbol_algebra(5).to_json()
    assert a == b
