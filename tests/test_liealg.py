import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import (
    C_ZERO,
    bracket_mismatches,
    c_sub,
    dense_bracket,
    dense_kernel,
    dense_real_form,
    dense_rref,
    dense_structure_constants,
    jacobi_violations,
    replaced_bracket,
)
from coordinates import block_coordinates
from quotients import random_quotient, unstable_quotient

from crprolong import exact, liealg
from crprolong.crmodels import build_aut_cr, verify_theorem
from crprolong.exact import QI, Echelon, Matrix
from crprolong.frames import builtin_catalog, symbol_from_frame
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
    conjugation_adapted_top_basis,
    first_bracket_mismatch,
    is_fundamental,
    is_nondegenerate_symbol,
    is_pseudocomplex,
    real_form,
    realify,
)
from crprolong.freelie import conjugate_tree, cumulative_dim, hall_basis, tree_normal_form, witt_dim
from crprolong.prolong import FULL_TANAKA, LEVI_TANAKA, full_prolongation, grade0

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


def _aut(k):
    return build_aut_cr(build_symbol_algebra(k)).algebra


SL2 = ["e", "f", "h"], [1, -1, 0], {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}

JACOBI_CASES = {
    **{f"symbol-k{k}": lambda k=k: build_symbol_algebra(k).algebra for k in range(2, 9)},
    **{f"real-k{k}": lambda k=k: realify(build_symbol_algebra(k).algebra) for k in range(2, 9)},
    "levi-tanaka-k1": lambda: _levi_tanaka(1),
    "levi-tanaka-k5": lambda: _levi_tanaka(5),
    # the aut_CR gate: grade 0 is {d} at k = 7 (real-alpha) and {d, r} at k = 8 (complex-alpha)
    "aut-k7": lambda: _aut(7),
    "aut-k8": lambda: _aut(8),
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


@pytest.mark.parametrize("rows, cols", [(9, 5), (3, 3), (5, 4), (4, 5)])
def test_first_bracket_mismatch_refuses_a_map_of_the_wrong_shape(rows, cols):
    """P must be dst.dim x src.dim: a 9 x 5 map of unit columns into a 5-dimensional algebra is no homomorphism into it."""
    A = build_symbol_algebra(3).algebra
    assert A.dim == 5
    p = Matrix.sparse(rows, [{j % rows: 1} for j in range(cols)])
    with pytest.raises(ValueError, match=f"^P must be 5x5, got {rows}x{cols}$"):
        first_bracket_mismatch(A, A, p)


def _dense_rows(m):
    return [[(x.re, x.im) for x in row] for row in m.data]


def _conjugated(algebra):
    """A copy with conjugated structure constants: the source side of the conjugation check."""
    return GradedLieAlgebra(algebra.labels, algebra.degrees, {ij: {k: c.conj() for k, c in t.items()} for ij, t in algebra.table.items()})


def _flipped(m):
    """``m`` with the sign of the last nonzero entry of its last column flipped."""
    cols = [m.sparse_column(j) for j in range(m.cols)]
    t = max(cols[-1])
    cols[-1][t] = -cols[-1][t]
    return Matrix.sparse(m.rows, cols)


@pytest.mark.parametrize("k", range(2, 9))
def test_first_bracket_mismatch_matches_dense_oracle(k):
    S = build_symbol_algebra(k)
    A = S.algebra
    rf = real_form(A)
    aut = build_aut_cr(S).algebra
    hall = full_prolongation(A, LEVI_TANAKA)
    prolonged = hall.algebra
    # the map verify_theorem checks: the identity on g_-, d and r to the G^0 elements with degree -1 blocks -I and -J
    g0 = hall.components[0]
    grade0 = [c for c in (block_coordinates(g0, -Matrix.identity(2)), block_coordinates(g0, -A.J)) if c is not None]
    iso = Matrix.sparse(hall.dim, [{i: 1} for i in range(A.dim)] + [{A.dim + p: c for p, c in enumerate(x)} for x in grade0])
    x, y = rf.algebra.indices_of_degree(-1)
    planted = replaced_bracket(rf.algebra, x, y, {t: 2 * c for t, c in rf.algebra.table[(x, y)].items()})
    last = max(prolonged.table)
    cases = {
        "conjugation": (_conjugated(A), A, A.conjugation),
        "real-form": (rf.algebra, A, rf.embedding),
        "theorem": (aut, prolonged, iso),
        # negative controls: a planted pair on either side, and one flipped conjugation entry
        "planted-src": (planted, A, rf.embedding),
        "planted-dst": (aut, replaced_bracket(prolonged, *last, {}), iso),
        "flipped-conjugation": (_conjugated(A), A, _flipped(A.conjugation)),
    }
    for name, (src, dst, p) in cases.items():
        expected = bracket_mismatches(src.dim, _pair_table(src), _pair_table(dst), _dense_rows(p))
        assert bool(expected) == (name not in ("conjugation", "real-form", "theorem")), name
        assert first_bracket_mismatch(src, dst, p) == (expected[0] if expected else None), name
    assert first_bracket_mismatch(planted, A, rf.embedding) == (x, y)
    with pytest.raises(NotSelfConjugate):
        GradedLieAlgebra(A.labels, A.degrees, A.table, conjugation=_flipped(A.conjugation))


def test_acts_faithfully_when_no_bracket_reaches():
    A = abelian(["x", "y", "t"], [-1, -1, -2])
    assert not _acts_faithfully(A, [0, 1], [0, 1, 2])
    assert not _acts_faithfully(heisenberg_real(), [0, 1], [])
    assert not _acts_faithfully(heisenberg_real(), [2], [0, 1, 2])
    assert _acts_faithfully(heisenberg_real(), [], [0, 1])
    assert _acts_faithfully(heisenberg_real(), [0, 1], [0, 1])


def _faithful_oracle(n, table, acting, on):
    """Whether the dense matrix of [e_g, e_x]_t, rows (x, t) and columns g in ``acting``, has full column rank over Q(i)."""
    C = dense_structure_constants(n, table)
    rows = [[C[g][x][t] for g in acting] for x in on for t in range(n)]
    return len(dense_rref(rows, range(len(acting)))[0]) == len(acting)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_acts_faithfully_matches_a_dense_rank_oracle(complex_entries):
    """Seeded sparse tables, acting and acted-on sets: ``_acts_faithfully`` agrees with a dense rank over Q(i)."""
    rng = random.Random(4701 + complex_entries)
    verdicts = set()
    for _ in range(60):
        n = rng.randint(2, 7)
        density = rng.choice((0.15, 0.3, 0.6))
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                terms = {}
                for k in range(n):
                    if rng.random() < density:
                        re, im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if complex_entries else Fraction(0)
                        if re or im:
                            terms[k] = (re, im)
                if terms:
                    table[i, j] = terms
        algebra = GradedLieAlgebra([f"e{i}" for i in range(n)], [-1] * n, {ij: {k: QI(*z) for k, z in terms.items()} for ij, terms in table.items()})
        acting, on = sorted(rng.sample(range(n), rng.randint(0, n))), sorted(rng.sample(range(n), rng.randint(0, n)))
        got = _acts_faithfully(algebra, acting, on)
        assert got == _faithful_oracle(n, table, acting, on)
        verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("case", ["aut12", "g2"])
def test_acts_faithfully_stops_at_the_row_that_completes_the_rank(monkeypatch, case):
    """The transitivity gate reads its rows only up to the one that completes the rank.

    On aut_CR of the k = 12 symbol, d and r act on e_0 and e_1 by complex
    rows, which have full rank after two; the real G2 prolongation of the
    realified k = 3 symbol has 9 nonnegative basis vectors.
    """
    if case == "aut12":
        aut = build_aut_cr(build_symbol_algebra(12)).algebra
    else:
        aut = full_prolongation(realify(build_symbol_algebra(3).algebra), FULL_TANAKA).algebra
    acting = [i for i, d in enumerate(aut.degrees) if d >= 0]
    on = [i for i, d in enumerate(aut.degrees) if d < 0]
    read, reduce = [], liealg._gaussian_reduce

    def counted(rows, width):
        def recording():
            for row in rows:
                read.append(row)
                yield row

        return reduce(recording(), width)

    monkeypatch.setattr(liealg, "_gaussian_reduce", counted)
    assert _acts_faithfully(aut, acting, on)
    table = {ij: {k: (c.re, c.im) for k, c in terms.items()} for ij, terms in aut.table.items()}
    C = dense_structure_constants(aut.dim, table)
    every = [row for x in on for t in range(aut.dim) if any(row := [C[g][x][t] for g in acting])]
    dense = [[(Fraction(row.get(u, 0)), Fraction(row.get(~u, 0))) for u in range(len(acting))] for row in read]
    assert any(u < 0 for row in read for u in row) == (case == "aut12")
    assert len(dense_rref(dense, range(len(acting)))[0]) == len(acting) > len(dense_rref(dense[:-1], range(len(acting)))[0])
    assert len(read) < len(every)


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
    reduce = liealg._gaussian_reduce

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(liealg, "_gaussian_reduce", counted)
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
    original = liealg._table_mismatch

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(liealg, "_table_mismatch", counting)
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
    assert [w.word for w in S.words[cumulative_dim(S.length - 1):]] == [(1, 1, 2)]
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
    assert rf.embedding.sparse_column(0) == {0: QI(1), 1: QI(1)}
    assert rf.embedding.sparse_column(1) == {0: I, 1: -I}
    assert rf.embedding.sparse_column(2) == {2: I}


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
        cols = list(zip(*rf.embedding.data))
        sparse = [rf.embedding.sparse_column(i) for i in range(R.dim)]
        for i in range(R.dim):
            for j in range(i + 1, R.dim):
                lhs = A.bracket_vec(sparse[i], sparse[j])
                rhs = [QI(0)] * A.dim
                for t, c in R.bracket_basis(i, j).items():
                    rhs = [x + c * y for x, y in zip(rhs, cols[t])]
                assert lhs == {t: x for t, x in enumerate(rhs) if x}


# -- conjugation_adapted_top_basis against the dense oracle in tests/oracles.py --


def _dense_top_conjugation(rho):
    """The generator swap S on the top Hall layer, as dense rows of (re, im) pairs."""
    top = [w for w in hall_basis(rho).words if w.length == rho]
    pos = {w.word: p for p, w in enumerate(top)}
    rows = [[C_ZERO] * len(top) for _ in top]
    for b, w in enumerate(top):
        for word, c in tree_normal_form(conjugate_tree(w.tree)).items():
            rows[pos[word]][b] = (Fraction(c), Fraction(0))
    return rows


def _oracle_adapted_basis(rho):
    """Kernels of S - I (tag +1) and S + I (tag -1), signed and ordered as documented."""
    s = _dense_top_conjugation(rho)
    tagged = []
    for tag in (1, -1):
        diagonal = (Fraction(tag), Fraction(0))
        shifted = [[c_sub(x, diagonal) if a == b else x for b, x in enumerate(row)] for a, row in enumerate(s)]
        for v in dense_kernel(shifted, len(s)):
            lead = next(p for p, x in enumerate(v) if x != C_ZERO)
            sign = 1 if v[lead][0] > 0 else -1
            tagged.append((lead, -tag, tuple(QI(sign * x[0], sign * x[1]) for x in v), tag))
    tagged.sort(key=lambda t: t[:2])
    return tuple((v, tag) for _, _, v, tag in tagged)


@pytest.mark.parametrize("rho", [*range(2, 9), *(pytest.param(rho, marks=pytest.mark.slow) for rho in (9, 10))])
def test_conjugation_adapted_top_basis_matches_dense_oracle(rho):
    """Same vectors, tags, signs and order as the reduced kernels of S - I and S + I, and S·v = tag·v."""
    adapted = conjugation_adapted_top_basis(rho)
    assert adapted == _oracle_adapted_basis(rho)
    assert conjugation_adapted_top_basis(rho) is adapted  # built once per length, immutable
    assert len(adapted) == witt_dim(rho)
    s = [(a, b, QI(*x)) for a, row in enumerate(_dense_top_conjugation(rho)) for b, x in enumerate(row) if x != C_ZERO]
    for v, tag in adapted:
        assert all(not x.im for x in v)
        image = [QI(0)] * len(v)
        for a, b, c in s:
            image[a] += c * v[b]
        assert image == [tag * x for x in v]


# -- real_form against the dense oracle in tests/oracles.py, and its negative controls --


REAL_FORM_CASES = (
    [f"k{k}" for k in (*range(1, 13), 21, 22)]
    + [f"catalog-{name}" for name in sorted(builtin_catalog())]
    + [f"random-k{k}-s{seed}" for k in (2, 4, 7, 9, 11) for seed in (1, 2)]
)


def _real_form_case(name):
    if name.startswith("catalog-"):
        return symbol_from_frame(builtin_catalog()[name[len("catalog-"):]]).algebra
    if name.startswith("random-"):
        k, seed = (int(part[1:]) for part in name.split("-")[1:])
        algebra = build_symbol_algebra(k, random_quotient(k, seed)).algebra
        assert any(c.re.denominator > 1 or c.im.denominator > 1 for t in algebra.table.values() for c in t.values())
        return algebra
    return build_symbol_algebra(int(name[1:])).algebra


def _as_pairs(m):
    return [[(x.re, x.im) for x in row] for row in m.data]


@pytest.mark.parametrize("name", REAL_FORM_CASES)
def test_real_form_matches_dense_oracle(name):
    A = _real_form_case(name)
    table, J, E, _ = dense_real_form(
        A.degrees, _pair_table(A), _as_pairs(A.conjugation), _as_pairs(A.J) if A.J is not None else None
    )
    rf = real_form(A)
    assert all(not c.im for t in rf.algebra.table.values() for c in t.values())
    assert {ij: {k: c.re for k, c in t.items()} for ij, t in rf.algebra.table.items()} == table
    assert [[x.re for x in row] for row in rf.algebra.J.data] == J
    assert all(not x.im for row in rf.algebra.J.data for x in row)
    assert _as_pairs(rf.embedding) == E


def test_real_form_refuses_j_that_does_not_commute_with_conjugation():
    """J = [[0, -1], [1, 0]] in the coordinates g1, g2 sends x = g1 + g2 to i·y."""
    A = build_symbol_algebra(4).algebra
    bad = GradedLieAlgebra(A.labels, A.degrees, A.table, conjugation=A.conjugation, J=Matrix([[0, -1], [1, 0]]))
    with pytest.raises(NotSelfConjugate, match="^J does not restrict to the real form$"):
        real_form(bad)


def _corrupt_call(monkeypatch, call, corrupt):
    """Patch ``exact.integer_rref`` so that its ``call``-th result (from 0) has ``corrupt`` applied to its first row."""
    calls = []
    original = exact.integer_rref

    def patched(rows, width):
        pivots = original(rows, width)
        if len(calls) == call:
            col, row = pivots[0]
            pivots[0] = (col, corrupt(row))
        calls.append(rows)
        return pivots

    monkeypatch.setattr(exact, "integer_rref", patched)


def test_real_form_corrupted_kernel_row_fails_the_substitution_check(monkeypatch):
    """Degree -1 comes first: the fixed-point elimination reduces the image of F + I in the real columns (y2, y1, x2, x1).

    Its first pivot row is y2 - y1 (the vector -y = i(g2 - g1)), pivoted
    at column 0; changed at column 1, it is no longer fixed, and the
    F·v = v check refuses it.
    """
    A = build_symbol_algebra(3).algebra
    _corrupt_call(monkeypatch, 0, lambda row: {**row, 1: row.get(1, 0) + 1})
    with pytest.raises(AssertionError, match=r"not fixed by z -> S·conj\(z\)"):
        real_form(A)


@pytest.mark.parametrize(
    "block, message",
    [
        (0, "J does not restrict to the real form"),
        (1, "real form produced non-real structure constants"),
        (2, "real form produced non-real structure constants"),
    ],
    ids=["degree-1", "degree-2", "degree-3"],
)
def test_real_form_scaled_basis_vector_fails_the_substitution_check(monkeypatch, block, message):
    """A real basis vector scaled by 2 is still a fixed point, but ±2 at its free column, so coordinates read there are wrong and refused.

    On the free k = 3 symbol the degree -2 and -3 vectors are reached by
    brackets; x, the first degree -1 vector, only by the J image of y.
    """
    A = build_symbol_algebra(3).algebra
    honest = exact._real_fixed_points
    calls = []

    def scaled(rows):
        basis = honest(rows)
        if len(calls) == block:
            col, den, free = basis[0]
            basis[0] = ({p: 2 * x for p, x in col.items()}, den, free)
        calls.append(rows)
        return basis

    monkeypatch.setattr(liealg, "_real_fixed_points", scaled)
    with pytest.raises(NotSelfConjugate, match=f"^{message}$"):
        real_form(A)
    assert len(calls) == 3


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


# -- gate verdicts: recorded on the object, kept by an extension, not by a copy --


def _counting(monkeypatch, name):
    """Count the calls of ``liealg.<name>``."""
    calls = []
    honest = getattr(liealg, name)

    def counted(*args):
        calls.append(1)
        return honest(*args)

    monkeypatch.setattr(liealg, name, counted)
    return calls


def _copy(algebra):
    """The same algebra built again from its table, with no verdict."""
    return GradedLieAlgebra(algebra.labels, algebra.degrees, algebra.table, algebra.conjugation, algebra.J, algebra.scalar_tag)


@pytest.mark.parametrize("k, seed", [(8, None), (12, None), (8, 1)])
def test_a_copy_of_a_verified_table_runs_the_full_gates(monkeypatch, k, seed):
    """The symbol's passed Jacobi gate is recorded on it, and an algebra built separately from its table runs it in full; nondegeneracy is solved on every call."""
    A = build_symbol_algebra(k, None if seed is None else random_quotient(k, seed)).algebra
    B, C = _copy(A), _copy(A)
    assert B._jacobi_prefix == 0
    terms = _counting(monkeypatch, "_gaussian_axpy")
    faithful = _counting(monkeypatch, "_acts_faithfully")
    assert check_jacobi(A) == [] and is_nondegenerate_symbol(A)
    assert not terms and len(faithful) == 1
    assert check_jacobi(B) == [] and is_nondegenerate_symbol(B)
    full = len(terms)
    assert full and len(faithful) == 2
    # B now has its own Jacobi verdict; C, built from the same table, runs the full gate again
    assert check_jacobi(B) == [] and is_nondegenerate_symbol(B) and len(terms) == full
    assert check_jacobi(C) == [] and is_nondegenerate_symbol(C)
    assert len(terms) == 2 * full and len(faithful) == 4


def _grading_extension(A, scale=1):
    """A plus d, [e_i, d] = -deg(e_i)·e_i, and the last one times ``scale``, through ``_extended``."""
    n = A.dim
    entries = [((i, n), {i: -A.degrees[i] * (scale if i == n - 1 else 1)}, 1) for i in range(n)]
    return A._extended(["d"], [0], entries, J=A.J)


@pytest.mark.parametrize("k, seed", [(8, None), (12, None), (8, 1)])
def test_an_extension_checks_only_the_triples_with_an_own_index(monkeypatch, k, seed):
    """The extension of a verified symbol visits fewer terms than the full gate on a copy, and finds what the dense oracle finds."""
    A = build_symbol_algebra(k, None if seed is None else random_quotient(k, seed)).algebra
    for scale in (1, 2):
        ext = _grading_extension(A, scale)
        copy = _copy(ext)
        assert ext._jacobi_prefix == A.dim and is_nondegenerate_symbol(ext)
        terms = _counting(monkeypatch, "_gaussian_axpy")
        got = check_jacobi(ext)
        restricted = len(terms)
        want = check_jacobi(copy)
        assert 0 < restricted < len(terms) - restricted
        assert got == want
        table = {ij: {k: (c.re, c.im) for k, c in terms_.items()} for ij, terms_ in ext.table.items()}
        oracle = jacobi_violations(ext.dim, table)
        assert {(i, j, k) for i, j, k, _ in got} == set(oracle)
        assert bool(got) == (scale != 1)
        # every violating triple has the new index
        assert all(k == A.dim for _, _, k, _ in got)
        monkeypatch.undo()


def test_a_planted_violation_in_the_prefix_of_an_unverified_table_is_found():
    """Negative control: an extension of an algebra with no verdict checks every triple, so a violation among the old indices surfaces."""
    free = build_symbol_algebra(12).algebra
    bad = replaced_bracket(free, 2, 3, {k: 2 * c for k, c in free.table[(2, 3)].items()})
    assert bad._jacobi_prefix == 0
    want = check_jacobi(_copy(bad))
    assert want and all(k < bad.dim for _, _, k, _ in want)
    got = check_jacobi(_grading_extension(bad))
    assert [v[:3] for v in got] == [v[:3] for v in want]


@pytest.mark.parametrize("k", [-1, -3, 3, 1.5], ids=["minus-one", "minus-three", "dim", "not-int"])
def test_constructor_and_json_refuse_a_target_index_out_of_range(k):
    """[e0, e1] = e_k with k outside 0..dim-1 is refused by name; k = -1 is not read as i·e_0 (key ~0 of the packed form)."""
    message = f"^target index out of range: {k}$".replace(".", r"\.")
    with pytest.raises(ValueError, match=message):
        GradedLieAlgebra(["a", "b", "c"], [-1, -1, -2], {(0, 1): {k: 1}})
    obj = GradedLieAlgebra(["a", "b", "c"], [-1, -1, -2], {(0, 1): {2: 1}}).to_json_dict()
    obj["brackets"][0]["terms"][0]["k"] = k
    if isinstance(k, int):
        with pytest.raises(ValueError, match=message):
            GradedLieAlgebra.from_json_dict(obj)


def test_an_extension_keeps_the_prefix_brackets():
    """An extension may only add brackets with an appended index; one that appends a bare degree -1 vector fails the nondegeneracy gate."""
    A = build_symbol_algebra(4).algebra
    with pytest.raises(ValueError, match="cannot change the bracket"):
        A._extended(["d"], [0], [((0, 1), {2: 1}, 1)])
    with pytest.raises(ValueError, match="target index out of range"):
        A._extended(["d"], [0], [((0, A.dim), {A.dim + 1: 1}, 1)])
    ext = A._extended(["z"], [-1], [], J=None)
    assert not is_nondegenerate_symbol(ext)
    assert ext.table == A.table and ext._numerators == A._numerators


def test_engine_reads_no_qi_table(monkeypatch):
    """The symbol build, ``verify_theorem`` and G2's full prolongation run with the ``table`` view unreadable.

    ``table`` is a ``QI`` view for output and tests; every engine path reads
    ``_numerators``.
    """

    def unreadable(self):
        raise AssertionError("the engine read the QI table view")

    monkeypatch.setattr(GradedLieAlgebra, "table", property(unreadable))
    assert build_symbol_algebra(8).dim == 10
    assert verify_theorem(build_symbol_algebra(8)).verdict == "confirmed"
    assert verify_theorem(symbol_from_frame(builtin_catalog()["quintic7"])).verdict == "confirmed"
    g2 = full_prolongation(realify(build_symbol_algebra(3).algebra), FULL_TANAKA)
    assert g2.dims_by_degree() == {-3: 2, -2: 1, -1: 2, 0: 4, 1: 2, 2: 1, 3: 2}


def test_only_output_reads_the_qi_views():
    """No function of the package reads ``table``, ``bracket_basis`` or ``bracket_vec`` but the views and the output paths."""
    views = {"table", "bracket_basis", "bracket_vec"}
    allowed = {("liealg.py", name) for name in (*views, "__eq__", "to_json_dict")} | {("cli.py", "_symbol_text")}
    offenders = []
    for path in sorted(Path(liealg.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) not in allowed:
                offenders += [(path.name, func.name, node.lineno) for node in ast.walk(func) if isinstance(node, ast.Attribute) and node.attr in views]
    assert offenders == []


# -- the invariant gates of build_symbol_algebra, each reached by a planted fault --


def _doubled_bracket(honest, pair):
    """``_bracket_basis`` with the normal form of the Hall words ``pair`` doubled."""
    return lambda u, v: tuple((w, 2 * c) for w, c in honest(u, v)) if (u, v) == pair else honest(u, v)


def _lower_word_added(honest, pair):
    """``_bracket_basis`` with the generator (1,) added to the normal form of the Hall words ``pair``."""
    return lambda u, v: tuple(honest(u, v)) + ((((1,), 1),) if (u, v) == pair else ())


SYMBOL_GATES = [
    # a quotient stable under neither the swap nor the rotation has no conjugation to check first
    ("_bracket_basis", lambda honest: _lower_word_added(honest, ((1,), (2,))), 5, "symbol algebra violates grading"),
    ("_bracket_basis", lambda honest: _doubled_bracket(honest, ((1,), (1, 2))), 5, "symbol algebra violates Jacobi"),
    ("cumulative_dim", lambda honest: lambda l: honest(l) - 1, None, "symbol algebra has wrong dimension"),
    ("witt_dim", lambda honest: lambda l: honest(l) + (l == 1), None, "layer -1 is not free"),
    ("is_fundamental", lambda honest: lambda algebra: False, None, "symbol algebra is not fundamental"),
    ("is_nondegenerate_symbol", lambda honest: lambda algebra: False, None, "symbol algebra is degenerate"),
]


@pytest.mark.parametrize("name, plant, k, message", SYMBOL_GATES, ids=[m.removeprefix("symbol algebra ") for *_, m in SYMBOL_GATES])
def test_each_symbol_gate_refuses_its_planted_fault(monkeypatch, name, plant, k, message):
    """Every gate at the end of ``build_symbol_algebra`` raises its own message on a fault planted in what it checks.

    Grading and Jacobi see a wrong Hall normal form; the dimension gate a
    wrong count of the lower layers, so one top word too many is kept; the
    free-layer gate a wrong layer dimension; fundamentality and
    nondegeneracy, which hold by construction, a predicate that says no.
    """
    quotient = unstable_quotient(5, 1) if k else None
    monkeypatch.setattr(liealg, name, plant(getattr(liealg, name)))
    with pytest.raises(AssertionError, match=f"^{message}$"):
        build_symbol_algebra(k or 8, quotient)


# -- one stored form: packed Gaussian numerators --


def _packed(form):
    """A packed Gaussian form: int keys, the real part of entry k at k and its imaginary part at ~k, nonzero int values only."""
    return all(type(key) is int and type(x) is int and x for key, x in form.items())


def _packed_table(numerators):
    nums, den = numerators
    return type(den) is int and den > 0 and all(_packed(form) for form in nums.values())


@pytest.mark.parametrize("k", range(2, 13))
def test_every_stored_numerator_is_one_packed_form(k):
    """Tables, ``J``, the conjugation, the G^0 map columns and the reduced rows of ``Echelon`` and ``Filtration`` hold ints under int keys only; a real table has no negative key."""
    symbol = build_symbol_algebra(k)
    m = symbol.algebra
    assert all(_packed_table(x._numerators) for x in (m, m.J, m.conjugation))
    for dm in grade0(m, j_constraint=True).maps:
        assert all(type(den) is int and den > 0 and _packed(col) for _, columns in dm.blocks.values() for col, den in columns)
    n_top = len(conjugation_adapted_top_basis(symbol.length))
    reducer = Echelon(liealg.default_quotient_rows(k), n_top, col_order=range(n_top - 1, -1, -1))
    filtrations = [model.filtration for model in builtin_catalog().values() if model.codim == k]
    for col, row in [*reducer.reduced, *(r for filt in filtrations for r in filt.reduced)]:
        assert _packed(row) and row[col] > 0
    real = realify(m)
    assert real.scalar_tag == "Q" and _packed_table(real._numerators) and _packed_table(real.J._numerators)
    assert all(key >= 0 for terms in real._numerators[0].values() for key in terms)
