import random
from itertools import combinations_with_replacement

import pytest

from crprolong.freelie import (
    HallWord,
    conjugate_tree,
    cumulative_dim,
    hall_basis,
    hall_rewrite,
    is_lyndon,
    lyndon_words,
    min_length_for_codim,
    standard_factorization,
    standard_tree,
    tree_normal_form,
    witt_dim,
)
from crprolong.liealg import build_symbol_algebra
from oracles import assoc_add, assoc_mul, brute_force_lyndon, expand_commutator

W = HallWord


def test_witt_dims_small():
    assert witt_dim(1) == 2
    assert witt_dim(2) == 1
    assert [witt_dim(l) for l in (3, 4, 5, 6)] == [2, 3, 6, 9]


def test_witt_matches_lyndon_enumeration():
    for length in range(1, 8):
        assert witt_dim(length) == len(brute_force_lyndon(length))
        assert list(lyndon_words(length)) == brute_force_lyndon(length)


def test_cumulative_dims():
    assert cumulative_dim(2) == 3
    assert cumulative_dim(3) == 5
    assert cumulative_dim(4) == 8


def test_min_length_for_codim():
    assert min_length_for_codim(1) == 2
    assert min_length_for_codim(2) == 3
    assert min_length_for_codim(3) == 3
    assert min_length_for_codim(4) == 4
    assert min_length_for_codim(6) == 4
    assert min_length_for_codim(7) == 5
    assert min_length_for_codim(12) == 5


def test_hall_basis_small():
    assert [w.word for w in hall_basis(1).words] == [(1,), (2,)]
    assert [w.word for w in hall_basis(2).words] == [(1,), (2,), (1, 2)]
    b3 = hall_basis(3)
    assert [w.word for w in b3.words] == [(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)]
    # the two length-3 words carry the standard bracketings
    assert b3.words[3].tree == (1, (1, 2))
    assert b3.words[4].tree == ((1, 2), 2)
    # the free k = 3 symbol keeps every word, labelled L<length>_<position from 1>
    S = build_symbol_algebra(3)
    assert S.words == b3.words
    assert S.algebra.labels == ("L1_1", "L1_2", "L2_3", "L3_4", "L3_5")


def test_hall_word_counts_match_witt():
    basis = hall_basis(6)
    for length in range(1, 7):
        assert sum(1 for w in basis.words if w.length == length) == witt_dim(length)


def test_bidegrees_and_serialization():
    w = W((1, 1, 2))
    assert w.bidegree == (2, 1)
    assert w.to_nested() == [1, [1, 2]]
    assert W((1, 2, 2)).to_nested() == [[1, 2], 2]


def test_standard_factorization():
    assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))
    assert standard_factorization((1, 1, 2, 1, 2)) == ((1, 1, 2), (1, 2))


def test_rewrite_antisymmetry_diagonal():
    assert hall_rewrite(1, 1) == {}
    assert hall_rewrite(W((1, 2)), W((1, 2))) == {}


def test_rewrite_basis_pair_is_itself():
    assert hall_rewrite(1, 2) == {W((1, 2)): 1}
    assert hall_rewrite(2, W((1, 2))) == {W((1, 2, 2)): -1}


def test_rewrite_length5_example():
    # [[g1,g2],[g1,[g1,g2]]] is minus the standard word 11212
    got = hall_rewrite(W((1, 2)), W((1, 1, 2)))
    assert got == {W((1, 1, 2, 1, 2)): -1}


def test_rewrite_matches_associative_oracle_through_length5():
    basis = hall_basis(5)
    for wa, wb in combinations_with_replacement(basis.words, 2):
        if wa.length + wb.length > 5:
            continue
        got = hall_rewrite(wa, wb)
        acc = {}
        for w, c in got.items():
            acc = assoc_add(acc, expand_commutator(w.tree), c)
        direct = assoc_add(
            assoc_mul(expand_commutator(wa.tree), expand_commutator(wb.tree)),
            assoc_mul(expand_commutator(wb.tree), expand_commutator(wa.tree)),
            -1,
        )
        assert acc == direct, (wa, wb)


def _combo_bracket(da, db):
    out = {}
    for a, ca in da.items():
        for b, cb in db.items():
            for w, c in hall_rewrite(a, b).items():
                out[w] = out.get(w, 0) + ca * cb * c
                if not out[w]:
                    del out[w]
    return out


def test_rewrite_antisymmetry_and_jacobi_exhaustive():
    words = list(hall_basis(4).words)
    for a in words:
        for b in words:
            if a.length + b.length > 6:
                continue
            ab = hall_rewrite(a, b)
            ba = hall_rewrite(b, a)
            assert ab == {w: -c for w, c in ba.items()}
    for a, b, c in combinations_with_replacement(words, 3):
        if a.length + b.length + c.length > 6:
            continue
        total = {}
        for term in (
            _combo_bracket(hall_rewrite(a, b), {c: 1}),
            _combo_bracket(hall_rewrite(b, c), {a: 1}),
            _combo_bracket(hall_rewrite(c, a), {b: 1}),
        ):
            for w, x in term.items():
                total[w] = total.get(w, 0) + x
                if not total[w]:
                    del total[w]
        assert total == {}, (a, b, c)


def test_rewrite_bilinearity_on_random_combos():
    rng = random.Random(5)
    words = list(hall_basis(3).words)
    for _ in range(20):
        a, b, c = rng.choice(words), rng.choice(words), rng.choice(words)
        if max(a.length + c.length, b.length + c.length) > 6:
            continue
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = {}
        for w, coeff in ((a, m), (b, n)):
            combo[w] = combo.get(w, 0) + coeff
        combo = {w: x for w, x in combo.items() if x}
        lhs = _combo_bracket(combo, {c: 1})
        rhs = {}
        for w, x in hall_rewrite(a, c).items():
            rhs[w] = rhs.get(w, 0) + m * x
        for w, x in hall_rewrite(b, c).items():
            rhs[w] = rhs.get(w, 0) + n * x
        rhs = {w: x for w, x in rhs.items() if x}
        assert lhs == rhs


def test_formal_bracket_inputs():
    # nested tuples of generators are normalized like any other tree
    got = hall_rewrite((1, (1, 2)), 2)
    expanded = tree_normal_form(((1, (1, 2)), 2))
    assert {w.word: c for w, c in got.items()} == expanded


def test_conjugate_tree_swaps_generators():
    assert conjugate_tree((1, (1, 2))) == (2, (2, 1))
    assert tree_normal_form(conjugate_tree(standard_tree((1, 1, 2)))) == {(1, 2, 2): 1}
    assert tree_normal_form(conjugate_tree(standard_tree((1, 2, 2)))) == {(1, 1, 2): 1}


def test_non_lyndon_rejected():
    assert not is_lyndon((2, 1))
    with pytest.raises(ValueError):
        W((2, 1))
