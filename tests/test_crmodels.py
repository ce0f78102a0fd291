import json
from fractions import Fraction

import pytest
from coordinates import block_coordinates, map_column
from oracles import C_ZERO, dense_inverse, real_basis_aut_table, real_grade0_coordinates, replaced_bracket
from quotients import random_quotient, rotation_stable, rotation_stable_quotient, swap_stable, unstable_quotient

import crprolong
from crprolong import cli, crmodels, exact, frames, liealg
from crprolong.crmodels import (
    COMPLEX_ALPHA,
    REAL_ALPHA,
    AutCRAlgebra,
    RhoTooSmall,
    VerificationFailed,
    build_aut_cr,
    verify_heisenberg,
    verify_theorem,
)
from crprolong.exact import QI, QI_ONE, Echelon, Matrix
from crprolong.frames import builtin_catalog, symbol_from_frame
from crprolong.liealg import (
    GradedLieAlgebra,
    NotSelfConjugate,
    QuotientSpec,
    SymbolAlgebra,
    build_symbol_algebra,
    first_bracket_mismatch,
    is_nondegenerate_symbol,
    real_form,
    realify,
)
from crprolong.prolong import LEVI_TANAKA, ProlongedAlgebra, full_prolongation


def _aut(S):
    return build_aut_cr(S)


def _rotation(R):
    """The Leibniz extension of -J, read from the assembled Levi-Tanaka prolongation, or None."""
    prolonged = full_prolongation(R, LEVI_TANAKA)
    coords = block_coordinates(prolonged.components[0], -R.J)
    if coords is None:
        return None
    r = {R.dim + pos: c for pos, c in enumerate(coords)}
    return Matrix.sparse(R.dim, [prolonged.algebra.bracket_vec(r, {x: QI_ONE}) for x in range(R.dim)])


def _hall_map(symbol, prolonged):
    """The map ``verify_theorem`` checks: the identity on g_-, d and r to the G^0 elements with degree -1 blocks -I and -J."""
    m = symbol.algebra
    g0 = prolonged.components[0]
    found = [c for c in (block_coordinates(g0, -Matrix.identity(2)), block_coordinates(g0, -m.J)) if c is not None]
    return Matrix.sparse(prolonged.dim, [{i: QI_ONE} for i in range(m.dim)] + [{m.dim + p: c for p, c in enumerate(x)} for x in found])


def test_build_aut_cr_heisenberg_complex_case():
    aut = _aut(build_symbol_algebra(1))
    assert aut.case == COMPLEX_ALPHA
    assert aut.dim == 5
    assert aut.algebra.labels == ("L1_1", "L1_2", "L2_3", "d", "r")
    # pinned degree -1 brackets: [d, L] = -L, [d, Lb] = -Lb, [r, L] = -iL, [r, Lb] = iLb
    assert aut.algebra.bracket_basis(aut.d_index, 0) == {0: QI(-1)}
    assert aut.algebra.bracket_basis(aut.d_index, 1) == {1: QI(-1)}
    assert aut.algebra.bracket_basis(aut.r_index, 0) == {0: QI(0, -1)}
    assert aut.algebra.bracket_basis(aut.r_index, 1) == {1: QI(0, 1)}
    # g0 is abelian
    assert aut.algebra.bracket_basis(aut.d_index, aut.r_index) == {}


def test_build_aut_cr_f23_real_case_dimension(monkeypatch):
    S = build_symbol_algebra(3)
    # the free algebra keeps its whole top layer, so the rotation preserves
    # the (zero) quotient and the inferred case is the two-dimensional one
    aut = _aut(S)
    assert aut.case == COMPLEX_ALPHA
    assert aut.dims_by_degree()[0] == 2
    assert aut.dim == 7
    # the one-dimensional case on the same g_- passes every gate too
    monkeypatch.setattr(crmodels, "_rotation_preserves_quotient", lambda symbol: False)
    aut = _aut(S)
    assert aut.case == REAL_ALPHA
    assert aut.dims_by_degree()[0] == 1
    assert aut.dim == 6


def test_d_eigenvalue_is_minus_length():
    aut = _aut(build_symbol_algebra(2))
    A = aut.algebra
    for i, deg in enumerate(A.degrees):
        if deg >= 0:
            continue
        assert A.bracket_basis(aut.d_index, i) == {i: QI(deg)}
    # degree -3 basis element has eigenvalue -3
    top = A.indices_of_degree(-3)[0]
    assert A.bracket_basis(aut.d_index, top) == {top: QI(-3)}


def test_euler_on_heisenberg():
    """The -I element of G^0 acts on g_- as the degree scaling v -> deg(v)·v, read from the assembled prolongation."""
    R = realify(build_symbol_algebra(1).algebra)
    prolonged = full_prolongation(R, LEVI_TANAKA)
    coords = block_coordinates(prolonged.components[0], -Matrix.identity(2))
    d = {R.dim + pos: c for pos, c in enumerate(coords)}
    E = Matrix.sparse(R.dim, [prolonged.algebra.bracket_vec(d, {x: QI_ONE}) for x in range(R.dim)])
    assert E == Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, -2]])


def test_rotation_on_heisenberg():
    R = realify(build_symbol_algebra(1).algebra)
    rot = _rotation(R)
    assert rot is not None
    # restriction is -J: r(x) = -y, r(y) = x; the center is annihilated
    assert rot.sparse_column(0) == {1: QI(-1)}
    assert rot.sparse_column(1) == {0: QI(1)}
    assert rot.sparse_column(2) == {}


def test_rotation_fails_on_mixed_bidegree_quotient():
    # k=5 quotient killing 1112 + 1122 + 1222 mixes rotation eigenvalues
    rows = ((QI(1), QI(1), QI(1)),)
    S = build_symbol_algebra(5, QuotientSpec(kind="explicit", rows=rows))
    assert S.algebra.conjugation is not None  # the line is conjugation-stable
    R = realify(S.algebra)
    assert _rotation(R) is None
    assert _aut(S).case == REAL_ALPHA


def _check_stabilities_against_dense_oracle(k, seed):
    """Both quotient stabilities of three seeded draws, each against dense membership in ``quotients``.

    The symbol has a conjugation iff the quotient is swap-stable, and
    ``_rotation_preserves_quotient`` holds iff it is rotation-stable.  Each
    draw is of the kind it claims, and a rotation-stable one verifies as
    ``complex-alpha``.
    """
    for kind, draw in (("conjugation", random_quotient), ("rotation", rotation_stable_quotient), ("neither", unstable_quotient)):
        spec = draw(k, seed)
        if spec is None:  # no quotient of this kind has the dimension k asks for
            continue
        swap, rotation = swap_stable(k, spec), rotation_stable(k, spec)
        assert swap == (kind != "neither")
        if kind != "conjugation":
            assert rotation == (kind == "rotation")
        S = build_symbol_algebra(k, spec)
        assert (S.algebra.conjugation is not None) == swap
        assert crmodels._rotation_preserves_quotient(S) == rotation
        if kind == "rotation":
            rep = verify_theorem(S)
            assert (rep.verdict, rep.case) == ("confirmed", COMPLEX_ALPHA)


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("k", (2, 4, 5, 7, 8))
def test_quotient_stabilities_match_dense_oracle(k, seed):
    _check_stabilities_against_dense_oracle(k, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("k", (9, 11, 13, 16, 20, 22))
def test_quotient_stabilities_match_dense_oracle_slow(k, seed):
    _check_stabilities_against_dense_oracle(k, seed)


def _check_rotation_case_against_dense_oracle(S):
    """The rotation test on the symbol's table agrees with dense membership of the rotated quotient rows."""
    assert crmodels._rotation_preserves_quotient(S) == rotation_stable(S.codim, S.quotient)


@pytest.mark.parametrize("k", range(2, 31))
def test_rotation_case_matches_dense_oracle_on_default_quotients(k):
    _check_rotation_case_against_dense_oracle(build_symbol_algebra(k))


@pytest.mark.slow
@pytest.mark.parametrize("k", range(31, 70))
def test_rotation_case_matches_dense_oracle_on_default_quotients_slow(k):
    _check_rotation_case_against_dense_oracle(build_symbol_algebra(k))


@pytest.mark.parametrize("mid", sorted(builtin_catalog()))
def test_rotation_case_matches_dense_oracle_on_frame_quotients(mid):
    S = symbol_from_frame(builtin_catalog()[mid])
    assert S.quotient.kind == "frame"
    _check_rotation_case_against_dense_oracle(S)


@pytest.mark.parametrize("k, draw", [(3, None), (8, rotation_stable_quotient)], ids=["k3-default", "k8-rot1"])
def test_rotation_case_is_refused_by_a_constant_off_its_weight(k, draw):
    """Negative control: one top-degree constant moved onto a word of another weight n - nt breaks the rotation."""
    S = build_symbol_algebra(k, draw and draw(k, 1))
    assert crmodels._rotation_preserves_quotient(S)
    A = S.algebra
    weight = [n - nt for n, nt in (w.bidegree for w in S.words)]
    top = A.indices_of_degree(-S.length)
    (i, j), terms = next((ij, terms) for ij, terms in A.table.items() if any(t in top for t in terms))
    t = next(t for t in terms if t in top)
    other = next(u for u in top if weight[u] != weight[t])
    moved = {s: x for s, x in terms.items() if s != t} | {other: terms[t]}
    bad = SymbolAlgebra(replaced_bracket(A, i, j, moved), S.codim, S.length, S.words, S.quotient)
    assert not crmodels._rotation_preserves_quotient(bad)


def test_quotient_map_is_read_off_the_reduced_rows(monkeypatch):
    # neither the symbol build nor the theorem check reads a QI view of the
    # quotient (its dense rows) or reduces anything against it
    def refused(*args):
        raise AssertionError("QI view of the quotient read")

    monkeypatch.setattr(Echelon, "reduce", refused)
    monkeypatch.setattr(Echelon, "rows", property(refused))
    # the default subspace of k = 8 in another basis: reversed, the first row added to the second
    rows = liealg.default_quotient_rows(8)[::-1]
    default = QuotientSpec(kind="default", rows=(rows[0], tuple(a + b for a, b in zip(rows[0], rows[1])), *rows[2:]), provenance="default")
    for k, spec in ((7, None), (8, random_quotient(8, 1)), (8, rotation_stable_quotient(8, 1)), (8, default)):
        assert verify_theorem(build_symbol_algebra(k, spec)).verdict == "confirmed"
    S = build_symbol_algebra(5, unstable_quotient(5, 1))
    assert build_aut_cr(S).case == REAL_ALPHA  # a draw stable under neither involution
    with pytest.raises(NotSelfConjugate, match="^algebra has no conjugation involution$"):
        verify_theorem(S)
    # nor does the frame path, from the word values to the verdict
    for m in [*builtin_catalog().values(), frames._frame_realized_model("frame16", 16)]:
        assert verify_theorem(symbol_from_frame(m)).verdict == "confirmed"


def test_case_mismatch_on_default_k2(monkeypatch):
    S = build_symbol_algebra(2)
    assert _aut(S).case == REAL_ALPHA
    # negative control: told that the rotation preserves this quotient, the
    # aut side adds the bidegree diagonal, which is no derivation of this
    # quotient, and its Jacobi gate raises, never confirms
    monkeypatch.setattr(crmodels, "_rotation_preserves_quotient", lambda symbol: True)
    with pytest.raises(AssertionError, match="aut algebra violates Jacobi"):
        verify_theorem(S)


def test_wrong_aut_side_case_fails_verification_k3(monkeypatch, capsys):
    # negative control: the case is the aut side's own, so a wrong "no
    # rotation" from its quotient test fails the comparison with the
    # prolongation (exit 1, "verification failed"), not as an input error
    message = "dimension mismatch: aut_CR has 6, prolongation has 7"
    monkeypatch.setattr(crmodels, "_rotation_preserves_quotient", lambda symbol: False)
    with pytest.raises(VerificationFailed, match=message):
        verify_theorem(build_symbol_algebra(3))
    assert cli.main(["verify", "--k", "3"]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("k", range(1, 13))
def test_rotation_complex_eigenvalues(k):
    # the r column of build_aut_cr on the Hall basis is the bidegree
    # diagonal: ad(r) acts on a bidegree-(n, nt) word by -i(n - nt)
    S = build_symbol_algebra(k)
    aut = build_aut_cr(S)
    rot = _rotation(S.algebra)
    if aut.case != COMPLEX_ALPHA:
        # the extension of -J does not exist in the Hall G^0 either
        assert aut.r_index == -1 and rot is None
        return
    n = S.dim
    r_hall = Matrix.sparse(n, [aut.algebra.bracket_basis(aut.r_index, i) for i in range(n)])
    diagonal = [[QI(0, w.bidegree[1] - w.bidegree[0]) if a == b else 0 for b in range(n)] for a, w in enumerate(S.words)]
    assert r_hall == Matrix(diagonal)
    # consistency with the extension of -J read off the Hall G^0, which shares no code with the r column
    assert rot == r_hall


def test_verify_theorem_k3():
    rep = verify_theorem(build_symbol_algebra(3))
    assert rep.verdict == "confirmed"
    assert rep.total_dim == 7
    assert rep.case == COMPLEX_ALPHA
    assert rep.dims_prolongation == {-3: 2, -2: 1, -1: 2, 0: 2}


def test_verify_theorem_k2_default():
    rep = verify_theorem(build_symbol_algebra(2))
    assert rep.verdict == "confirmed"
    assert rep.case == REAL_ALPHA
    assert rep.total_dim == (2 + 2) + 1


def test_euler_gate_reads_the_assembled_table(monkeypatch):
    """Negative control: doubling the degree -2 entry [L2_3, G0_1] of the assembled table fails the bracket comparison there.

    The maps of G^0 are left as they are, so only a gate that reads the
    table sees it: the comparison of [L2_3, d] = 2·L2_3 with the -I
    element's doubled bracket, which is the Euler action's check.
    """
    S = build_symbol_algebra(2)
    x = S.algebra.indices_of_degree(-2)[0]
    g = S.dim  # G0_1, the only grade-0 element of the real-alpha case

    def doubled(m, flavor):
        prolonged = full_prolongation(m, flavor)
        assert prolonged.algebra.labels[g] == "G0_1"
        terms = {k: 2 * c for k, c in prolonged.algebra.table[(x, g)].items()}
        return ProlongedAlgebra(prolonged.components, prolonged.flavor, replaced_bracket(prolonged.algebra, x, g, terms))

    monkeypatch.setattr(crmodels, "full_prolongation", doubled)
    with pytest.raises(VerificationFailed, match=r"^bracket mismatch at pair \('L2_3', 'd'\)$") as exc:
        verify_theorem(S)
    assert exc.value.pair == ("L2_3", "d")
    assert exc.value.report.verdict == "failed"


def test_an_unfound_rotation_fails_the_bijectivity_gate(monkeypatch, capsys):
    """Negative control: at k = 3, where G^0 is 2-dimensional, the -I element alone does not span it, so the map is refused before any bracket is compared."""
    S = build_symbol_algebra(3)
    honest = crmodels._coordinates
    minus_j = (-S.algebra.J)._numerators
    monkeypatch.setattr(crmodels, "_coordinates", lambda component, block: None if block == minus_j else honest(component, block))
    with pytest.raises(VerificationFailed, match="^candidate isomorphism is not bijective$") as exc:
        verify_theorem(S)
    assert exc.value.pair is None and exc.value.report is None
    assert cli.main(["verify", "--k", "3"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("k, seed, target", [(3, None, "d"), (8, None, "d"), (8, None, "r"), (12, None, "r"), (8, 1, "d")])
def test_corrupted_grade0_constant_fails_the_aut_jacobi_gate(monkeypatch, k, seed, target):
    """Negative control: aut_CR extends the verified symbol, and a wrong [e_x, d] or [e_x, r] on a top word still trips its Jacobi gate."""
    symbol = build_symbol_algebra(k, None if seed is None else random_quotient(k, seed))
    m = symbol.algebra
    assert m._jacobi_prefix == m.dim
    # the last basis word, or for r the last one of unequal bidegree, where [e_x, r] is nonzero
    x = max(i for i, w in enumerate(symbol.words) if target == "d" or w.bidegree[0] != w.bidegree[1])
    index = m.dim + (target == "r")
    assert target == "d" or build_aut_cr(symbol).r_index == index
    honest = GradedLieAlgebra._extended

    def corrupted(self, labels, degrees, entries, **kw):
        entries = [(key, {t: 2 * x for t, x in terms.items()} if key == (x, index) else terms, den) for key, terms, den in entries]
        return honest(self, labels, degrees, entries, **kw)

    monkeypatch.setattr(GradedLieAlgebra, "_extended", corrupted)
    with pytest.raises(AssertionError, match="^aut algebra violates Jacobi$"):
        build_aut_cr(symbol)


def test_annihilating_grade0_vector_fails_the_aut_transitivity_gate(monkeypatch):
    """Negative control: a degree-0 vector with no brackets, appended to aut_CR's table, passes every other gate and trips transitivity."""
    symbol = build_symbol_algebra(8)
    honest = GradedLieAlgebra._extended

    def planted(self, labels, degrees, entries, **kw):
        return honest(self, [*labels, "z"], [*degrees, 0], entries, **kw)

    monkeypatch.setattr(GradedLieAlgebra, "_extended", planted)
    with pytest.raises(AssertionError, match="^aut algebra is not transitive$"):
        build_aut_cr(symbol)


def test_hand_built_degenerate_symbol_fails_build_aut_cr():
    """Negative control: a hand-built symbol with zero degree -1 brackets fails the nondegeneracy gate, and aut_CR built on it is refused."""
    S = build_symbol_algebra(1)
    A = S.algebra
    flat = GradedLieAlgebra(A.labels, A.degrees, {}, conjugation=A.conjugation, J=A.J)
    fake = SymbolAlgebra(flat, S.codim, S.length, S.words, S.quotient)
    assert not is_nondegenerate_symbol(flat)
    with pytest.raises(AssertionError, match="^aut algebra is degenerate$"):
        build_aut_cr(fake)
    # the honest symbol passes the gate, and so does its aut_CR
    assert is_nondegenerate_symbol(build_aut_cr(S).algebra) and is_nondegenerate_symbol(A)


def test_verify_theorem_routes_heisenberg():
    rep = verify_theorem(build_symbol_algebra(1))
    assert rep.model_id == "heisenberg"
    assert rep.total_dim == 8


def test_rho_too_small_for_hand_built_symbol():
    S1 = build_symbol_algebra(1)
    fake = SymbolAlgebra(S1.algebra, 2, S1.length, S1.words, S1.quotient)
    with pytest.raises(RhoTooSmall):
        verify_theorem(fake)


def test_corrupted_bracket_fails_naming_pair():
    S = build_symbol_algebra(3)
    aut = _aut(S)
    P = full_prolongation(S.algebra, LEVI_TANAKA)
    iso = _hall_map(S, P)
    # honest map passes
    assert first_bracket_mismatch(aut.algebra, P.algebra, iso) is None
    # corrupt [L1_1, d] in the abstract algebra and re-run the same check
    bad = replaced_bracket(aut.algebra, 0, aut.d_index, {0: QI(2)})
    i, j = first_bracket_mismatch(bad, P.algebra, iso)
    assert (bad.labels[i], bad.labels[j]) == ("L1_1", "d")


def test_verify_theorem_checks_brackets_through_the_embedding(monkeypatch):
    """Negative control: a corrupted [L1_1, d] on the aut side fails the check against the Hall-basis prolongation."""
    honest = crmodels.build_aut_cr

    def corrupted(symbol):
        aut = honest(symbol)
        bad = replaced_bracket(aut.algebra, 0, aut.d_index, {0: QI(2)})
        return AutCRAlgebra(bad, aut.case, aut.d_index, aut.r_index)

    monkeypatch.setattr(crmodels, "build_aut_cr", corrupted)
    with pytest.raises(VerificationFailed) as err:
        verify_theorem(build_symbol_algebra(8, random_quotient(8, 1)))
    assert err.value.pair == ("L1_1", "d")
    assert err.value.report.verdict == "failed"


@pytest.mark.parametrize("k, seed", [(k, seed) for k in (2, 4, 5, 7, 8) for seed in (1, 2)])
def test_symbol_without_conjugation_is_refused_before_any_prolongation(monkeypatch, k, seed):
    """Negative control: a quotient stable under neither the swap nor the rotation raises the pinned error, unprolonged."""

    def refused(*args):
        raise AssertionError("full_prolongation called")

    monkeypatch.setattr(crmodels, "full_prolongation", refused)
    S = build_symbol_algebra(k, unstable_quotient(k, seed))
    with pytest.raises(NotSelfConjugate, match="^algebra has no conjugation involution$"):
        verify_theorem(S)


def test_verify_theorem_refuses_j_that_does_not_commute_with_conjugation(monkeypatch):
    """Negative control: J = [[0, -1], [1, 0]] in the coordinates L1_1, L1_2 has no real form on degree -1.

    ``verify_theorem`` refuses it, unprolonged, as it refuses every J but
    the symbol's diag(i, -i), such as diag(-i, i), which does restrict.
    """

    def refused(*args):
        raise AssertionError("full_prolongation called")

    monkeypatch.setattr(crmodels, "full_prolongation", refused)
    S = build_symbol_algebra(4)
    A = S.algebra
    for J in (Matrix([[0, -1], [1, 0]]), -A.J):
        bad = GradedLieAlgebra(A.labels, A.degrees, A.table, conjugation=A.conjugation, J=J)
        fake = SymbolAlgebra(bad, S.codim, S.length, S.words, S.quotient)
        with pytest.raises(NotSelfConjugate, match=r"^degree -1 block is not the swap with J = diag\(i, -i\)$"):
            verify_theorem(fake)
    # the dense oracle refuses the first J on the swap's real basis too
    with pytest.raises(ValueError, match="^J does not restrict to the real form$"):
        real_grade0_coordinates([[C_ZERO, (1, 0)], [(1, 0), C_ZERO]], _pairs(Matrix([[0, -1], [1, 0]])), [])


def test_verify_theorem_refuses_a_degree_minus_one_conjugation_other_than_the_swap(monkeypatch):
    """Negative control: the swap composed with e -> (-1)^deg·e is refused before any prolongation.

    That map is an involutive antilinear bracket morphism commuting with
    J = diag(i, -i), so ``GradedLieAlgebra`` accepts it as the conjugation
    of the k = 4 symbol; its degree -1 block is minus the swap, whose
    real basis is x = L1_1 - L1_2, y = i(L1_1 + L1_2).
    """

    def refused(*args):
        raise AssertionError("full_prolongation called")

    monkeypatch.setattr(crmodels, "full_prolongation", refused)
    S = build_symbol_algebra(4)
    A = S.algebra
    skew = Matrix.sparse(A.dim, [{a: -x if A.degrees[b] % 2 else x for a, x in A.conjugation.sparse_column(b).items()} for b in range(A.dim)])
    bad = GradedLieAlgebra(A.labels, A.degrees, A.table, conjugation=skew, J=A.J)
    assert bad.conjugation.sparse_column(0) == {1: -QI_ONE}
    fake = SymbolAlgebra(bad, S.codim, S.length, S.words, S.quotient)
    with pytest.raises(NotSelfConjugate, match=r"^degree -1 block is not the swap with J = diag\(i, -i\)$"):
        verify_theorem(fake)


def test_verify_theorem_builds_no_real_form(monkeypatch):
    """``verify_theorem`` builds no ``real_form`` and solves no real basis, not even of the degree -1 block.

    ``_real_fixed_points`` is counted in ``exact`` and where ``liealg``
    imports it; a ``real_form`` solve that the patch does not refuse shows
    that the counter sees a call.  No block inverse exists to be called.
    """

    def refused(*args):
        raise AssertionError("real form built")

    symbols = (build_symbol_algebra(3), build_symbol_algebra(12), build_symbol_algebra(8, random_quotient(8, 1)))
    calls = []
    for module in (exact, liealg):
        honest = module._real_fixed_points
        monkeypatch.setattr(module, "_real_fixed_points", lambda *args, honest=honest: calls.append(1) or honest(*args))
        assert not hasattr(module, "_gaussian_inverse")
    liealg.real_form(symbols[0].algebra)
    assert calls
    calls.clear()
    for module in (liealg, crprolong):
        monkeypatch.setattr(module, "real_form", refused)
        monkeypatch.setattr(module, "realify", refused)
    for name in ("real_form", "_real_block", "_real_fixed_points", "_gaussian_inverse"):
        assert not hasattr(crmodels, name)
    assert not hasattr(liealg, "_real_block")
    for S in symbols:
        assert verify_theorem(S).verdict == "confirmed"
    assert calls == []


AUT_ORACLE_CASES = [pytest.param(k, None, id=f"k{k}") for k in range(2, 13)] + [
    pytest.param(8, seed, id=f"k8-seed{seed}") for seed in (1, 2)
]


@pytest.mark.parametrize("k, seed", AUT_ORACLE_CASES)
def test_hall_aut_real_form_matches_the_real_basis_oracle(k, seed):
    """The Hall-basis aut_CR with the conjugation S + I on (d, r) has the real form of the real-basis construction.

    ``GradedLieAlgebra`` accepts that conjugation, bracket-morphism check
    included, and ``real_form`` of the result has the table of
    ``oracles.real_basis_aut_table``: the real form of the symbol plus d,
    and r moved to the real basis through the embedding and its dense
    inverse.
    """
    symbol = build_symbol_algebra(k, None if seed is None else random_quotient(k, seed))
    aut = build_aut_cr(symbol)
    A = aut.algebra
    n = symbol.dim
    s = symbol.algebra.conjugation
    conjugation = Matrix.sparse(A.dim, [s.sparse_column(j) for j in range(n)] + [{j: QI_ONE} for j in range(n, A.dim)])
    conjugated = GradedLieAlgebra(A.labels, A.degrees, A.table, conjugation=conjugation, J=A.J)
    rf = real_form(symbol.algebra)

    def pairs(m):
        return [[(Fraction(x.re), Fraction(x.im)) for x in row] for row in m.data]

    def fractions(algebra):
        assert all(not c.im for terms in algebra.table.values() for c in terms.values())
        return {ij: {k: Fraction(c.re) for k, c in terms.items()} for ij, terms in algebra.table.items()}

    weights = [w.bidegree[0] - w.bidegree[1] for w in symbol.words] if aut.case == COMPLEX_ALPHA else None
    want = real_basis_aut_table(rf.algebra.degrees, fractions(rf.algebra), pairs(rf.embedding), dense_inverse(pairs(rf.embedding)), weights)
    got = real_form(conjugated).algebra
    assert got.J == rf.algebra.J
    assert fractions(got) == want


# -- the Hall-basis prolongation against the prolongation of the real form --


def _hall_and_real(symbol):
    """The Levi-Tanaka prolongations of the symbol on its Hall basis and of its real form, with the real form."""
    rf = real_form(symbol.algebra)
    return full_prolongation(symbol.algebra, LEVI_TANAKA), full_prolongation(rf.algebra, LEVI_TANAKA), rf


def _transported_grade0(hall, real, rf):
    """Real G^0 basis element i, with degree -1 block X_i in the real basis, as the complex element with block E·X_i·F."""
    e = Matrix([[rf.embedding.data[a][c] for c in range(2)] for a in range(2)])
    f = Matrix([[QI(*z) for z in row[:2]] for row in dense_inverse(_pairs(rf.embedding))[:2]])
    out = []
    for dm in real.components[0].maps:
        block = Matrix.sparse(2, [map_column(dm, -1, s) for s in range(2)])
        out.append(block_coordinates(hall.components[0], e.mul(block).mul(f)))
    return out


HALL_CASES = [pytest.param(k, None, id=f"k{k}") for k in (*range(3, 13), 21, 22)] + [
    pytest.param(8, seed, id=f"k8-seed{seed}") for seed in (1, 2)
]


@pytest.mark.parametrize("k, seed", HALL_CASES)
def test_hall_prolongation_is_the_complexified_real_form_prolongation(k, seed):
    """Same dimensions by degree, and real_form's embedding plus the transported G^0 is a bracket isomorphism.

    The seeded draws come from ``tests/quotients.py``; at k = 8 twelve of
    their 21 structure constants are complex.  ``verify_theorem``'s d and
    r columns are checked against the coordinates a prolongation of the
    real form gives.
    """
    symbol = build_symbol_algebra(k, None if seed is None else random_quotient(k, seed))
    hall, real, rf = _hall_and_real(symbol)
    assert hall.dims_by_degree() == real.dims_by_degree()
    assert all(c.degree <= 0 for c in real.components if c.dim)
    n = symbol.dim
    g0 = _transported_grade0(hall, real, rf)
    assert None not in g0
    iso = Matrix.sparse(hall.dim, [rf.embedding.sparse_column(i) for i in range(n)] + [{n + p: c for p, c in enumerate(x)} for x in g0])
    assert first_bracket_mismatch(real.algebra, hall.algebra, iso) is None
    report = verify_theorem(symbol)
    g0_real = real.components[0]
    found = [c for c in (block_coordinates(g0_real, -Matrix.identity(2)), block_coordinates(g0_real, -rf.algebra.J)) if c is not None]
    want = Matrix.sparse(real.dim, [{i: QI_ONE} for i in range(n)] + [{n + p: c for p, c in enumerate(x)} for x in found])
    assert report.iso_matrix == want


def _pairs(m):
    return [[(Fraction(x.re), Fraction(x.im)) for x in row] for row in m.data]


def _real_grade0_symbols():
    yield from (pytest.param(lambda k=k: build_symbol_algebra(k), id=f"k{k}") for k in (*range(2, 13), 21, 22))
    yield from (pytest.param(lambda mid=mid: symbol_from_frame(builtin_catalog()[mid]), id=mid) for mid in sorted(builtin_catalog()))
    for k in (2, 4, 5, 7, 8, 9, 10, 11):
        for seed in (1, 2, 3):
            yield pytest.param(lambda k=k, seed=seed: build_symbol_algebra(k, random_quotient(k, seed)), id=f"k{k}-draw{seed}")
    for k in (2, 4, 5, 7, 8, 9):
        for seed in (1, 2):
            if rotation_stable_quotient(k, seed) is not None:
                yield pytest.param(lambda k=k, seed=seed: build_symbol_algebra(k, rotation_stable_quotient(k, seed)), id=f"k{k}-rot{seed}")


@pytest.mark.parametrize("make", _real_grade0_symbols())
def test_real_grade0_coordinates_match_the_dense_oracle(make):
    """The report's d and r columns in the real G^0 basis equal the dense 2 x 2 formula of ``oracles.real_grade0_coordinates``.

    The oracle takes the degree -1 blocks of the conjugation, of J and of
    each basis map of the computed G^0 as dense pairs and solves its own
    real basis, inverse, products and reduction.  The length-2 report is
    the prolongation itself and has no d or r column, so there the row
    of ``_REAL_GRADE0`` for its G^0 is compared.
    """
    symbol = make()
    m = symbol.algebra
    g0 = full_prolongation(m, LEVI_TANAKA).components[0]
    ones = m.indices_of_degree(-1)
    s1 = [[(Fraction(m.conjugation.sparse_column(b).get(a, QI(0)).re), Fraction(m.conjugation.sparse_column(b).get(a, QI(0)).im)) for b in ones] for a in ones]
    blocks = [_pairs(Matrix.sparse(2, [map_column(dm, -1, s) for s in range(2)])) for dm in g0.maps]
    want = real_grade0_coordinates(s1, _pairs(m.J), blocks)
    assert want[0] is not None
    report = verify_theorem(symbol)
    if symbol.length < 3:
        assert report.model_id == "heisenberg"
        got = [[QI(x) for x in c] for c in crmodels._REAL_GRADE0[g0.dim]]
    else:
        n = m.dim
        assert report.iso_matrix.cols == n + g0.dim
        got = [[report.iso_matrix.sparse_column(n + j).get(n + p, QI(0)) for p in range(g0.dim)] for j in range(g0.dim)]
    assert all(not x.im for c in got for x in c)
    assert [[Fraction(x.re) for x in c] for c in got] + [None] * (2 - len(got)) == want


DRAWS = [(k, seed) for k in (2, 4, 5, 7, 8, 9, 10, 11) for seed in (1, 2, 3)] + [
    pytest.param(k, seed, marks=pytest.mark.slow) for k in (13, 16, 20, 22, 30, 39) for seed in (1, 2)
]


@pytest.mark.parametrize("k, seed", DRAWS)
def test_verify_theorem_on_conjugation_stable_draws(k, seed):
    """Seeded conjugation-stable quotients (``tests/quotients.py``) are confirmed, with total 2 + k + dim G^0.

    k <= 11 in tier-1; lengths 6 to 7 (k = 13..39) in ``slow``.
    """
    report = verify_theorem(build_symbol_algebra(k, random_quotient(k, seed)))
    assert report.verdict == "confirmed"
    assert report.total_dim == 2 + k + report.residuals["g0_dim"]


def test_verify_heisenberg_report():
    rep = verify_heisenberg()
    assert rep.verdict == "confirmed"
    assert rep.total_dim == 8
    assert rep.dims_prolongation == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}
    assert rep.residuals["transitive"] is True
    assert rep.residuals["jacobi_violations_prolongation"] == 0


def test_report_serialization():
    rep = verify_theorem(build_symbol_algebra(4))
    obj = json.loads(rep.to_json())
    assert obj["verdict"] == "confirmed"
    assert obj["total_dim"] == rep.total_dim
    txt = rep.text()
    assert "total dimension" in txt and "verdict confirmed" in txt


def test_compare_quotient_prolongations_flags_differences():
    from crprolong.frames import builtin_catalog, symbol_from_frame

    def lt_dims(k, quotient):
        rf = real_form(build_symbol_algebra(k, quotient).algebra)
        return full_prolongation(rf.algebra, LEVI_TANAKA).dims_by_degree()

    cat = builtin_catalog()
    q2 = symbol_from_frame(cat["cubic2"]).quotient
    assert lt_dims(2, None) == lt_dims(2, q2)
    q4 = symbol_from_frame(cat["quartic4"]).quotient
    default4, quartic4 = lt_dims(4, None), lt_dims(4, q4)
    # genuinely different grade-0 dimensions across the two quotients
    assert default4 != quartic4
    assert default4[0] == 1
    assert quartic4[0] == 2


@pytest.mark.parametrize(
    "plant, message",
    [
        # d (and r) placed in degree 1: [e_a, d] still lands on e_a, one degree off
        (lambda honest: lambda self, labels, degrees, entries, **kw: honest(self, labels, [1] * len(degrees), entries, **kw), "aut algebra violates grading"),
        # every new bracket over twice its denominator: d/2 and r/2 are still derivations, off the pins
        (lambda honest: lambda self, labels, degrees, entries, **kw: honest(self, labels, degrees, [(key, terms, 2 * den) for key, terms, den in entries], **kw),
         "grade-0 brackets deviate from the pinned convention"),
    ],
    ids=["grading", "pinned"],
)
def test_aut_grading_and_pinned_gates_refuse_their_planted_faults(monkeypatch, plant, message):
    """Both gates hold by construction; each raises its own message when the extension that builds aut_CR is planted a fault."""
    symbol = build_symbol_algebra(8)
    monkeypatch.setattr(GradedLieAlgebra, "_extended", plant(GradedLieAlgebra._extended))
    with pytest.raises(AssertionError, match=f"^{message}$"):
        build_aut_cr(symbol)
