import json

import pytest
from oracles import replaced_bracket

from crprolong import cli, crmodels
from crprolong.crmodels import (
    COMPLEX_ALPHA,
    REAL_ALPHA,
    RhoTooSmall,
    VerificationFailed,
    _g0_element,
    bracket_mismatch_pair,
    build_aut_cr,
    check_bracket_isomorphism,
    euler_derivation,
    rotation_complex_matrix,
    verify_heisenberg,
    verify_theorem,
)
from crprolong.exact import QI, Matrix
from crprolong.liealg import QuotientSpec, SymbolAlgebra, build_symbol_algebra, real_form, realify
from crprolong.prolong import LEVI_TANAKA, full_prolongation, grade0


def _aut(S):
    return build_aut_cr(S, real_form(S.algebra))


def _rotation(R):
    """The Leibniz extension of -J read off the J-commuting G^0, or None."""
    minus_j = Matrix([[-x for x in row] for row in R.J.data])
    found = _g0_element(grade0(R, j_constraint=True), R, minus_j)
    return None if found is None else found[1]


def test_build_aut_cr_heisenberg_complex_case():
    aut = _aut(build_symbol_algebra(1))
    assert aut.case == COMPLEX_ALPHA
    assert aut.dim == 5
    assert aut.algebra.labels == ("x", "y", "e2_1", "d", "r")
    # pinned degree -1 brackets
    assert aut.algebra.bracket_basis(aut.d_index, 0) == {0: QI(-1)}
    assert aut.algebra.bracket_basis(aut.d_index, 1) == {1: QI(-1)}
    assert aut.algebra.bracket_basis(aut.r_index, 0) == {1: QI(-1)}
    assert aut.algebra.bracket_basis(aut.r_index, 1) == {0: QI(1)}
    # g0 is abelian
    assert aut.algebra.bracket_basis(aut.d_index, aut.r_index) == {}


def test_build_aut_cr_f23_real_case_dimension(monkeypatch):
    S = build_symbol_algebra(3)
    # the free algebra keeps its whole top layer, so the rotation preserves
    # the (zero) quotient and the inferred case is the two-dimensional one
    aut = _aut(S)
    assert aut.case == COMPLEX_ALPHA
    assert aut.g0_dim == 2
    assert aut.dim == 7
    # the one-dimensional case on the same g_- passes every gate too
    monkeypatch.setattr(crmodels, "_rotation_preserves_quotient", lambda symbol: False)
    aut = _aut(S)
    assert aut.case == REAL_ALPHA
    assert aut.g0_dim == 1
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
    R = realify(build_symbol_algebra(1).algebra)
    E = euler_derivation(R)
    assert E == Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, -2]])


def test_rotation_on_heisenberg():
    R = realify(build_symbol_algebra(1).algebra)
    rot = _rotation(R)
    assert rot is not None
    # restriction is -J: r(x) = -y, r(y) = x; the center is annihilated
    assert rot.column(0) == [QI(0), QI(-1), QI(0)]
    assert rot.column(1) == [QI(1), QI(0), QI(0)]
    assert rot.column(2) == [QI(0), QI(0), QI(0)]


def test_rotation_fails_on_mixed_bidegree_quotient():
    # k=5 quotient killing 1112 + 1122 + 1222 mixes rotation eigenvalues
    rows = ((QI(1), QI(1), QI(1)),)
    S = build_symbol_algebra(5, QuotientSpec(kind="explicit", rows=rows))
    assert S.algebra.conjugation is not None  # the line is conjugation-stable
    R = realify(S.algebra)
    assert _rotation(R) is None
    assert _aut(S).case == REAL_ALPHA


def test_case_mismatch_on_default_k2(monkeypatch):
    S = build_symbol_algebra(2)
    assert _aut(S).case == REAL_ALPHA
    # negative control: told that the rotation preserves this quotient, the
    # aut side cannot build a real rotation and the check raises, never
    # confirms
    monkeypatch.setattr(crmodels, "_rotation_preserves_quotient", lambda symbol: True)
    with pytest.raises(AssertionError, match="rotation action is not real"):
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
    # ad(r) acts on a bidegree-(n, nt) word by -i(n - nt)
    S = build_symbol_algebra(k)
    rc = rotation_complex_matrix(S)
    for i, w in enumerate(S.words):
        n, nt = w.bidegree
        assert rc.data[i][i] == QI(0, -(n - nt))
    # consistency with the real route, which shares no Leibniz code with
    # the grade-0 solve: where the bidegree diagonal preserves the
    # quotient, conjugating it by the embedding gives the extension of -J
    # read off G^0; elsewhere that extension does not exist
    rf = real_form(S.algebra)
    rot = _rotation(rf.algebra)
    if build_aut_cr(S, rf).case == COMPLEX_ALPHA:
        assert rot == rf.embedding_inv.mul(rc.mul(rf.embedding))
    else:
        assert rot is None


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


def test_verify_theorem_routes_heisenberg():
    rep = verify_theorem(build_symbol_algebra(1))
    assert rep.model_id == "heisenberg"
    assert rep.total_dim == 8


def test_rho_too_small_for_hand_built_symbol():
    S1 = build_symbol_algebra(1)
    fake = SymbolAlgebra(S1.algebra, 2, S1.length, S1.words, S1.quotient, S1.retained_top, S1.reducer)
    with pytest.raises(RhoTooSmall):
        verify_theorem(fake)


def test_corrupted_bracket_fails_naming_pair():
    S = build_symbol_algebra(3)
    rep = verify_theorem(S)
    aut = _aut(S)
    P = full_prolongation(realify(S.algebra), LEVI_TANAKA)
    # honest map passes
    assert bracket_mismatch_pair(aut.algebra, P.algebra, rep.iso_matrix) is None
    # corrupt [d, x] in the abstract algebra and re-run the same check
    bad = replaced_bracket(aut.algebra, 0, aut.d_index, {0: QI(2)})
    with pytest.raises(VerificationFailed) as err:
        check_bracket_isomorphism(bad, P.algebra, rep.iso_matrix)
    assert err.value.pair == ("x", "d")


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
