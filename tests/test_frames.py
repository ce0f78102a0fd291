import ast
import copy
import functools
import re
from fractions import Fraction
from pathlib import Path

import pytest

from crprolong import frames
from crprolong.exact import QI, _qi
from crprolong.frames import (
    ModelSpec,
    NotRigid,
    NotTotallyNondegenerate,
    builtin_catalog,
    catalog_to_json,
    field_model,
    growth_and_nondegeneracy,
    load_catalog,
    rigid_model,
    symbol_from_frame,
)
from crprolong.freelie import cumulative_dim
from crprolong.liealg import SymbolAlgebra, build_symbol_algebra
from crprolong.poly import Poly, PolyVectorField, real_chart
from oracles import dense_rref, hall_word_origin_values, replaced_bracket

I = QI(0, 1)


def _phi(terms):
    return Poly(2, terms)


def _phi_zero_model():
    phis = (Poly.zero(2),)
    return ModelSpec("degenerate", 1, 2, phis=phis, weights=(1, 1, 2), cr=frames._tangential_field(1, phis))


def _levi_flat_model():
    return rigid_model("flat", 1, [_phi({(2, 0): 1, (0, 2): 1})])


def test_tangential_field_heisenberg():
    m = builtin_catalog()["heisenberg"]
    L = m.cr
    assert L.pretty() == "∂_z + i z̄ ∂_u1"
    assert L.comps[2] == Poly.var(L.chart.nvars, 1, I)


def test_tangential_field_degenerate_phi_zero():
    # not a valid model, but the tangency solve itself still works and the
    # growth check flags it downstream
    m = _phi_zero_model()
    L = m.cr
    assert L.pretty() == "∂_z"
    _, ok = growth_and_nondegeneracy(m)
    assert not ok


def test_tangential_field_cubic_has_quadratic_coefficients():
    m = builtin_catalog()["cubic3"]
    L = m.cr
    assert {sum(e) for e in L.comps[3].terms} == {2}
    assert {sum(e) for e in L.comps[4].terms} == {2}


def test_tangency_check_rejects_a_sign_mutant(monkeypatch):
    # the honest field annihilates wbar_j = u_j - i·phi_j on every rigid
    # catalog model; flipping the sign of its u-components breaks that
    rigid = [m for m in builtin_catalog().values() if m.rigid]
    assert len(rigid) == 6
    assert [rigid_model(m.model_id, m.codim, m.phis, m.provenance) for m in rigid] == rigid

    def mutant(chart, comps):
        comps = list(comps)
        return PolyVectorField(chart, comps[:2] + [c.scale(-1) for c in comps[2:]])

    monkeypatch.setattr(frames, "PolyVectorField", mutant)
    for m in rigid:
        with pytest.raises(AssertionError, match="does not annihilate wbar_1"):
            rigid_model(m.model_id, m.codim, m.phis)


@pytest.mark.parametrize("fault", ["factor", "variable"])
def test_tangency_check_rejects_a_wrong_partial(monkeypatch, fault):
    # L's u-components and L(i·phi_j) come from the same partials, so a fault
    # in them is caught by Euler's identity on each homogeneous phi_j: every
    # partial doubled, or d_z and d_zbar exchanged
    rigid = [m for m in builtin_catalog().values() if m.rigid]
    honest = frames._partials

    def wrong(comps, nvars, width):
        out = honest(comps, nvars, width)
        if fault == "factor":
            return {key: {e: 2 * x for e, x in d.items()} for key, d in out.items()}
        return {(i, 1 - j if j < 2 else j): d for (i, j), d in out.items()}

    monkeypatch.setattr(frames, "_partials", wrong)
    for m in rigid:
        with pytest.raises(AssertionError, match="does not annihilate wbar_1"):
            rigid_model(m.model_id, m.codim, m.phis)


def test_not_rigid_for_field_models():
    m = builtin_catalog()["quintic7"]
    assert not m.rigid and m.phis == ()
    with pytest.raises(NotRigid):
        m.defining_equations()


def test_every_model_holds_its_field_and_checks_tangency_once(monkeypatch, capsys):
    """``rigid_model`` builds L and runs the tangency gate once, packing L once; the growth, the symbol and ``verify --model`` read ``model.cr``."""
    from crprolong import cli

    catalog = builtin_catalog()
    assert all(isinstance(m.cr, PolyVectorField) and len(m.weights) == m.cr.chart.nvars for m in catalog.values())
    rigid = [m for m in catalog.values() if m.rigid]
    assert len(rigid) == 6
    calls, packed = [], []
    honest_check, honest_pack = frames._check_tangency, frames._pack

    def counted(L, *form):
        calls.append(L)
        return honest_check(L, *form)

    def counted_pack(polys, *args, **kwargs):
        packed.append(tuple(polys))
        return honest_pack(polys, *args, **kwargs)

    monkeypatch.setattr(frames, "_check_tangency", counted)
    monkeypatch.setattr(frames, "_pack", counted_pack)
    assert [rigid_model(m.model_id, m.codim, m.phis, m.provenance) for m in rigid] == rigid
    assert calls == [m.cr for m in rigid]
    # the i·phi_j once, then L once and the Euler field z·d_z + zbar·d_zbar once
    n = [m.cr.chart.nvars for m in rigid]
    euler = [(Poly.var(n, 0), Poly.var(n, 1), *[Poly.zero(n)] * (n - 2)) for n in n]
    assert packed == [x for m, e in zip(rigid, euler) for x in (tuple(phi.scale(I) for phi in m.phis), m.cr.comps, e)]
    for m in rigid:
        assert m.weights == (1, 1, *(sum(next(iter(phi.terms))) for phi in m.phis))
    m = catalog["cubic3"]
    assert growth_and_nondegeneracy(m)[1]
    symbol_from_frame(m)
    assert cli.main(["verify", "--model", "cubic3"]) == 0
    capsys.readouterr()
    assert len(calls) == 6


@pytest.mark.parametrize(
    "k, phis, message",
    [
        (2, [_phi({(1, 1): 1})], "need 2 defining polynomials, got 1"),
        (1, [Poly(3, {(1, 1, 0): 1})], "defining polynomials live in (z, zbar)"),
        (1, [Poly.zero(2)], "phi_1 is zero"),
        (1, [_phi({(2, 0): 1})], "phi_1 is not real-valued"),  # z^2
        (1, [_phi({(1, 1): 1, (2, 1): 1, (1, 2): 1})], "phi_1 is not weighted homogeneous"),  # real, of degrees 2 and 3
        (2, [_phi({(2, 1): 1, (1, 2): 1}), _phi({(1, 1): 1})], "weights must be nondecreasing"),
        (1, [_phi({(2, 1): 1, (1, 2): 1})], "top weight 3 must equal the length 2"),
    ],
)
def test_rigid_model_refusals(k, phis, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rigid_model("bad", k, phis)


def test_rigid_model_validation():
    m = rigid_model("ok", 1, [_phi({(1, 1): 1})])
    assert m.weights == (1, 1, 2) and m.length == 2


def test_a_model_is_not_hashable():
    """A model keeps its instance dict, where its filtration is cached, and says that it is unhashable."""
    assert ModelSpec.__hash__ is None and "__slots__" not in vars(ModelSpec)
    for mid in ("heisenberg", "quintic7"):
        with pytest.raises(TypeError, match=r"^unhashable type: 'ModelSpec'$"):
            hash(builtin_catalog()[mid])


def _copy(m):
    """A new model equal to ``m``, built with the constructor, so it has not read its filtration."""
    return ModelSpec(m.model_id, m.codim, m.length, m.phis, m.weights, m.cr, m.provenance)


def _counted_word_values(monkeypatch):
    """The fields ``frames._word_values`` is called on from now on, in call order."""
    calls = []
    honest = frames._word_values

    def counted(L, max_length):
        calls.append(L)
        return honest(L, max_length)

    monkeypatch.setattr(frames, "_word_values", counted)
    return calls


def test_a_model_evaluates_its_filtration_once(monkeypatch, capsys):
    """The growth, the symbol and ``verify --model`` of one model evaluate the word values once and share one filtration."""
    from crprolong import cli

    m = _copy(builtin_catalog()["cubic2"])
    monkeypatch.setattr(frames, "_builtin_models", lambda: {"cubic2": m})
    calls = _counted_word_values(monkeypatch)
    filt, ok = growth_and_nondegeneracy(m)
    assert ok and calls == [m.cr] and m.filtration is filt
    symbol_from_frame(m)
    assert cli.main(["verify", "--model", "cubic2"]) == 0
    capsys.readouterr()
    assert calls == [m.cr] and growth_and_nondegeneracy(m)[0] is filt


def test_builtin_catalog_evaluates_no_filtration(monkeypatch):
    monkeypatch.setattr(frames, "_builtin_models", functools.cache(frames._builtin_models.__wrapped__))
    calls = _counted_word_values(monkeypatch)
    catalog = builtin_catalog()
    assert len(catalog) == 8 and calls == []
    assert not any("filtration" in vars(m) for m in catalog.values())


def test_a_replaced_copy_evaluates_its_filtration_afresh(monkeypatch):
    m = builtin_catalog()["quartic4"]
    filt = m.filtration
    calls = _counted_word_values(monkeypatch)
    twin = _copy(m)
    assert twin == m and "filtration" not in vars(twin)
    again, ok = growth_and_nondegeneracy(twin)
    assert ok and calls == [m.cr]
    assert again is not filt and again == filt


@pytest.mark.parametrize("mid", ["cubic2", "quartic4", "quintic7"])
def test_symbol_from_frame_repeats_byte_for_byte_and_leaves_the_filtration_unchanged(mid):
    m = _copy(builtin_catalog()[mid])
    before = copy.deepcopy(m.filtration)
    first = symbol_from_frame(m).to_json()
    assert symbol_from_frame(m).to_json() == first
    assert m.filtration == before


def test_growth_heisenberg():
    filt, ok = growth_and_nondegeneracy(builtin_catalog()["heisenberg"])
    assert filt.growth == (2, 3)
    assert ok
    # D_2(0) is the first span to fill the 3-dimensional tangent space
    assert filt.growth.index(3) + 1 == 2


def test_growth_levi_flat_counterexample():
    # Im w = z^2 + zbar^2 is flat at the origin: D2(0) = D1(0)
    m = _levi_flat_model()
    filt, ok = growth_and_nondegeneracy(m)
    assert filt.growth == (2, 2)
    assert not ok
    with pytest.raises(NotTotallyNondegenerate):
        symbol_from_frame(m)


def test_growth_cubic3():
    filt, ok = growth_and_nondegeneracy(builtin_catalog()["cubic3"])
    assert filt.growth == (2, 3, 5)
    assert ok


def test_growth_vector_monotone_and_bounded():
    for m in builtin_catalog().values():
        filt, ok = growth_and_nondegeneracy(m)
        assert ok
        assert list(filt.growth) == sorted(filt.growth)
        for ell, g in enumerate(filt.growth, start=1):
            assert g <= min(cumulative_dim(ell), 2 + m.codim)


def test_symbol_from_frame_heisenberg_cross_path():
    S_frame = symbol_from_frame(builtin_catalog()["heisenberg"])
    S_lie = build_symbol_algebra(1)
    assert S_frame.algebra == S_lie.algebra
    assert S_frame.words == S_lie.words


def test_symbol_from_frame_cubic3_is_free():
    S = symbol_from_frame(builtin_catalog()["cubic3"])
    assert S.quotient.rows == ()
    assert S.algebra == build_symbol_algebra(3).algebra


def test_symbol_from_frame_cubic2_specific_quotient():
    S = symbol_from_frame(builtin_catalog()["cubic2"])
    assert S.quotient.kind == "frame"
    # the model kills the sum of the two length-3 words
    assert S.quotient.rows == ((QI(1), QI(1)),)
    assert [w.word for w in S.words[cumulative_dim(S.length - 1):]] == [(1, 1, 2)]
    # this differs from the default quotient (which kills the difference)
    assert build_symbol_algebra(2).quotient.rows == ((QI(1), QI(-1)),)


def test_quintic_frame_models_reproduce_defaults():
    cat = builtin_catalog()
    for k, mid in ((7, "quintic7"), (12, "quintic12")):
        S = symbol_from_frame(cat[mid])
        assert S.algebra == build_symbol_algebra(k).algebra


def test_catalog_entries_have_declared_codim_and_length():
    for mid, m in builtin_catalog().items():
        assert m.model_id == mid
        filt, ok = growth_and_nondegeneracy(m)
        assert ok, mid
        assert filt.growth[-1] == 2 + m.codim


def test_catalog_json_round_trip():
    cat = builtin_catalog()
    text = catalog_to_json(cat)
    back = load_catalog(text)
    assert sorted(back) == sorted(cat)
    for mid in cat:
        assert back[mid] == cat[mid]


def test_builtin_catalog_returns_a_fresh_dict_of_shared_entries():
    first, second = builtin_catalog(), builtin_catalog()
    assert first is not second
    assert list(first) == list(second)
    assert all(first[mid] is second[mid] for mid in first)
    first.pop("quintic12")
    first["cubic2"] = first["heisenberg"]
    first["extra"] = first["cubic3"]
    again = builtin_catalog()
    assert again is not second
    assert list(again) == list(second)
    assert catalog_to_json(again) == catalog_to_json(second)


def _word_values_as_qi(m):
    """``frames._word_values`` of the model's field, each packed Gaussian numerator (re at key t, im at key ~t) over its word's positive denominator turned into a ``QI`` here."""
    values = frames._word_values(m.cr, m.length)
    assert all(den > 0 and all(type(x) is int and x for x in vec.values()) for vec, den in values.values())
    return {w: [_qi(vec.get(t, 0), vec.get(~t, 0), den) for t in range(len(m.cr.comps))] for w, (vec, den) in values.items()}


def _assert_word_values_match_oracle(m):
    L = m.cr
    values = _word_values_as_qi(m)
    expect = hall_word_origin_values([p.terms for p in L.comps], L.chart.conj_perm, m.length)
    assert list(values.items()) == list(expect.items())
    filt, ok = growth_and_nondegeneracy(m)
    assert filt.words == tuple(values)
    return values, filt, ok


@pytest.mark.parametrize("case", [*sorted(builtin_catalog()), 7, 12, 16, "phi_zero", "levi_flat"])
def test_word_values_match_textbook_oracle(case):
    # an int is the left-invariant frame model of the default symbol at that k
    if isinstance(case, int):
        m = frames._frame_realized_model(f"frame{case}", case)
    elif case == "phi_zero":
        m = _phi_zero_model()
    elif case == "levi_flat":
        m = _levi_flat_model()
    else:
        m = builtin_catalog()[case]
    _assert_word_values_match_oracle(m)


def test_frames_does_no_bit_arithmetic():
    """The packed monomial layout stays in ``poly``: ``frames`` shifts, masks and combines no bits, and takes only the frame from ``bch``."""
    tree = ast.parse(Path(frames.__file__).read_text())
    bits = (ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr)
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, bits)] == []
    assert [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "bch" for a in node.names] == ["left_invariant_frame"]


def test_word_values_exponents_beyond_the_input_maximum():
    # [L, Lbar]_t1 has an x^8 term although no input exponent exceeds 7; a
    # packed exponent field sized for 7 alone would carry it into y's field
    # and read it as a linear y term of the length-2 word.  The entry is built
    # directly: field_model refuses an exponent past rho - 1 = 2, and the
    # packing must stay wide enough for any field it is handed
    comps = [{(0, 0, 0, 0): 1, (2, 0, 0, 0): 1}, {(0, 0, 0, 0): I}, {(7, 0, 0, 0): I}, {(1, 1, 0, 0): I}]
    L = PolyVectorField(real_chart(("x", "y", "t1", "t2")), [Poly(4, c) for c in comps])
    m = ModelSpec("x7", 2, 3, cr=L)
    with pytest.raises(ValueError, match=r"components\[2\]: exponent 7 of x exceeds 2, the bound for length 3"):
        field_model("x7", 2, L)
    assert max(x for p in L.comps for e in p.terms for x in e) == 7
    assert max(e[0] for e in L.bracket(L.conj()).comps[2].terms) == 8
    _assert_word_values_match_oracle(m)


def test_word_values_gaussian_coefficients_with_unequal_denominators():
    phi2 = _phi({(2, 1): QI(Fraction(2, 5), Fraction(1, 7)), (1, 2): QI(Fraction(2, 5), Fraction(-1, 7))})
    m = rigid_model("odd", 2, [_phi({(1, 1): QI(Fraction(1, 3))}), phi2])
    values, filt, ok = _assert_word_values_match_oracle(m)
    assert values[(1, 1, 2)] == [0, 0, 0, QI("4/7", "-8/5")]
    assert ok and filt.growth == (2, 3, 4)


def _twin_model():
    # phi_2 = phi_3: the two length-3 words have dependent origin values
    cubic = _phi({(2, 1): 1, (1, 2): 1})
    return rigid_model("twin", 3, [_phi({(1, 1): 1}), cubic, cubic])


def test_word_values_top_length_degeneracy():
    m = _twin_model()
    _, filt, ok = _assert_word_values_match_oracle(m)
    assert filt.growth == (2, 3, 4)
    assert not ok
    with pytest.raises(NotTotallyNondegenerate):
        symbol_from_frame(m)


@pytest.mark.parametrize(
    "case",
    [
        *sorted(builtin_catalog()),
        7,
        12,
        *(pytest.param(k, marks=pytest.mark.slow) for k in (22, 30)),
        "phi_zero",
        "levi_flat",
        "twin",
    ],
)
def test_growth_matches_dense_rank_per_length(case):
    # dim D_l is the textbook rank of the values of the words of length <= l,
    # not the pivot count of the one reduced form growth_and_nondegeneracy reads
    if isinstance(case, int):
        m = frames._frame_realized_model(f"frame{case}", case)
    else:
        m = {"phi_zero": _phi_zero_model, "levi_flat": _levi_flat_model, "twin": _twin_model}.get(
            case, lambda: builtin_catalog()[case]
        )()
    filt, ok = growth_and_nondegeneracy(m)
    word_values = _word_values_as_qi(m)
    assert filt.words == tuple(word_values)
    values = [[(x.re, x.im) for x in vec] for vec in word_values.values()]
    lengths = [len(w) for w in word_values]
    expect = tuple(
        len(dense_rref([v for v, n in zip(values, lengths) if n <= ell], range(2 + m.codim))[0])
        for ell in range(1, max(lengths) + 1)
    )
    assert filt.growth == expect
    free = tuple(cumulative_dim(ell) for ell in range(1, len(expect))) + (2 + m.codim,)
    assert ok == (expect == free)


@pytest.mark.parametrize("mid", ["heisenberg", "cubic2", "quartic4", "quintic7"])
def test_corrupted_top_constant_is_refused_by_the_frame_check(mid):
    m = builtin_catalog()[mid]
    filt, _ = growth_and_nondegeneracy(m)
    before = copy.deepcopy(filt)
    S = symbol_from_frame(m)
    frames._check_frame_constants(S, filt)
    A = S.algebra
    i, j = min((i, j) for i, j in A.table if A.degrees[i] + A.degrees[j] == -S.length)
    # a retained top word is nonzero modulo D_(rho-1), so adding one breaks the bracket
    t = A.indices_of_degree(-S.length)[0]
    terms = dict(A.table[(i, j)])
    terms[t] = terms.get(t, QI(0)) + 1
    bad = SymbolAlgebra(replaced_bracket(A, i, j, terms), S.codim, S.length, S.words, S.quotient)
    with pytest.raises(AssertionError, match=rf"frame constants disagree at \({S.words[i]}, {S.words[j]}\)"):
        frames._check_frame_constants(bad, filt)
    assert filt == before


@pytest.mark.parametrize("k", [13, *(pytest.param(k, marks=pytest.mark.slow) for k in (22, 30, 39))])
def test_left_invariant_frame_round_trips_to_the_default_symbol(k):
    m = frames._frame_realized_model(f"frame{k}", k)
    assert symbol_from_frame(m).algebra == build_symbol_algebra(k).algebra


@pytest.mark.parametrize(
    "j, extra",
    [
        (0, (1, 0, 0, 0, 0, 0, 0, 0, 0)),  # x in the component of x
        (1, (0, 1, 0, 0, 0, 0, 0, 0, 0)),  # y in the component of y
        (2, (0, 0, 1, 0, 0, 0, 0, 0, 0)),  # e2_1 reads itself
        (5, (0, 0, 0, 0, 0, 0, 0, 0, 1)),  # e4_1 reads the later e5_1
        (8, (0, 3, 0, 0, 0, 0, 0, 0, 0)),  # y^3 has weighted degree 3, not 4
        (8, None),  # a zero component has no weighted degree
    ],
)
def test_field_model_refuses_a_field_that_is_not_weighted_homogeneous(j, extra):
    cr = builtin_catalog()["quintic7"].cr
    assert field_model("q", 7, cr).cr is cr
    comp = Poly.zero(9) if extra is None else cr.comps[j] + Poly(9, {extra: 1})
    rule = "be constant" if j < 2 else "be a nonzero polynomial in the earlier coordinates, of one weighted degree"
    with pytest.raises(ValueError, match=rf"^components\[{j}\]: the field is not weighted homogeneous: the component of {cr.chart.names[j]} must {rule}$"):
        field_model("q", 7, PolyVectorField(cr.chart, [comp if i == j else p for i, p in enumerate(cr.comps)]))


def test_field_model_keeps_its_inferred_chart_weights():
    """x and y have weight 1 and e<l>_<j> weight l; the catalog JSON of a field model still writes no weights."""
    m = builtin_catalog()["quintic7"]
    names = m.cr.chart.names
    assert m.weights == (1, 1, 2, 3, 3, 4, 4, 4, 5) == tuple(1 if n in ("x", "y") else int(n[1 : n.index("_")]) for n in names)
    assert field_model("q", 7, m.cr).weights == m.weights
    assert "weights" not in m.to_json_dict()["defining"]
    assert ModelSpec.from_json_dict(m.to_json_dict()) == m


def test_field_model_chart_dimension_check():
    from crprolong.poly import PolyVectorField, real_chart

    with pytest.raises(ValueError):
        field_model("bad", 3, PolyVectorField.zero(real_chart(("a", "b"))))
