import random
from fractions import Fraction

import pytest

from crprolong.exact import QI
from crprolong.poly import Chart, ChartMismatch, Poly, PolyVectorField, _bracket, _decode, _pack, _partials, _width, real_chart, rigid_chart, vf_bracket
from oracles import assoc_add, conjugate_field, field_bracket, poly_diff, poly_mul

I = QI(0, 1)


def test_poly_arithmetic():
    p = Poly(2, {(1, 0): 1, (0, 1): 2})
    q = Poly(2, {(1, 1): QI(1, 1)})
    assert (p + q) - q == p
    assert p * QI(0) == Poly.zero(2)


def test_poly_refusals():
    with pytest.raises(ValueError, match="^variable count mismatch$"):
        Poly(2, {(1, 0): 1}) + Poly(3, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="^component variable count mismatch$"):
        PolyVectorField(real_chart(("p", "q")), [Poly.const(2, 1), Poly.const(3, 1)])


def test_poly_permuted_conjugation():
    # z zbar^2 with coefficient i conjugates to -i z^2 zbar on the swap chart
    p = Poly(2, {(1, 2): I})
    c = p.permuted((1, 0), conj=True)
    assert c.terms == {(2, 1): -I}


def test_poly_pretty():
    p = Poly(2, {(1, 1): 1, (2, 0): QI(0, 2)})
    assert p.pretty(["z", "zb"]) == "z zb + 2i z^2"


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(("a", "b"), (0, 0))
    ch = rigid_chart(2)
    assert ch.names == ("z", "zbar", "u1", "u2")
    assert ch.conj_perm == (1, 0, 2, 3)


def _coordinate_field(ch, i):
    """The constant field d/dx_i on the chart ``ch``."""
    n = ch.nvars
    return PolyVectorField(ch, [Poly.const(n, 1) if j == i else Poly.zero(n) for j in range(n)])


def test_vf_bracket_coordinate_fields_commute():
    ch = rigid_chart(1)
    dz = _coordinate_field(ch, 0)
    dzb = _coordinate_field(ch, 1)
    assert vf_bracket(dz, dzb).is_zero()


def test_vf_bracket_heisenberg_levi():
    ch = rigid_chart(1)
    n = ch.nvars
    L = PolyVectorField(ch, [Poly.const(n, 1), Poly.zero(n), Poly.var(n, 1, I)])
    Lb = PolyVectorField(ch, [Poly.zero(n), Poly.const(n, 1), Poly.var(n, 0, -I)])
    br = vf_bracket(L, Lb)
    assert br.comps[0].is_zero() and br.comps[1].is_zero()
    assert br.comps[2] == Poly.const(n, QI(0, -2))


def test_vf_bracket_antisymmetry():
    ch = rigid_chart(1)
    n = ch.nvars
    X = PolyVectorField(ch, [Poly.var(n, 1), Poly.const(n, 2), Poly.var(n, 0, I)])
    assert vf_bracket(X, X).is_zero()


def _random_field(rng, ch):
    n = ch.nvars

    def rpoly():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e = tuple(rng.randint(0, 1) for _ in range(n))
            terms[e] = QI(rng.randint(-2, 2), rng.randint(-2, 2))
        return Poly(n, terms)

    return PolyVectorField(ch, [rpoly() for _ in range(n)])


def test_vf_jacobi_property():
    rng = random.Random(17)
    ch = rigid_chart(1)
    for _ in range(10):
        a, b, c = (_random_field(rng, ch) for _ in range(3))
        total = (
            vf_bracket(vf_bracket(a, b), c)
            + vf_bracket(vf_bracket(b, c), a)
            + vf_bracket(vf_bracket(c, a), b)
        )
        assert total.is_zero()


def test_chart_mismatch():
    a = _coordinate_field(rigid_chart(1), 0)
    b = _coordinate_field(real_chart(("p", "q", "r")), 0)
    with pytest.raises(ChartMismatch):
        vf_bracket(a, b)


def test_formal_conjugation_involution():
    ch = rigid_chart(1)
    n = ch.nvars
    L = PolyVectorField(ch, [Poly.const(n, 1), Poly.zero(n), Poly.var(n, 1, I)])
    assert L.conj().conj() == L
    assert L.conj().comps[1] == Poly.const(n, 1)


def test_value_at_origin_and_pretty():
    ch = rigid_chart(1)
    n = ch.nvars
    L = PolyVectorField(ch, [Poly.const(n, 1), Poly.zero(n), Poly.var(n, 1, I)])
    assert [c.terms.get((0,) * n, QI(0)) for c in L.comps] == [QI(1), QI(0), QI(0)]
    assert L.pretty() == "∂_z + i z̄ ∂_u1"


def test_vf_json_round_trip():
    ch = rigid_chart(2)
    n = ch.nvars
    X = PolyVectorField(ch, [Poly.var(n, 2, QI(1, 2)), Poly.zero(n), Poly.const(n, 3), Poly.zero(n)])
    back = PolyVectorField.from_json_dict(X.to_json_dict())
    assert back == X


def _gaussian_poly(rng, n, top=3):
    """A seeded polynomial on n variables: exponents up to ``top``, every coefficient with both parts nonzero."""
    part = lambda: Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 6))
    return Poly(n, {tuple(rng.randint(0, top) for _ in range(n)): QI(part(), part()) for _ in range(rng.randint(1, 4))})


@pytest.mark.parametrize("seed", range(8))
def test_packed_kernel_matches_the_tuple_oracles(seed):
    # bracket and conj run as pack, one kernel call, decode, and the kernel
    # bracket with no partials of its first field applies that field to each
    # component of the second; the real and imaginary parts of a monomial are
    # packed under two keys, so a decoder that kept one part and dropped the
    # other differs here on every coefficient, each of which has both parts
    # nonzero
    rng = random.Random(seed)
    ch = rigid_chart(2) if seed % 2 else real_chart(("p", "q", "r"))
    X, Y = (PolyVectorField(ch, [_gaussian_poly(rng, ch.nvars) for _ in range(ch.nvars)]) for _ in range(2))
    f = _gaussian_poly(rng, ch.nvars)
    x, y = [p.terms for p in X.comps], [p.terms for p in Y.comps]
    assert max(e for p in x for m in p for e in m) >= 2
    assert [p.terms for p in X.bracket(Y).comps] == field_bracket(x, y)
    assert [p.terms for p in X.conj().comps] == conjugate_field(x, ch.conj_perm)
    expect = {}
    for j, p in enumerate(x):
        expect = assoc_add(expect, poly_mul(p, poly_diff(f.terms, j)))
    n = ch.nvars
    width = _width((*X.comps, f), 2)
    F = _pack((f,), n, width)
    (comp,), den = _bracket(_pack(X.comps, n, width), F, {}, _partials(F[0], n, width), n, width)
    assert _decode(comp, den, n, width).terms == expect


def test_poly_decodes_packed_monomials_as_field_by_field():
    # 69 variables (3N at k = 21) in 3-bit fields, exponents 0..cap = 6,
    # against the decode of every field in turn
    nvars, width, cap = 69, 3, 6
    rng = random.Random(5)
    monomials = [0, *(x << (width * i) for i in (0, 1, 34, 68) for x in range(1, cap + 1))]
    for _ in range(200):
        fields = rng.sample(range(nvars), rng.randint(1, cap))
        monomials.append(sum(rng.randint(1, cap) << (width * i) for i in fields))
    comp = {e: rng.choice([-3, -1, 1, 2, 7]) for e in monomials}
    comp[monomials[-1]] = 0  # a zero numerator does not get through
    mask = (1 << width) - 1
    expect = Poly(nvars, {tuple((e >> (width * i)) & mask for i in range(nvars)): QI(Fraction(x, 6)) for e, x in comp.items()})
    got = _decode(comp, 6, nvars, width)
    assert got == expect
    assert len(got.terms) == len(comp) - 1 and all(got.terms.values())
    # with the i bit set, above the last field: both parts of one monomial,
    # in either key order, sum into one coefficient, and an imaginary part
    # alone is read too
    i = 1 << width * nvars
    a, b = monomials[5], monomials[100]
    complex_comp = {a: 3, a | i: -2, b | i: 5, b: 1, i: 4, monomials[150] | i: 0}
    expect = {a: QI(3, -2), b: QI(1, 5), 0: QI(0, 4)}
    want = Poly(nvars, {tuple((e >> (width * j)) & mask for j in range(nvars)): c * QI(Fraction(1, 6)) for e, c in expect.items()})
    assert _decode(complex_comp, 6, nvars, width) == want
