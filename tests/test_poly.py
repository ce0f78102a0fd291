import random

import pytest

from crprolong.exact import QI
from crprolong.poly import Chart, ChartMismatch, Poly, PolyVectorField, real_chart, rigid_chart, vf_bracket

I = QI(0, 1)


def test_poly_arithmetic():
    p = Poly(2, {(1, 0): 1, (0, 1): 2})
    q = Poly(2, {(1, 1): QI(1, 1)})
    assert (p + q) - q == p
    assert p * QI(0) == Poly.zero(2)
    prod = p.mul(p)
    assert prod.terms == {(2, 0): QI(1), (1, 1): QI(4), (0, 2): QI(4)}


def test_poly_diff():
    p = Poly(2, {(2, 1): 3})
    assert p.diff(0).terms == {(1, 1): QI(6)}
    assert p.diff(1).terms == {(2, 0): QI(3)}
    assert Poly.const(2, 5).diff(0).is_zero()


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
