"""Group law of a nilpotent graded Lie algebra in exponential coordinates.

The universal series is obtained the honest way: multiply the two
truncated exponentials in the free associative algebra, take the
truncated logarithm, and read the Lie coordinates off in the Lyndon
basis by triangular elimination.  The extraction is certified on every
call by re-expanding the bracket series and comparing with the logarithm
term by term.

The series is then evaluated in a concrete real algebra, exactly and
fraction-free: monomials are packed into single integers, coefficients
are integer numerators over one common denominator per vector, and each
coefficient of the result becomes a ``Fraction`` once.  The left-invariant
frame is read off the law on 2N coordinates.  Complex structure constants
or input coefficients are refused with ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .assoc import a_add, a_mul, expand_tree, lie_coordinates
from .exact import QI
from .freelie import standard_tree
from .liealg import GradedLieAlgebra
from .poly import Poly, PolyVectorField, real_chart

__all__ = ["NotNilpotent", "bch_series", "GroupLaw", "left_invariant_frame"]


class NotNilpotent(ValueError):
    """The group law needs a negatively graded (hence nilpotent) algebra."""


@lru_cache(maxsize=None)
def bch_series(cap: int):
    """Universal log(exp X · exp Y) through bracket length ``cap``.

    Returns a tuple of (Lyndon word, Fraction coefficient) sorted by
    (length, word); each word stands for its standard bracketing.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    fact = [Fraction(1)]
    for i in range(1, cap + 1):
        fact.append(fact[-1] * i)
    exp_x = {(1,) * i: 1 / fact[i] for i in range(cap + 1)}
    exp_y = {(2,) * i: 1 / fact[i] for i in range(cap + 1)}
    prod = a_mul(exp_x, exp_y, cap)
    eaten = a_add(prod, {(): Fraction(1)}, -1)
    log = {}
    power = {(): Fraction(1)}
    for n in range(1, cap + 1):
        power = a_mul(power, eaten, cap)
        log = a_add(log, power, Fraction((-1) ** (n + 1), n))
    coords = lie_coordinates(log, cap)
    series = tuple(sorted(coords.items(), key=lambda t: (len(t[0]), t[0])))
    # certify the extraction: the bracket series must re-expand to the log
    expanded = {}
    for word, coeff in series:
        expanded = a_add(expanded, expand_tree(standard_tree(word), cap), coeff)
    if expanded != log:
        raise AssertionError("Lyndon extraction failed to reproduce the logarithm")
    return series


class GroupLaw:
    """bch(a, b) evaluated in a fixed real algebra, on polynomial vectors.

    The bracket tree of :func:`bch_series` is evaluated on a private form:
    each monomial is one packed ``int`` (exponent i in bit field i of a
    fixed width, so a monomial product is one integer addition), and each
    vector is a list of ``{monomial: int numerator}`` dicts over one common
    ``int`` denominator.  Every result coefficient becomes a ``Fraction``
    once, in the conversion back to :class:`Poly`.
    """

    def __init__(self, algebra: GradedLieAlgebra):
        if any(d >= 0 for d in algebra.degrees):
            raise NotNilpotent("group law needs strictly negative degrees")
        if any(c.im for terms in algebra.table.values() for c in terms.values()):
            raise ValueError("group law needs real structure constants")
        self.algebra = algebra
        self.cap = -min(algebra.degrees)
        self.series = bch_series(self.cap)
        den = lcm(*(c.re.denominator for terms in algebra.table.values() for c in terms.values()))
        self._den = den
        self._table = [
            (i, j, [(k, c.re.numerator * (den // c.re.denominator)) for k, c in terms.items()])
            for (i, j), terms in algebra.table.items()
        ]

    def _bracket(self, u, v):
        (uc, ud), (vc, vd) = u, v
        out = [{} for _ in uc]
        for i, j, terms in self._table:
            p = {}
            _mul_into(p, uc[i], vc[j], 1)
            _mul_into(p, uc[j], vc[i], -1)
            for k, c in terms:
                acc = out[k]
                for e, x in p.items():
                    acc[e] = acc.get(e, 0) + c * x
        return [{e: x for e, x in acc.items() if x} for acc in out], ud * vd * self._den

    def _apply(self, a, b):
        """bch(a, b) on the private form, reduced to lowest terms."""
        memo = {1: a, 2: b}

        def value(tree):
            if tree not in memo:
                memo[tree] = self._bracket(value(tree[0]), value(tree[1]))
            return memo[tree]

        summands = []
        for word, coeff in self.series:
            comps, den = value(standard_tree(word))
            summands.append((coeff.numerator, coeff.denominator * den, comps))
        return _combination(summands)

    def _width(self, top_exponent: int) -> int:
        # a bracket of at most cap leaves multiplies at most cap input
        # monomials, so no exponent of the result exceeds top_exponent * cap
        return max(top_exponent * self.cap, 1).bit_length()

    def _variables(self, count: int, width: int):
        n = self.algebra.dim
        return [([{1 << (width * (s * n + i)): 1} for i in range(n)], 1) for s in range(count)]

    def apply(self, avec, bvec):
        """bch(a, b) as a vector of polynomials with real coefficients."""
        n = self.algebra.dim
        if len(avec) != n or len(bvec) != n:
            raise ValueError("vectors must match the algebra dimension")
        nvars = avec[0].nvars
        if any(p.nvars != nvars for p in (*avec, *bvec)):
            raise ValueError("variable count mismatch")
        top = max((x for p in (*avec, *bvec) for e in p.terms for x in e), default=0)
        width = self._width(top)
        comps, den = self._apply(_packed(avec, width), _packed(bvec, width))
        return [_poly(comp, den, nvars, width) for comp in comps]

    def symbolic(self):
        """The law on 2N symbolic coordinates (a_1..a_N, b_1..b_N)."""
        n = self.algebra.dim
        width = self._width(1)
        comps, den = self._apply(*self._variables(2, width))
        names = [f"a_{l}" for l in self.algebra.labels] + [f"b_{l}" for l in self.algebra.labels]
        return names, [_poly(comp, den, 2 * n, width) for comp in comps]

    def associativity_residual(self):
        """bch(bch(a, b), c) - bch(a, bch(b, c)) on 3N symbolic coordinates."""
        n = self.algebra.dim
        # the inner law's exponents reach cap, so the outer law's reach cap * cap
        width = self._width(self.cap)
        a, b, c = self._variables(3, width)
        left, lden = self._apply(self._apply(a, b), c)
        right, rden = self._apply(a, self._apply(b, c))
        diff, den = _combination([(1, lden, left), (-1, rden, right)])
        return [_poly(comp, den, 3 * n, width) for comp in diff]


def _mul_into(acc: dict, p: dict, q: dict, sign: int):
    """acc += sign · p · q on packed monomials (zeros are dropped later)."""
    for ea, ca in p.items():
        ca *= sign
        for eb, cb in q.items():
            e = ea + eb
            acc[e] = acc.get(e, 0) + ca * cb


def _combination(summands):
    """Sum of num/den · comps over (num, den, comps), as numerators over one
    denominator in lowest terms (the gcd is taken once, on the finished sum)."""
    den = lcm(*(d for _, d, _ in summands))
    out = [{} for _ in summands[0][2]]
    for num, d, comps in summands:
        scale = num * (den // d)
        for acc, comp in zip(out, comps):
            for e, x in comp.items():
                acc[e] = acc.get(e, 0) + scale * x
    out = [{e: x for e, x in acc.items() if x} for acc in out]
    g = gcd(den, *(x for acc in out for x in acc.values()))
    if g == 1:
        return out, den
    return [{e: x // g for e, x in acc.items()} for acc in out], den // g


def _packed(vec, width: int):
    """A vector of real Polys as packed numerators over one denominator."""
    if any(c.im for p in vec for c in p.terms.values()):
        raise ValueError("group law needs real polynomial coefficients")
    den = lcm(*(c.re.denominator for p in vec for c in p.terms.values()))
    comps = []
    for p in vec:
        comp = {}
        for e, c in p.terms.items():
            comp[sum(x << (width * i) for i, x in enumerate(e))] = c.re.numerator * (den // c.re.denominator)
        comps.append(comp)
    return comps, den


def _unpack(mono: int, nvars: int, width: int) -> tuple:
    mask = (1 << width) - 1
    return tuple((mono >> (width * i)) & mask for i in range(nvars))


def _poly(comp: dict, den: int, nvars: int, width: int) -> Poly:
    return Poly(nvars, {_unpack(e, nvars, width): QI(Fraction(x, den)) for e, x in comp.items()})


def left_invariant_frame(m: GradedLieAlgebra):
    """Left-invariant fields on exponential coordinates, one per basis element.

    Differentiates the group law in its second argument at the identity;
    the brackets of the returned fields reproduce the structure constants
    of ``m`` exactly (checked by the callers that rely on it).
    """
    law = GroupLaw(m)
    n = m.dim
    width = law._width(1)
    comps, den = law._apply(*law._variables(2, width))
    a_mask = (1 << (width * n)) - 1
    chart = real_chart(m.labels)
    fields = []
    for j in range(n):
        b_j = 1 << (width * j)
        # the part of each component linear in b_j, as a polynomial in a
        linear = [{e & a_mask: x for e, x in comp.items() if e >> (width * n) == b_j} for comp in comps]
        fields.append(PolyVectorField(chart, [_poly(comp, den, n, width) for comp in linear]))
    return fields
