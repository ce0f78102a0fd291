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
coefficient of the result becomes a ``QI`` once.  Each caller gets
only what it reads: the associativity residual evaluates the inner law
once, and the left-invariant frame only the part of the law linear in b.
Ungraded or complex structure constants and complex input coefficients
are refused with ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .assoc import a_add, a_mul, expand_tree, lie_coordinates
from .exact import _gaussian_integers, _qi, _sum_forms
from .freelie import standard_tree
from .liealg import GradedLieAlgebra, check_grading
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
    exp_x = {(1,) * i: Fraction(1, factorial(i)) for i in range(cap + 1)}
    exp_y = {(2,) * i: Fraction(1, factorial(i)) for i in range(cap + 1)}
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
    ``int`` denominator.  Every result coefficient becomes a ``QI``
    once, in the conversion back to :class:`Poly`.
    """

    def __init__(self, algebra: GradedLieAlgebra):
        if any(d >= 0 for d in algebra.degrees):
            raise NotNilpotent("group law needs strictly negative degrees")
        if check_grading(algebra):
            raise ValueError("group law needs a graded algebra")
        self._table, self._den = algebra._numerators  # {(i, j): {k: (re, im)}} over self._den
        if any(im for terms in self._table.values() for _, im in terms.values()):
            raise ValueError("group law needs real structure constants")
        self.algebra = algebra
        self.cap = -min(algebra.degrees)
        self.series = bch_series(self.cap)

    def _bracket(self, u, v):
        (uc, ud), (vc, vd) = u, v
        out = [{} for _ in uc]
        for (i, j), terms in self._table.items():
            ui, uj, vi, vj = uc[i], uc[j], vc[i], vc[j]
            if not (ui and vj or uj and vi):
                continue
            for k, (c, _) in terms.items():
                _mul_into(out[k], ui, vj, c)
                _mul_into(out[k], uj, vi, -c)
        return [{e: x for e, x in acc.items() if x} for acc in out], ud * vd * self._den

    def _apply(self, a, b, series=None):
        """bch(a, b) on the private form, reduced to lowest terms (only the words of ``series``, if given)."""
        memo = {1: a, 2: b}

        def value(tree):
            if tree not in memo:
                memo[tree] = self._bracket(value(tree[0]), value(tree[1]))
            return memo[tree]

        terms = []
        for word, coeff in series or self.series:
            comps, den = value(standard_tree(word))
            terms += [(k, coeff.numerator, coeff.denominator * den, comp) for k, comp in enumerate(comps)]
        forms, den = _sum_forms(terms)
        return [forms.get(k, {}) for k in range(self.algebra.dim)], den

    def _width(self, top_exponent: int) -> int:
        # a bracket of at most cap leaves multiplies at most cap input
        # monomials, so no exponent of bch(a, b) exceeds top_exponent * cap
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

    def _associativity_sides(self):
        """bch(bch(a, b), c) and bch(a, bch(b, c)) on the private form, and the packing width."""
        n = self.algebra.dim
        # each coordinate has weight -deg >= 1 and the graded bracket keeps a
        # degree-d component at weight -d <= cap, so no exponent passes cap
        width = self._width(1)
        a, b, c = self._variables(3, width)
        comps, den = ab = self._apply(a, b)
        bc = [{e << (width * n): x for e, x in comp.items()} for comp in comps], den  # bch(b, c): a -> b, b -> c
        return self._apply(ab, c), self._apply(a, bc), width

    def associativity_residual(self):
        """bch(bch(a, b), c) - bch(a, bch(b, c)) on 3N symbolic coordinates."""
        n = self.algebra.dim
        left, right, width = self._associativity_sides()
        # both sides come in lowest terms, so equal forms are a zero residual and only a mismatch is summed
        sides = () if left == right else ((1, left), (-1, right))
        diff, den = _sum_forms([(k, s, d, comp) for s, (comps, d) in sides for k, comp in enumerate(comps)])
        return [_poly(diff.get(k, {}), den, 3 * n, width) for k in range(n)]


def _mul_into(acc: dict, p: dict, q: dict, scale: int):
    """acc += scale · p · q on packed monomials (zeros are dropped later)."""
    for ea, ca in p.items():
        ca *= scale
        for eb, cb in q.items():
            e = ea + eb
            acc[e] = acc.get(e, 0) + ca * cb


def _packed(vec, width: int):
    """A vector of real Polys as packed numerators over one denominator."""
    if any(c.im for p in vec for c in p.terms.values()):
        raise ValueError("group law needs real polynomial coefficients")
    nums, den = _gaussian_integers(
        ((k, sum(x << (width * i) for i, x in enumerate(e))), c) for k, p in enumerate(vec) for e, c in p.terms.items()
    )
    comps = [{} for _ in vec]
    for (k, mono), (x, _) in nums.items():
        comps[k][mono] = x
    return comps, den


def _poly(comp: dict, den: int, nvars: int, width: int) -> Poly:
    mask = (1 << width) - 1
    return Poly(nvars, {tuple((e >> (width * i)) & mask for i in range(nvars)): _qi(x, 0, den) for e, x in comp.items()})


def left_invariant_frame(m: GradedLieAlgebra):
    """Left-invariant fields on exponential coordinates, one per basis element.

    Differentiates the group law in its second argument at the identity;
    the brackets of the returned fields reproduce the structure constants
    of ``m`` exactly (checked by the callers that rely on it).
    """
    law = GroupLaw(m)
    n, width = m.dim, law._width(1)
    shift, mask = width * n, (1 << width * n) - 1
    # the part linear in b is the sum over the words with one letter 2
    comps, den = law._apply(*law._variables(2, width), [t for t in law.series if t[0].count(2) == 1])
    fields = [[{} for _ in comps] for _ in range(n)]
    for k, comp in enumerate(comps):
        for e, x in comp.items():  # e is b_j times a monomial in a
            fields[((e >> shift).bit_length() - 1) // width][k][e & mask] = x
    chart = real_chart(m.labels)
    return [PolyVectorField(chart, [_poly(comp, den, n, width) for comp in field]) for field in fields]
