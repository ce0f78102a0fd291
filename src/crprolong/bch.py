"""Group law of a nilpotent graded Lie algebra in exponential coordinates.

The universal series is obtained the honest way: multiply the two
truncated exponentials in the free associative algebra, take the
truncated logarithm, and read the Lie coordinates off in the Lyndon
basis by triangular elimination.  The extraction is certified on every
call by re-expanding the bracket series and comparing with the logarithm
term by term.  Evaluating the series in a concrete algebra, and the
left-invariant frame it induces, then reduce to exact polynomial
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .assoc import a_add, a_mul, expand_tree, lie_coordinates
from .freelie import standard_tree
from .liealg import GradedLieAlgebra
from .poly import Poly, PolyVectorField, real_chart

__all__ = ["NotNilpotent", "bch_series", "GroupLaw", "bch_group_law", "left_invariant_frame"]


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
    """bch(a, b) evaluated in a fixed algebra, on polynomial vectors."""

    def __init__(self, algebra: GradedLieAlgebra):
        if any(d >= 0 for d in algebra.degrees):
            raise NotNilpotent("group law needs strictly negative degrees")
        self.algebra = algebra
        self.cap = -min(algebra.degrees)
        self.series = bch_series(self.cap)

    def _vec_bracket(self, u, v, weights, cap):
        out = [Poly.zero(u[0].nvars) for _ in u]
        for (i, j), terms in self.algebra.table.items():
            p = u[i].mul(v[j], weights, cap) - u[j].mul(v[i], weights, cap)
            if p.is_zero():
                continue
            for k, c in terms.items():
                out[k] = out[k] + p.scale(c)
        return out

    def apply(self, avec, bvec, weights):
        """bch(a, b) as a vector of polynomials.

        ``weights`` (one per polynomial variable) prunes exactly the
        monomials whose weighted degree exceeds the nilpotency class; every
        graded component of the result is weight-homogeneous, so nothing
        admissible is lost.
        """
        n = self.algebra.dim
        if len(avec) != n or len(bvec) != n:
            raise ValueError("vectors must match the algebra dimension")
        memo = {}

        def value(tree):
            if tree in memo:
                return memo[tree]
            if isinstance(tree, int):
                out = list(avec) if tree == 1 else list(bvec)
            else:
                out = self._vec_bracket(value(tree[0]), value(tree[1]), weights, self.cap)
            memo[tree] = out
            return out

        nvars = avec[0].nvars
        out = [Poly.zero(nvars) for _ in range(n)]
        for word, coeff in self.series:
            vec = value(standard_tree(word))
            for k in range(n):
                if not vec[k].is_zero():
                    out[k] = out[k] + vec[k].scale(Fraction(coeff))
        return out

    def symbolic(self):
        """The law on 2N symbolic coordinates (a_1..a_N, b_1..b_N)."""
        n = self.algebra.dim
        nvars = 2 * n
        avec = [Poly.var(nvars, i) for i in range(n)]
        bvec = [Poly.var(nvars, n + i) for i in range(n)]
        weights = [-d for d in self.algebra.degrees] * 2
        names = [f"a_{l}" for l in self.algebra.labels] + [f"b_{l}" for l in self.algebra.labels]
        return names, self.apply(avec, bvec, weights)

    def associativity_residual(self):
        """bch(a, bch(b, c)) - bch(bch(a, b), c) on 3N symbolic coordinates."""
        n = self.algebra.dim
        nvars = 3 * n
        weights = [-d for d in self.algebra.degrees] * 3
        avec = [Poly.var(nvars, i) for i in range(n)]
        bvec = [Poly.var(nvars, n + i) for i in range(n)]
        cvec = [Poly.var(nvars, 2 * n + i) for i in range(n)]
        left = self.apply(self.apply(avec, bvec, weights), cvec, weights)
        right = self.apply(avec, self.apply(bvec, cvec, weights), weights)
        return [p - q for p, q in zip(left, right)]


def bch_group_law(m: GradedLieAlgebra) -> GroupLaw:
    """Exponential-coordinate product law of the nilpotent algebra ``m``."""
    return GroupLaw(m)


def left_invariant_frame(m: GradedLieAlgebra):
    """Left-invariant fields on exponential coordinates, one per basis element.

    Differentiates the group law in its second argument at the identity;
    the brackets of the returned fields reproduce the structure constants
    of ``m`` exactly (checked by the callers that rely on it).
    """
    law = GroupLaw(m)
    n = m.dim
    nvars = 2 * n
    weights = [-d for d in m.degrees] * 2
    avec = [Poly.var(nvars, i) for i in range(n)]
    bvec = [Poly.var(nvars, n + i) for i in range(n)]
    z = law.apply(avec, bvec, weights)
    chart = real_chart(m.labels)
    fields = []
    for j in range(n):
        comps = []
        for c in range(n):
            terms = {}
            for e, coeff in z[c].terms.items():
                bpart = e[n:]
                if sum(bpart) != 1 or bpart[j] != 1:
                    continue
                terms[e[:n]] = coeff
            comps.append(Poly(n, terms))
        fields.append(PolyVectorField(chart, comps))
    return fields
