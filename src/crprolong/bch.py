"""Group law of a nilpotent graded Lie algebra in exponential coordinates.

The universal series is obtained the honest way: multiply the two
truncated exponentials in the free associative algebra, take the
truncated logarithm, and read the Lie coordinates off in the Lyndon
basis by triangular elimination.  All of it runs on integer coefficients
over one denominator, and the extraction is certified on every call by
re-expanding the bracket series and comparing with the logarithm term by
term.

The series is then evaluated in a concrete real algebra, exactly and
fraction-free, on real forms of the packed layout of :mod:`crprolong.poly`
(integer numerators over one common denominator per vector), and each
coefficient of the result becomes a ``QI`` once, in ``poly``'s decoder.
Each caller gets only what it
reads: the associativity residual evaluates the law bch(a, b) once, gets
bch(a, bch(b, c)) by substituting bch(b, c) into it, and reads the other
side off the law's inverse symmetry bch(x, y) = -bch(-y, -x); the
left-invariant frame evaluates only the part of the law linear in b; and
each bracket of the series is taken only at the degrees that its parent
bracket reads.  Ungraded or complex structure constants are refused with
``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .assoc import a_add, a_mul, expand_tree, lie_coordinates
from .exact import _lowest_terms, _over_one_denominator, _sum_forms
from .freelie import standard_factorization, standard_tree
from .liealg import GradedLieAlgebra, check_grading
from .poly import PolyVectorField, _decode, _mul_into, real_chart

__all__ = ["NotNilpotent", "bch_series", "GroupLaw", "left_invariant_frame"]


class NotNilpotent(ValueError):
    """The group law needs a negatively graded (hence nilpotent) algebra."""


@lru_cache(maxsize=None)
def bch_series(cap: int):
    """Universal log(exp X · exp Y) through bracket length ``cap``.

    Returns a tuple of (Lyndon word, Fraction coefficient) sorted by
    (length, word); each word stands for its standard bracketing.  The
    series is computed in integers: with N = cap!, N·(exp X · exp Y - 1)
    has the integer coefficients N/(i!·j!), and the logarithm is summed
    over the one denominator N^(cap+1), a multiple of every n·N^n since n
    divides N.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    n_fact = factorial(cap)
    eaten = {
        (1,) * i + (2,) * j: n_fact // (factorial(i) * factorial(j))
        for i in range(cap + 1)
        for j in range(cap + 1 - i)
        if i + j
    }
    log = {}
    power = {(): 1}
    for n in range(1, cap + 1):
        power = a_mul(power, eaten, cap)
        a_add(log, power, (-1) ** (n + 1) * n_fact ** (cap - n) * (n_fact // n))
    den = n_fact ** (cap + 1)
    memo = {}
    coords = lie_coordinates(log, cap, memo)
    # certify the extraction: the bracket series must re-expand to the log
    expanded = {}
    for word, coeff in coords.items():
        a_add(expanded, expand_tree(standard_tree(word), cap, memo), coeff)
    if expanded != log:
        raise AssertionError("Lyndon extraction failed to reproduce the logarithm")
    return tuple((word, Fraction(coeff, den)) for word, coeff in sorted(coords.items(), key=lambda t: (len(t[0]), t[0])))


class GroupLaw:
    """bch(a, b) evaluated in a fixed real algebra, on polynomial vectors.

    The bracket tree of :func:`bch_series` is evaluated on real forms of
    the packed layout of :mod:`crprolong.poly`, one vector a list of
    packed polynomials over one common denominator.  Every result
    coefficient becomes a ``QI`` once, in ``poly``'s decoder.
    """

    def __init__(self, algebra: GradedLieAlgebra):
        if any(d >= 0 for d in algebra.degrees):
            raise NotNilpotent("group law needs strictly negative degrees")
        if check_grading(algebra):
            raise ValueError("group law needs a graded algebra")
        table, self._den = algebra._numerators  # {(i, j): {k: re, ~k: im}} over self._den
        if any(k < 0 for terms in table.values() for k in terms):
            raise ValueError("group law needs real structure constants")
        self.algebra = algebra
        self.cap = -min(algebra.degrees)
        # the packing width: on variables of exponent 1, a bracket of at most
        # cap leaves multiplies at most cap of them, so no exponent passes cap
        self._width = max(self.cap, 1).bit_length()
        self.series = bch_series(self.cap)
        # ((i, j), [(k, c)], deg i + deg j) of each table pair, by decreasing degree
        self._pairs = sorted(
            (((i, j), list(terms.items()), algebra.degrees[i] + algebra.degrees[j])
             for (i, j), terms in table.items()),
            key=lambda pair: -pair[2],
        )

    def _bracket_into(self, out, u, v, floor: int, scale: int):
        """out[k] += scale · [u, v]_k on numerators, only for the degrees of k at or above ``floor``."""
        for (i, j), terms, degree in self._pairs:
            if degree < floor:
                break
            ui, uj, vi, vj = u[i], u[j], v[i], v[j]
            if not (ui and vj or uj and vi):
                continue
            for k, c in terms:
                c *= scale
                _mul_into(out[k], ui, vj, c)
                _mul_into(out[k], uj, vi, -c)

    def _bracket(self, u, v, floor: int):
        (uc, ud), (vc, vd) = u, v
        out = [{} for _ in uc]
        self._bracket_into(out, uc, vc, floor, 1)
        return [{e: x for e, x in acc.items() if x} for acc in out], ud * vd * self._den

    def _plan(self, series):
        """The lowest degree read of each tree that ``series`` needs, each tree's factors, and the trees to store.

        Trees are named by their Lyndon words.  A series word is read at
        every degree.  A factor t of a parent [t, s] or [s, t] is read only
        at degrees >= floor(parent) + len(s), since s lies in degrees
        <= -len(s); its floor is the least such bound over its parents.
        The stored trees are the factors longer than a letter, shortest
        first.
        """
        floors = dict.fromkeys((word for word, _ in series), -self.cap)
        factors = {}
        for length in range(self.cap, 1, -1):  # every parent is longer than its factors
            for word in [w for w in floors if len(w) == length]:
                u, v = factors[word] = standard_factorization(word)
                # every floor is negative, so 0 stands for a factor not yet seen
                floors[u] = min(floors.get(u, 0), floors[word] + len(v))
                floors[v] = min(floors.get(v, 0), floors[word] + len(u))
        stored = sorted({t for pair in factors.values() for t in pair if len(t) > 1}, key=len)
        return floors, factors, stored

    def _apply(self, a, b, series=None):
        """bch(a, b) on the packed form, reduced to lowest terms (only the words of ``series``, if given).

        The stored trees are evaluated each only at the degrees its parents
        read.  Every series word is summed into one output, scaled by its
        coefficient over the common denominator; a word that is no factor
        is bracketed straight into it.
        """
        if series is None:
            series = self.series
        floors, factors, stored = self._plan(series)
        values = {(1,): a, (2,): b}
        for word in stored:
            u, v = factors[word]
            values[word] = self._bracket(values[u], values[v], floors[word])

        def den(word):  # of the value of ``word``, known before a word that is no factor is bracketed
            if word in values:
                return values[word][1]
            u, v = factors[word]
            return values[u][1] * values[v][1] * self._den

        scales, common = _over_one_denominator((c.numerator, c.denominator * den(word)) for word, c in series)
        out = {k: {} for k in range(self.algebra.dim)}
        for (word, _), f in zip(series, scales):
            if word in values:
                for acc, comp in zip(out.values(), values[word][0]):
                    for e, x in comp.items():
                        acc[e] = acc.get(e, 0) + f * x
            else:
                u, v = factors[word]
                self._bracket_into(out, values[u][0], values[v][0], floors[word], f)
        forms, common = _lowest_terms(out, common)
        return [forms.get(k, {}) for k in range(self.algebra.dim)], common

    def _variables(self, count: int, width: int):
        n = self.algebra.dim
        return [([{1 << (width * (s * n + i)): 1} for i in range(n)], 1) for s in range(count)]

    def symbolic(self):
        """The law on 2N symbolic coordinates (a_1..a_N, b_1..b_N)."""
        n = self.algebra.dim
        width = self._width
        comps, den = self._apply(*self._variables(2, width))
        names = [f"a_{l}" for l in self.algebra.labels] + [f"b_{l}" for l in self.algebra.labels]
        return names, [_decode(comp, den, 2 * n, width) for comp in comps]

    def _associativity_sides(self):
        """bch(bch(a, b), c) and bch(a, bch(b, c)) on the packed form, and the packing width.

        The right side is bch(a, y) = bch(a, b) with y := bch(b, c)
        substituted (``_compose``), so the series is evaluated once.

        If bch(a, b) passes the check bch(x, y) = -bch(-y, -x), that identity
        on polynomial arguments gives bch(bch(a, b), c) = -bch(-c, bch(-b, -a)),
        which ``_mirror`` reads off the right side.  An associative law passes
        it (bch(x, -x) = 0), so only a law with a nonzero residual has its
        left side evaluated directly.
        """
        n = self.algebra.dim
        # each coordinate has weight -deg >= 1 and the graded bracket keeps a
        # degree-d component at weight -d <= cap, so no exponent passes cap
        width = self._width
        a, b, c = self._variables(3, width)
        comps, den = ab = self._apply(a, b)
        bc = [{e << (width * n): x for e, x in comp.items()} for comp in comps], den  # bch(b, c): a -> b, b -> c
        right = _compose(ab, bc, width * n, width)  # bch(a, y) at y = bch(b, c)
        left = _mirror(right, 3, n, width) if _mirror(ab, 2, n, width) == ab else self._apply(ab, c)
        return left, right, width

    def associativity_residual(self):
        """bch(bch(a, b), c) - bch(a, bch(b, c)) on 3N symbolic coordinates, the left side read off the right where it may be."""
        n = self.algebra.dim
        left, right, width = self._associativity_sides()
        # both sides come in lowest terms, so equal forms are a zero residual and only a mismatch is summed
        sides = () if left == right else ((1, left), (-1, right))
        diff, den = _sum_forms([(k, s, d, comp) for s, (comps, d) in sides for k, comp in enumerate(comps)])
        return [_decode(diff.get(k, {}), den, 3 * n, width) for k in range(n)]


def _compose(form, inner, shift: int, width: int):
    """f(a, Y) on the packed form, for a form f(a, y) whose y-variables start at bit ``shift`` and the vector Y = ``inner``.

    Each component of Y is brought to its own lowest terms, and each
    product of Y components that a y-part of f names is built once, from
    the product of the y-part less its lowest variable, in a memo keyed by
    the y-part.  The terms are summed over the lcm of the products'
    denominators, and one gcd closes the sum.  Substituting y := Y is a
    ring map on the coefficients and every bracket is bilinear over them,
    so f(a, Y) equals the law evaluated on (a, Y) for any graded bilinear
    table.
    """
    comps, den = form
    ys, yden = inner
    ys = [(forms.get(0, {}), d) for forms, d in (_lowest_terms({0: comp}, yden) for comp in ys)]
    low = (1 << shift) - 1
    products = {0: ({0: 1}, 1)}  # y-part: (numerators, denominator) of its product

    def product(part):
        if (got := products.get(part)) is None:
            j = ((part & -part).bit_length() - 1) // width
            (rest, d), (y, dy) = product(part - (1 << width * j)), ys[j]
            acc = {}
            _mul_into(acc, rest, y, 1)
            got = products[part] = acc, d * dy
        return got

    terms = [(k, e & low, product(e >> shift), x) for k, comp in enumerate(comps) for e, x in comp.items()]
    scales, common = _over_one_denominator((x, d) for _, _, (_, d), x in terms)
    out = {k: {} for k in range(len(comps))}
    for (k, a, (prod, _), _), x in zip(terms, scales):
        acc = out[k]
        for e, y in prod.items():
            e += a
            acc[e] = acc.get(e, 0) + x * y
    forms, den = _lowest_terms(out, den * common)
    return [forms.get(k, {}) for k in range(len(comps))], den


def _mirror(form, groups: int, n: int, width: int):
    """-f(-z, ..., -x) of a packed form f(x, ..., z) on ``groups`` groups of n variables: the outer groups swap, each term takes (-1)^(deg+1)."""
    comps, den = form
    last = width * n * (groups - 1)
    first, shift = (1 << width * n) - 1, (1 << last) - 1
    low = sum(1 << (width * i) for i in range(groups * n))  # deg is odd iff an odd number of exponents have this low bit set
    # adding (first group - last group)·(2^last - 1) puts each outer group in the other's place
    return [{e + ((e & first) - (e >> last)) * shift: x if (e & low).bit_count() & 1 else -x for e, x in comp.items()} for comp in comps], den


def left_invariant_frame(m: GradedLieAlgebra):
    """Left-invariant fields on exponential coordinates, one per basis element.

    Differentiates the group law in its second argument at the identity;
    the brackets of the returned fields reproduce the structure constants
    of ``m`` exactly (checked by the callers that rely on it).
    """
    law = GroupLaw(m)
    n, width = m.dim, law._width
    shift, mask = width * n, (1 << width * n) - 1
    # the part linear in b is the sum over the words with one letter 2
    comps, den = law._apply(*law._variables(2, width), [t for t in law.series if t[0].count(2) == 1])
    fields = [[{} for _ in comps] for _ in range(n)]
    for k, comp in enumerate(comps):
        for e, x in comp.items():  # e is b_j times a monomial in a
            fields[((e >> shift).bit_length() - 1) // width][k][e & mask] = x
    chart = real_chart(m.labels)
    return [PolyVectorField(chart, [_decode(comp, den, n, width) for comp in field]) for field in fields]
