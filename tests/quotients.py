"""Seeded top-layer quotients of three kinds, and dense stability tests for them.

``random_quotient`` draws conjugation-stable quotients,
``rotation_stable_quotient`` quotients that are stable under both the
generator swap and the bidegree rotation, and ``unstable_quotient``
quotients that are stable under neither.  Each draw has full rank, checked by
the dense ``oracles.dense_rref``.  ``swap_stable`` and
``rotation_stable`` decide membership of each row's image in the row
span by ``oracles.dense_reduce``; neither touches ``Echelon``.  The swap
itself is read off the package's own normal form of each conjugated Hall
tree, the one object they share with the code under test.
"""

import random
from fractions import Fraction

from oracles import C_ZERO, c_mul, dense_reduce, dense_rref

from crprolong.exact import QI
from crprolong.freelie import (
    conjugate_tree,
    cumulative_dim,
    hall_basis,
    min_length_for_codim,
    tree_normal_form,
    witt_dim,
)
from crprolong.liealg import QuotientSpec, conjugation_adapted_top_basis

I = QI(0, 1)


def _top(k):
    """(top Hall words, number of quotient rows) for codimension k."""
    rho = min_length_for_codim(k)
    top = [w for w in hall_basis(rho).words if w.length == rho]
    return top, witt_dim(rho) - (2 + k - cumulative_dim(rho - 1))


def _pairs(row):
    return [(Fraction(x.re), Fraction(x.im)) for x in row]


def _full_rank(rows, need):
    return len(dense_rref([_pairs(r) for r in rows], range(len(rows[0]) if rows else 0))[0]) == need


def _spec(rows, provenance):
    return QuotientSpec(kind="explicit", rows=tuple(tuple(r) for r in rows), provenance=provenance)


def swap_matrix(top):
    """The generator swap on the top words, as dense integer rows: column s is the normal form of the conjugated tree of s."""
    pos = {w.word: p for p, w in enumerate(top)}
    rows = [[0] * len(top) for _ in top]
    for s, w in enumerate(top):
        for word, c in tree_normal_form(conjugate_tree(w.tree)).items():
            rows[pos[word]][s] = c
    return rows


def _swap_conj(swap, row):
    """S·conj(row) for a row of ``QI``."""
    return [sum((c * row[s].conj() for s, c in enumerate(line) if c), QI(0)) for line in swap]


def random_quotient(k, seed):
    """A seeded full-rank, conjugation-stable top-layer quotient for codimension k.

    Each row is a combination, with small rational coefficients, of the
    conjugation-fixed vectors of the top layer (v for a fixed adapted
    vector, i·v for an anti-fixed one), so the span is conjugation-stable.
    """
    top, need = _top(k)
    fixed = [[x if tag == 1 else I * x for x in v] for v, tag in conjugation_adapted_top_basis(len(top[0].word))]
    rng = random.Random(1000 * seed + k)
    while True:
        rows = []
        for _ in range(need):
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in fixed]
            rows.append(tuple(sum((c * f[t] for c, f in zip(coeffs, fixed)), QI(0)) for t in range(len(top))))
        if _full_rank(rows, need):
            return _spec(rows, f"seed {seed}")


def _coefficient(rng):
    return QI(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def rotation_stable_quotient(k, seed):
    """A seeded full-rank quotient stable under the generator swap and the bidegree rotation, or None if k has none.

    Every row is bidegree-homogeneous.  A random vector v of bidegree
    (n, nt) with n > nt comes with its swap S·conj(v), of bidegree
    (nt, n); a row of bidegree (n, n) is v + S·conj(v), which the swap
    fixes.  The number of rows of each kind is drawn so that they add up
    to the quotient's dimension.
    """
    top, need = _top(k)
    swap = swap_matrix(top)
    by_weight = {}
    for t, w in enumerate(top):
        n, nt = w.bidegree
        by_weight.setdefault(n - nt, []).append(t)
    # one unit per dimension of a weight m >= 0: two rows for m > 0, one for m = 0
    units = [m for m, ts in by_weight.items() if m >= 0 for _ in ts]
    rng = random.Random(7919 * seed + k)
    if not _fits(units, need):
        return None
    for _ in range(200):
        rng.shuffle(units)
        chosen, left = [], need
        for m in units:
            size = 1 if m == 0 else 2
            if size <= left:
                chosen.append(m)
                left -= size
        if left:
            continue
        rows = []
        for m in chosen:
            v = [QI(0)] * len(top)
            for t in by_weight[m]:
                v[t] = _coefficient(rng)
            image = _swap_conj(swap, v)
            rows += [[a + b for a, b in zip(v, image)]] if m == 0 else [v, image]
        if _full_rank(rows, need):
            return _spec(rows, f"rotation seed {seed}")
    raise AssertionError(f"no rotation-stable draw for k = {k}, seed {seed}")


def _fits(units, need):
    """Whether the sizes of some of ``units`` add up to ``need``."""
    reach = {0}
    for m in units:
        reach |= {r + (1 if m == 0 else 2) for r in reach}
    return need in reach


def unstable_quotient(k, seed):
    """A seeded full-rank quotient of random Gaussian rational rows, stable under neither the swap nor the rotation, or None if the quotient is zero."""
    top, need = _top(k)
    if not need:
        return None
    rng = random.Random(104729 * seed + k)
    while True:
        spec = _spec([[_coefficient(rng) for _ in top] for _ in range(need)], f"unstable seed {seed}")
        if _full_rank(spec.rows, need) and not swap_stable(k, spec) and not rotation_stable(k, spec):
            return spec


def _stable(rows, image):
    """Whether image(q) lies in the span of ``rows`` for every row q, by dense reduction."""
    if not rows:
        return True
    pivots, prows = dense_rref([_pairs(r) for r in rows], range(len(rows[0])))
    return all(all(x == C_ZERO for x in dense_reduce(pivots, prows, _pairs(image(r)))) for r in rows)


def swap_stable(k, spec):
    """Whether the span of ``spec.rows`` is stable under z -> S·conj(z), the generator swap."""
    swap = swap_matrix(_top(k)[0])
    return _stable(spec.rows, lambda row: _swap_conj(swap, row))


def rotation_stable(k, spec):
    """Whether the span of ``spec.rows`` is stable under the bidegree diagonal -i(n - nt) on the top words."""
    weights = [(Fraction(0), Fraction(nt - n)) for n, nt in (w.bidegree for w in _top(k)[0])]
    return _stable(spec.rows, lambda row: [QI(*c_mul(z, x)) for z, x in zip(weights, _pairs(row))])
