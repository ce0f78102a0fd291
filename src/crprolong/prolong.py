"""Tanaka and Levi-Tanaka prolongations of fundamental graded algebras.

Every nonnegative component comes from one solver, ``_solve_component``.
The negative part m is fundamental, so a degree-l derivation is fixed by
its restriction to g_-1 (Tanaka 1970): the unknown is that block alone,
2·dim V_(l-1) entries for a CR symbol.  It is extended to the other
layers on demand, along one fixed expression of each basis element as a
bracket with g_-1, and the component is the exact kernel of the Leibniz
identity evaluated on the basis pairs of m, plus commutation with the
complex structure J on the degree -1 block for the grade-0 component of
the Levi-Tanaka flavor.  A pair whose bracket is a multiple of one e_x
that it alone expresses is left out (``_defining_pairs``): D(e_x) is
defined from that bracket, so its residual is zero by construction, and
the Jacobi gate of the assembled table still checks every pair.  The
rows stream into a kernel that stops at full rank, real or complex, so a
zero component (G^1 of a CR symbol) reads a prefix of them.  The pairs
come block pair by block pair, in increasing degree sum, so that for
l >= 1 the pairs of g_-1 with the top layer, whose rows bind first, are
read first.
The solve is fraction-free and works over Q(i):
Gaussian integer linear forms, packed so that a real input stays in
plain integers, over one denominator per image, primitive rows
deduplicated up to scale as they come, and ``exact._integer_kernel``,
whose reduction realifies only from the first row with complex entries
on.  A complex algebra such as a symbol on its Hall basis is prolonged
as it is: extending scalars commutes with taking the kernel, so its
prolongation is the complexification of the real form's.  The reduced kernel basis is the
one a solve for the full block maps m_a -> V_(a+l) would return; it is
built once in column form, {unknown: {vector: int}}, so one sparse
product per coordinate form gives that coordinate of every basis map.
Brackets between nonnegative components are assembled afterwards by the
usual induction [d, e](x) = [[d, x], e] + [d, [e, x]] on g_-1 alone, and
the coordinates of [d, e] are read off that block at the basis pivots
(``_coordinates``); its action on the rest of m is the Jacobi identity on
(e_x, d, e), left to the Jacobi gate of the assembled table.  All
of it runs on packed Gaussian integer numerators, the one form of
``exact``: a derivation map keeps its columns in the form of the
structure constants and of a ``Matrix`` (``({t: re, ~t: im}, den)``), the
solve's linear forms are packed the same way, and
``DerivationMap.flatten`` writes the one ``QI``, for output.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, product

from .exact import QI_ZERO, _entries, _form_terms, _gaussian_apply, _gaussian_axpy, _gaussian_primitive, _integer_kernel, _key, _lowest_terms, _numerator_table
from .exact import _qi_view, _relabel, _sum_forms, _term, _transpose
from .liealg import GradedLieAlgebra, MissingJ, _acts_faithfully, _generating_expressions, _rows, check_jacobi, is_pseudocomplex

__all__ = [
    "DerivationMap",
    "ProlongationComponent",
    "ProlongedAlgebra",
    "NotFundamental",
    "MissingLowerComponents",
    "GuardExceeded",
    "grade0",
    "prolong_component",
    "full_prolongation",
    "is_transitive",
]

LEVI_TANAKA = "levi-tanaka"
FULL_TANAKA = "full"


class NotFundamental(ValueError):
    """Input algebra is not generated by its degree -1 part."""


class MissingLowerComponents(ValueError):
    """Component of degree l requested before 0..l-1 were computed."""


class GuardExceeded(RuntimeError):
    """Prolongation failed to terminate within the guard bound."""


class DerivationMap:
    """A degree-l graded map out of m, one block per source degree, kept in integers.

    blocks[a] = (dim V_(a+l), columns): column s, the image of basis
    vector s of m_a, is ``({t: re, ~t: im}, den)``, its nonzero coordinates
    as packed Gaussian integer numerators, t increasing, over one positive
    denominator: the form of a ``Matrix`` column and of the structure
    constants.  V_(a+l) is the m block for a + l <= -1, else the
    already-computed component of that degree.  ``flatten`` is the one way
    to ``QI`` entries, for output.
    """

    def __init__(self, degree: int, blocks: dict):
        self.degree = degree
        self.blocks = blocks

    def flatten(self, source_degrees):
        """Every block in ``source_degrees`` order as one list of ``QI``, column by column, zeros included."""
        out = []
        for a in source_degrees:
            rows, columns = self.blocks[a]
            for col, den in columns:
                view = _qi_view(col, den)
                out.extend(view.get(t, QI_ZERO) for t in range(rows))
        return out


class ProlongationComponent:
    def __init__(self, degree: int, maps: tuple):
        self.degree = degree
        self.maps = maps

    @property
    def dim(self) -> int:
        return len(self.maps)

    @cached_property
    def pivots(self):
        """{pivot (t, s): (i, the g_-1 columns of map i)} over the maps, read once for ``_coordinates``."""
        ones = [dm.blocks[-1][1] for dm in self.maps]
        return {max((t, s) for s, (col, _) in enumerate(cols) for t, _, _ in _entries(col)): (i, cols) for i, cols in enumerate(ones)}


def _distinct_rows(forms):
    """Each nonzero packed form made primitive (``exact._gaussian_primitive``), yielded once per class up to scale."""
    seen = set()
    for form in forms:
        row = tuple(sorted(_gaussian_primitive(form).items()))
        if row not in seen:
            seen.add(row)
            yield dict(row)


def _defining_pairs(nums, gens):
    """The pairs (g, y), g < y, whose Leibniz residual is zero by construction, for the table ``nums`` and its expressions ``gens``.

    Such a pair has [e_g, e_y] = μ·e_x in the table, and the expression of
    e_x is that one pair, in one part or two (a complex coefficient), so
    D(e_x) is defined from that bracket in every degree l.
    """
    out = set()
    for x, (expression, _) in gens.items():
        g, y = expression[0][:2]
        pair = (g, y) if g < y else (y, g)
        if all(e[:2] == (g, y) for e in expression) and (terms := nums.get(pair)) and terms.keys() <= {_key(x, 0), _key(x, 1)}:
            out.add(pair)
    return out


def _solve_component(m: GradedLieAlgebra, components, l: int, j_constraint: bool) -> ProlongationComponent:
    """Degree-l component: solve on the g_-1 block, extend, check Leibniz on every pair but the defining ones.

    V_j is m_j for j <= -1 and ``components[j]`` for 0 <= j < l.  The
    unknown is the g_-1 block: entry (t, s), coordinate t of D(e_s) in
    V_(l-1), is unknown t·dim(g_-1) + s.  D is extended along the
    expressions e_x = sum of c·[e_g, e_y] as D(e_x) = sum of
    c·([D e_g, e_y] + [e_g, D e_y]), each coordinate a sparse linear form
    over the unknowns, one ``int`` denominator per image.  Every input is
    read as stored, in Gaussian integer numerators: ``m._numerators``, the
    columns of J, the coefficients of the expressions and the columns of
    the lower components.  A form is packed (``exact._times_i``): the real
    part of the coefficient of unknown u at key u, the imaginary part at
    key ~u, so a real input leaves every imaginary part empty and runs in
    plain integers.  Each nonzero coordinate of the Leibniz residual on a basis
    pair i < j is a row, so the kernel is the set of g_-1 blocks of
    derivations without appeal to Jacobi.  The pairs of ``_defining_pairs``,
    read off the table once per solve, yield no row and are not evaluated:
    [e_g, e_y] = μ·e_x with e_x expressed by that pair alone, so D(e_x) =
    μ^-1·([D e_g, e_y] + [e_g, D e_y]) and the residual is the zero form in
    every degree l, with or without Jacobi; ``j_constraint`` (grade 0) adds
    the rows of commutation with J.  A J row on one unknown sets it to
    zero, and that unknown is dropped before the extension: with J
    diagonal, as on the (L, L̄) basis of a symbol, that leaves the two
    diagonal entries.  The pairs are listed from ``m._blocks``: the block
    pairs (m_a, m_b), a >= b, whose target degree a + b + l has a
    component, by increasing a + b and then decreasing a, so for l >= 1
    the pairs of g_-1 with the top layer come first; within a block
    pair, in the order of the blocks' indices.  The J rows, then the
    Leibniz rows pair by pair, are made primitive, deduplicated up to
    scale and streamed into ``_integer_kernel`` over Q(i), which stops at
    full rank: the component is then zero, and no later row or image is
    built.  Otherwise every row
    is checked by substitution in integers, and one ``_gaussian_apply`` per
    coordinate form of each image gives that coordinate of every basis
    map, stored as Gaussian numerator columns.  The
    unknowns keep the order of the trailing g_-1 block of a solve for all
    blocks m_a -> V_(a+l).  No derivation has a zero g_-1 block, so every
    pivot of that solve's reduced kernel basis (the last nonzero entry of
    each vector) lies in this block, and that basis is the extension of
    the one found here.
    """
    gens = _generating_expressions(m)
    if gens is None:
        raise NotFundamental("prolongation needs a fundamental algebra")
    if j_constraint and m.J is None:
        raise MissingJ("J-constrained prolongation needs a complex structure")
    nums, mden = m._numerators
    blocks = m._blocks
    dims = m.dims_by_degree() | {d: c.dim for d, c in enumerate(components[:l])}
    loc = m._positions

    def bracket(image, sdeg, y, sign):
        """Terms of sign·[D e, e_y] for ``image`` = ({s: form}, den), the coordinates of D e in V_sdeg."""
        forms, den = image
        terms = []
        for s, form in forms.items():
            if sdeg >= 0:
                coeffs, aden = components[sdeg].maps[s].blocks[m.degrees[y]][1][loc[y]]
                terms += _form_terms(coeffs, sign, aden * den, form)
            else:
                # the table is keyed i < j: [e_x, e_y] = -[e_y, e_x]
                x = blocks[sdeg][s]
                f = sign if x < y else -sign
                terms += _form_terms(nums.get((x, y) if x < y else (y, x), {}), f, mden * den, form, loc)
        return terms

    nb = len(blocks[-1])
    width = dims.get(l - 1, 0) * nb
    jrows, zero = [], set()
    if j_constraint:
        jcols, jden = m.J._numerators
        j_rows = _rows(jcols)
        for p, q in product(range(nb), repeat=2):
            # (D J - J D)[p][q] on the g_-1 block, times the denominator of J:
            # the sum over s of J[s][q] at unknown (p, s) minus J[p][s] at unknown (s, q)
            acc = _relabel(jcols.get(q, {}), range(p * nb, p * nb + nb))
            for s, turn, x in j_rows.get(p, ()):
                _gaussian_axpy(acc, -x, {s * nb + q: 1}, turn)
            form = {v: x for v, x in acc.items() if x}
            support = {v for v, _, _ in _entries(form)}
            if len(support) == 1:
                zero |= support
                form = {v: 1 for v in support}
            if form:
                jrows.append(form)
    image = {
        g: ({t: {v: 1} for t in range(dims.get(l - 1, 0)) if (v := t * nb + s) not in zero}, 1)
        for s, g in enumerate(blocks[-1])
    }
    parts = {}

    def image_of(x):
        """D(e_x) as ({t: form}, den), extended along the expression of e_x on first use and kept."""
        if x not in image:
            # parts[g, y] = -[D e_g, e_y] + [D e_y, e_g], shared within a layer; D(e_x) = -sum of c·parts[g, y]
            expression, cden = gens[x]
            terms = []
            for g, y, turn, c in expression:
                if (g, y) not in parts:
                    parts[g, y] = _sum_forms(bracket(image_of(g), l - 1, y, -1) + bracket(image_of(y), m.degrees[y] + l, g, 1))
                forms, pden = parts[g, y]
                for t, form in forms.items():
                    terms.append(_term(t, turn, -c, cden * pden, form))
            image[x] = _sum_forms(terms)
        return image[x]

    def rows():
        """The J rows, then the nonzero coordinates of the Leibniz residual, pair by pair, in the block-pair order above, the defining pairs left out."""
        yield from jrows
        defining = _defining_pairs(nums, gens)
        block_pairs = sorted(((a, b) for a in blocks for b in blocks if a >= b and dims.get(a + b + l)), key=lambda ab: (sum(ab), -ab[0]))
        pairs = chain.from_iterable(combinations(blocks[a], 2) if a == b else product(blocks[a], blocks[b]) for a, b in block_pairs)
        for i, j in map(sorted, pairs):
            if (i, j) in defining:
                continue
            # minus the residual D([e_i, e_j]) - [D e_i, e_j] + [D e_j, e_i]
            terms = []
            for k, turn, g in _entries(nums.get((i, j), {})):
                forms, den = image_of(k)
                for t, form in forms.items():
                    terms.append(_term(t, turn, -g, mden * den, form))
            terms += bracket(image_of(i), m.degrees[i] + l, j, 1)
            terms += bracket(image_of(j), m.degrees[j] + l, i, -1)
            yield from _sum_forms(terms)[0].values()

    columns, vdens = _integer_kernel(_distinct_rows(rows()), width)
    maps = [{a: (dims.get(a + l, 0), []) for a in blocks} for _ in vdens]
    for y in range(m.dim if vdens else 0):  # by increasing index, so each block's columns come in local order
        forms, den = image_of(y)
        # coordinate t of D(e_y) for every kernel vector v at once, as rows by v
        images = _transpose({t: _gaussian_apply(columns, form) for t, form in sorted(forms.items())}, len(vdens))
        for out, col, vden in zip(maps, images, vdens):
            out[m.degrees[y]][1].append((col, vden * den))
    del image_of  # it calls itself: free that reference cycle, and the images, now
    return ProlongationComponent(l, tuple(DerivationMap(l, out) for out in maps))


def grade0(m: GradedLieAlgebra, j_constraint: bool) -> ProlongationComponent:
    """All grade-preserving derivations of m, optionally J-commuting.

    The unknown is the endomorphism of the degree -1 part, four entries
    for a CR symbol; ``_solve_component`` extends it to every layer, and
    the kernel of the Leibniz (+ J-commutation) rows is exactly the
    component.  Raises :class:`NotFundamental` when m is not generated by
    its degree -1 part.
    """
    return _solve_component(m, (), 0, j_constraint)


def prolong_component(m: GradedLieAlgebra, components, l: int) -> ProlongationComponent:
    """Degree-l component given the components of degrees 0..l-1 (see ``_solve_component``)."""
    if l < 1:
        raise ValueError("use grade0 for degree 0")
    if len(components) < l:
        raise MissingLowerComponents(f"need components 0..{l - 1} before degree {l}")
    return _solve_component(m, components, l, j_constraint=False)


class ProlongedAlgebra:
    """A prolongation together with its fully assembled bracket table."""

    def __init__(self, components: tuple, flavor: str, algebra: GradedLieAlgebra):
        self.components = components
        self.flavor = flavor
        self.algebra = algebra

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def component_dim(self, l: int) -> int:
        for c in self.components:
            if c.degree == l:
                return c.dim
        return 0

    def dims_by_degree(self) -> dict:
        return self.algebra.dims_by_degree()

    def termination_degree(self) -> int:
        """Degree of the first (explicitly represented) zero component."""
        return self.components[-1].degree

    def to_json_dict(self) -> dict:
        meta = {
            "flavor": self.flavor,
            "dims_by_degree": {str(d): n for d, n in self.dims_by_degree().items()},
            "terminated_at": self.termination_degree(),
        }
        return self.algebra.to_json_dict(meta=meta)


def full_prolongation(m: GradedLieAlgebra, flavor: str = LEVI_TANAKA) -> ProlongedAlgebra:
    """Iterate components until one vanishes, then assemble all brackets.

    Raises :class:`GuardExceeded` if no zero component appears by degree
    depth + 3 (m lives in degrees -depth..-1), which signals either a
    bug or an input whose prolongation really is infinite.
    """
    if flavor not in (LEVI_TANAKA, FULL_TANAKA):
        raise ValueError(f"unknown flavor {flavor!r}")
    # grade0 raises NotFundamental; is_pseudocomplex raises MissingJ
    if flavor == LEVI_TANAKA and not is_pseudocomplex(m):
        raise ValueError("Levi-Tanaka prolongation needs a pseudocomplex algebra")
    guard = -min(m.degrees) + 3
    components = [grade0(m, j_constraint=(flavor == LEVI_TANAKA))]
    terminated = False
    for l in range(1, guard + 1):
        comp = prolong_component(m, components, l)
        components.append(comp)
        if comp.dim == 0:
            terminated = True
            break
    if not terminated:
        raise GuardExceeded(f"no zero component through degree {guard}")
    algebra = _assemble(m, components)
    bad = check_jacobi(algebra)
    if bad:
        raise RuntimeError(f"assembled prolongation violates Jacobi at {bad[0][:3]}")
    if not is_transitive(algebra):
        raise RuntimeError("assembled prolongation is not transitive")
    return ProlongedAlgebra(tuple(components), flavor, algebra)


def _coordinates(component: ProlongationComponent, block):
    """Coordinates ({i: re, ~i: im}, den) in ``component`` of the element with g_-1 block ``block`` = ({s: {t: re, ~t: im}}, den), or None.

    The negative part is fundamental, so a derivation is fixed by its g_-1
    block (Tanaka 1970), and ``_solve_component`` returns each basis
    reduced on that block: map i is 1 at its pivot, the last nonzero
    (t, s) of its g_-1 block in row-major order, and 0 at the other maps'
    pivots.  So the coordinates are the entries of ``block`` at the
    pivots, and ``block`` is in the component iff they recombine to it.
    """
    cols, den = block
    coords = {}
    rest = [(s, 1, den, col) for s, col in cols.items()]  # block minus the recombination, column by column
    for s, col in cols.items():
        for u, turn, x in _entries(col):
            if (pivot := component.pivots.get((u, s))) is not None:
                i, ones = pivot
                coords[_key(i, turn)] = x
                rest += [_term(q, turn, -x, den * d, mcol) for q, (mcol, d) in enumerate(ones)]
    if _sum_forms(rest)[0]:
        return None
    forms, den = _lowest_terms({0: coords}, den)
    return forms.get(0, {}), den


def _assemble(m: GradedLieAlgebra, components) -> GradedLieAlgebra:
    """Structure-constant table of m plus all computed components, as an extension of m.

    [e_x, d] = -d(e_x) is read off the maps' stored columns as Gaussian
    numerators, which extend m's own.  For nonnegative d, e of degrees k, l
    the g_-1 block of [d, e], from [e_x, [d, e]] = [d, [e_x, e]] + [e, [d, e_x]]
    on the maps and the pairs assembled so far (by increasing degree sum),
    must lie in G^(k+l), and its coordinates are read at the pivots
    (``_coordinates``).  That they act on the rest of m as the induction
    says is the Jacobi identity on (e_x, d, e): the gate of ``full_prolongation``.
    """
    labels = list(m.labels)
    degrees = list(m.degrees)
    slots = dict(m._blocks)  # degree: its indices in the assembled algebra
    maps = {}  # index of each component basis vector: its map
    for comp in components:
        slots[comp.degree] = range(len(labels), len(labels) + comp.dim)
        for idx, dm in enumerate(comp.maps):
            maps[len(labels)] = dm
            labels.append(f"G{comp.degree}_{idx + 1}")
            degrees.append(comp.degree)
    loc = m._positions
    max_l = components[-1].degree
    n = m.dim
    brackets = {}  # (a, b): [e_a, e_b] for a or b a component basis vector, from the maps and the pairs assembled so far
    for g, dm in maps.items():
        for x in range(n):
            a = m.degrees[x]
            col, den = dm.blocks[a][1][loc[x]]
            if col:
                # [e_g, e_x] = g(e_x) = -[e_x, e_g]
                brackets[g, x] = _relabel(col, slots[a + dm.degree]), den
                brackets[x, g] = {t: -y for t, y in brackets[g, x][0].items()}, den

    # by increasing degree sum, so the induction only consults finished entries
    pairs = sorted(
        ((k, l) for k in range(max_l + 1) for l in range(k, max_l + 1)),
        key=lambda kl: (kl[0] + kl[1], kl),
    )
    ones = m.indices_of_degree(-1)
    for k, l in pairs:
        s = k + l
        target = components[s] if s <= max_l else ProlongationComponent(s, ())
        row = {t: r for r, t in enumerate(slots.get(s - 1, ()))}  # g_-1 block row of e_t in degree s - 1
        for ik in range(components[k].dim):
            gi = slots[k][ik]
            for il in range(ik + 1 if k == l else 0, components[l].dim):
                gj = slots[l][il]
                columns = []
                for p, x in enumerate(ones):
                    # column p of the g_-1 block of [d, e] is [[d, e], e_x] = -[d, [e_x, e]] - [e, [d, e_x]]
                    terms = []
                    for g, (vec, vden) in ((gi, brackets.get((x, gj), ({}, 1))), (gj, brackets.get((gi, x), ({}, 1)))):
                        for t, turn, y in _entries(vec):
                            image, den = brackets.get((g, t), ({}, 1))
                            terms.append(_term(0, turn, -y, vden * den, image))
                    forms, den = _sum_forms(terms)
                    col = forms.get(0, {})
                    # holds by construction when each map's degree is its component's: a map of
                    # degree l sends degree a to a + l, so every term lies in degree k + l - 1
                    if any(degrees[t] != s - 1 for t, _, _ in _entries(col)):
                        raise RuntimeError("bracket action landed outside its degree slot")
                    columns.append((p, _relabel(col, row), den))
                coords = _coordinates(target, _numerator_table(columns))
                if coords is None and not target.dim:
                    raise RuntimeError(f"bracket of degrees {k} and {l} acts nontrivially beyond the terminal component")
                if coords is None:
                    raise RuntimeError(f"bracket of G^{k} and G^{l} escapes G^{s}")
                if coords[0]:
                    brackets[gi, gj] = _relabel(coords[0], slots[s]), coords[1]
                    brackets[gj, gi] = {t: -y for t, y in brackets[gi, gj][0].items()}, coords[1]

    entries = [(key, *value) for key, value in brackets.items() if key[0] < key[1]]
    return m._extended(labels[n:], degrees[n:], entries, scalar_tag=m.scalar_tag)


def is_transitive(algebra: GradedLieAlgebra) -> bool:
    """No nonzero nonnegative-degree element annihilates the negative part."""
    neg = [i for i, d in enumerate(algebra.degrees) if d < 0]
    pos = [i for i, d in enumerate(algebra.degrees) if d >= 0]
    if not pos:
        return True
    return _acts_faithfully(algebra, pos, neg)
