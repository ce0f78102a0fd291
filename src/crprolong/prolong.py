"""Tanaka and Levi-Tanaka prolongations of fundamental graded algebras.

Every nonnegative component comes from one solver, ``_solve_component``.
The negative part m is fundamental, so a degree-l derivation is fixed by
its restriction to g_-1 (Tanaka 1970): the unknown is that block alone,
2·dim V_(l-1) entries for a CR symbol.  It is extended to every layer
along one fixed expression of each basis element as a bracket with
g_-1, and the component is the exact kernel of the Leibniz identity
evaluated on all basis pairs of m, plus commutation with the complex
structure J on the degree -1 block for the grade-0 component of the
Levi-Tanaka flavor.  The solve is fraction-free: integer linear forms
over one denominator per image, primitive integer rows deduplicated up
to scale, and ``exact.integer_rref``.  The reduced kernel basis is the
one a solve for the full block maps m_a -> V_(a+l) would return; it is
built once in column form, {unknown: {vector: int}}, so one sparse
product per coordinate form gives that coordinate of every basis map.
Brackets between nonnegative components are assembled afterwards by the
usual induction [d, e](x) = [[d, x], e] + [d, [e, x]]; the coordinates of
[d, e] are read off its g_-1 block at the basis pivots (``_coordinates``)
and checked against its action on every basis vector of m, so the result
is an honest structure-constant table that gets the same Jacobi and
transitivity scrutiny as everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .exact import QI_ZERO, Matrix, _apply_kernel, _axpy, _gaussian_columns, _integer_kernel, _primitive, _qi, _sum_forms
from .liealg import GradedLieAlgebra, MissingJ, _acts_faithfully, _generating_expressions, check_jacobi, is_pseudocomplex

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


@dataclass(frozen=True)
class DerivationMap:
    """A degree-l graded map out of m, one block per source degree, kept in integers.

    blocks[a] = (dim V_(a+l), columns): column s, the image of basis
    vector s of m_a, is ``({t: int}, den)``, its nonzero coordinates as
    numerators over one positive denominator, t increasing.  V_(a+l) is
    the m block for a + l <= -1, else the already-computed component of
    that degree.  ``column`` is the one way to ``QI`` entries.
    """

    degree: int
    blocks: dict

    def column(self, a: int, s: int) -> dict:
        """The image of basis vector s of m_a as {t: QI}, zeros dropped, t increasing."""
        nums, den = self.blocks[a][1][s]
        return {t: _qi(n, 0, den) for t, n in nums.items()}

    def flatten(self, source_degrees):
        out = []
        for a in source_degrees:
            rows, columns = self.blocks[a]
            for s in range(len(columns)):
                col = self.column(a, s)
                out.extend(col.get(t, QI_ZERO) for t in range(rows))
        return out


@dataclass(frozen=True)
class ProlongationComponent:
    degree: int
    maps: tuple

    @property
    def dim(self) -> int:
        return len(self.maps)


def _local_index(m: GradedLieAlgebra):
    loc = {}
    for d in set(m.degrees):
        for pos, i in enumerate(m.indices_of_degree(d)):
            loc[i] = pos
    return loc


def _distinct_rows(forms):
    """Each nonzero integer form made primitive (gcd 1, first entry positive), one per class up to scale."""
    seen = {}
    for form in forms:
        seen.setdefault(tuple(sorted(_primitive(form, min(form)).items())), None)
    return [dict(row) for row in seen]


def _solve_component(m: GradedLieAlgebra, components, l: int, j_constraint: bool) -> ProlongationComponent:
    """Degree-l component: solve on the g_-1 block, extend, check Leibniz on all pairs.

    V_j is m_j for j <= -1 and ``components[j]`` for 0 <= j < l.  The
    unknown is the g_-1 block: entry (t, s), coordinate t of D(e_s) in
    V_(l-1), is unknown t·dim(g_-1) + s.  D is extended along the
    expressions e_x = sum of c·[e_g, e_y] as D(e_x) = sum of
    c·([D e_g, e_y] + [e_g, D e_y]), each coordinate a sparse linear form
    {unknown: int numerator}, one ``int`` denominator per image.  Every
    input is read as integers: ``m._numerators``, the Gaussian columns of
    J, the coefficients of the expressions and the stored columns of the
    lower components; a complex structure constant, or a complex J entry
    under ``j_constraint``, is refused up front with ``ValueError``.  Each
    nonzero coordinate of the Leibniz residual on a basis pair i < j is a
    row, so the kernel is the set of g_-1 blocks of derivations without
    appeal to Jacobi; ``j_constraint`` (grade 0) adds commutation with J.
    The rows are made primitive, deduplicated up to scale and solved by
    ``integer_rref``; ``_integer_kernel`` returns the kernel in column
    form, checked by substitution in integers, and one ``_apply_kernel``
    per coordinate form of each image gives that coordinate of every
    basis map, stored as integer columns.  The unknowns keep the order of
    the trailing g_-1 block of a solve for all blocks m_a -> V_(a+l).  No
    derivation has a zero g_-1 block, so every pivot of that solve's
    reduced kernel basis (the last nonzero entry of each vector) lies in
    this block, and that basis is the extension of the one found here.
    """
    gens = _generating_expressions(m)
    if gens is None:
        raise NotFundamental("prolongation needs a fundamental algebra")
    if j_constraint and m.J is None:
        raise MissingJ("J-constrained prolongation needs a complex structure")
    nums, mden = m._numerators
    jcols, jden = _gaussian_columns(m.J) if j_constraint else ({}, 1)
    for terms, den in [(terms, mden) for terms in nums.values()] + [(col, jden) for col in jcols.values()]:
        for re, im in terms.values():
            if im:
                raise ValueError(f"the prolongation solve needs real coefficients, got {_qi(re, im, den)}")
    blocks = {d: m.indices_of_degree(d) for d in sorted(set(m.degrees))}
    dims = {d: len(idx) for d, idx in blocks.items()} | {d: c.dim for d, c in enumerate(components[:l])}
    loc = _local_index(m)

    def bracket(image, sdeg, y, sign):
        """Terms of sign·[D e, e_y] for ``image`` = ({s: form}, den), the coordinates of D e in V_sdeg."""
        forms, den = image
        terms = []
        for s, form in forms.items():
            if sdeg >= 0:
                coeffs, aden = components[sdeg].maps[s].blocks[m.degrees[y]][1][loc[y]]
                terms.extend((t, sign * a, aden * den, form) for t, a in coeffs.items())
            else:
                # the table is keyed i < j: [e_x, e_y] = -[e_y, e_x]
                x = blocks[sdeg][s]
                f = sign if x < y else -sign
                terms.extend((loc[k], f * a, mden * den, form) for k, (a, _) in nums.get((min(x, y), max(x, y)), {}).items())
        return terms

    nb = len(blocks[-1])
    width = dims.get(l - 1, 0) * nb
    image = {g: ({t: {t * nb + s: 1} for t in range(dims.get(l - 1, 0))}, 1) for s, g in enumerate(blocks[-1])}
    parts = {}
    for x, (expression, cden) in gens.items():
        # parts[g, y] = -[D e_g, e_y] + [D e_y, e_g], shared within a layer; D(e_x) = -sum of c·parts[g, y]
        terms = []
        for g, y, (c, _) in expression:
            if (g, y) not in parts:
                parts[g, y] = _sum_forms(bracket(image[g], l - 1, y, -1) + bracket(image[y], m.degrees[y] + l, g, 1))
            forms, pden = parts[g, y]
            terms.extend((t, -c, cden * pden, form) for t, form in forms.items())
        image[x] = _sum_forms(terms)

    rows = []
    for i, j in combinations(range(m.dim), 2):
        if not dims.get(m.degrees[i] + m.degrees[j] + l):
            continue
        # minus the residual D([e_i, e_j]) - [D e_i, e_j] + [D e_j, e_i]
        terms = [
            (t, -gamma, mden * image[k][1], form)
            for k, (gamma, _) in nums.get((i, j), {}).items()
            for t, form in image[k][0].items()
        ]
        terms += bracket(image[i], m.degrees[i] + l, j, 1)
        terms += bracket(image[j], m.degrees[j] + l, i, -1)
        rows.extend(_sum_forms(terms)[0].values())
    if j_constraint:
        jm = {(p, q): re for q, col in jcols.items() for p, (re, _) in col.items()}
        for p, q in product(range(nb), repeat=2):
            # (D J - J D)[p][q] on the g_-1 block, times the denominator of J
            form = {}
            for s in range(nb):
                for v, c in ((p * nb + s, jm.get((s, q), 0)), (s * nb + q, -jm.get((p, s), 0))):
                    form[v] = form.get(v, 0) + c
            rows.append({v: c for v, c in form.items() if c})
    rows = _distinct_rows(form for form in rows if form)
    columns, vdens = _integer_kernel(rows, width)
    maps = [{a: (dims.get(a + l, 0), []) for a in blocks} for _ in vdens]
    for y in range(m.dim):  # by increasing index, so each block's columns come in local order
        forms, den = image[y]
        images = [{} for _ in vdens]
        for t, form in sorted(forms.items()):
            # coordinate t of D(e_y) for every kernel vector v at once
            for v, n in _apply_kernel(form, columns).items():
                if n:
                    images[v][t] = n
        for out, col, vden in zip(maps, images, vdens):
            out[m.degrees[y]][1].append((col, vden * den))
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


@dataclass
class ProlongedAlgebra:
    """A prolongation together with its fully assembled bracket table."""

    negative: GradedLieAlgebra
    components: tuple
    flavor: str
    algebra: GradedLieAlgebra

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def component_dim(self, l: int) -> int:
        for c in self.components:
            if c.degree == l:
                return c.dim
        return 0

    def dims_by_degree(self) -> dict:
        out = {}
        for d in self.algebra.degrees:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

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
    return ProlongedAlgebra(m, tuple(components), flavor, algebra)


def _coordinates(component: ProlongationComponent, block: Matrix):
    """Coordinates in ``component`` of the element with g_-1 block ``block``, or None.

    The negative part is fundamental, so a derivation is fixed by its g_-1
    block (Tanaka 1970), and ``_solve_component`` returns each basis
    reduced on that block: map i is 1 at its pivot, the last nonzero
    (t, s) of its g_-1 block in row-major order, and 0 at the other maps'
    pivots.  So the coordinates are the entries of ``block`` at the
    pivots, and ``block`` is in the component iff they recombine to it.
    """
    rest = [block.sparse_column(s) for s in range(block.cols)]
    ones = [[dm.column(-1, s) for s in range(block.cols)] for dm in component.maps]
    coords = []
    for cols in ones:
        t, s = max((t, s) for s, col in enumerate(cols) for t in col)
        coords.append(rest[s].get(t, QI_ZERO))
    for c, cols in zip(coords, ones):
        if c:
            for col, other in zip(rest, cols):
                _axpy(col, c, other)
    return None if any(rest) else coords


def _assemble(m: GradedLieAlgebra, components) -> GradedLieAlgebra:
    """Structure-constant table of m plus all computed components.

    [e_x, d] = -d(e_x) is read off the maps.  For nonnegative d, e the
    action [[d, e], e_x] = [[d, e_x], e] + [d, [e, e_x]] is built from the
    entries assembled so far, pairs taken by increasing degree sum; its
    coordinates are read at the g_-1 pivots (``_coordinates``) and must
    reproduce the action on every basis vector x of m.
    """
    labels = list(m.labels)
    degrees = list(m.degrees)
    comp_base = {}
    for comp in components:
        comp_base[comp.degree] = len(labels)
        for idx in range(comp.dim):
            labels.append(f"G{comp.degree}_{idx + 1}")
            degrees.append(comp.degree)
    slots = {}
    for g, d in enumerate(degrees):
        slots.setdefault(d, []).append(g)
    loc = _local_index(m)
    max_l = components[-1].degree
    table = {ij: dict(terms) for ij, terms in m.table.items()}

    def bracket(p, q):
        """[e_p, e_q] from the entries assembled so far, as {index: coefficient}."""
        if p < q:
            return table.get((p, q), {})
        return {k: -c for k, c in table.get((q, p), {}).items()}

    def combination(coords, base, x):
        """Sum of c_i·[e_(base+i), e_x]."""
        out = {}
        for i, c in enumerate(coords):
            if c:
                _axpy(out, -c, bracket(base + i, x))
        return out

    for comp in components:
        for idx, dm in enumerate(comp.maps):
            g = comp_base[comp.degree] + idx
            for x in range(m.dim):
                a = m.degrees[x]
                entry = {slots[a + comp.degree][t]: -c for t, c in dm.column(a, loc[x]).items()}
                if entry:
                    table[(x, g)] = entry

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
            gi = comp_base[k] + ik
            for il in range(ik + 1 if k == l else 0, components[l].dim):
                gj = comp_base[l] + il
                action = {}
                for x in range(m.dim):
                    act = {}
                    for t, c in bracket(gi, x).items():
                        _axpy(act, -c, bracket(t, gj))
                    for t, c in bracket(gj, x).items():
                        _axpy(act, -c, bracket(gi, t))
                    if any(degrees[t] != m.degrees[x] + s for t in act):
                        raise RuntimeError("bracket action landed outside its degree slot")
                    action[x] = act
                if not target.dim:
                    if any(action.values()):
                        raise RuntimeError(
                            f"bracket of degrees {k} and {l} acts nontrivially beyond the terminal component"
                        )
                    continue
                block = Matrix.sparse(len(row), [{row[t]: c for t, c in action[x].items()} for x in ones])
                coords = _coordinates(target, block)
                if coords is None or any(combination(coords, comp_base[s], x) != action[x] for x in range(m.dim)):
                    raise RuntimeError(f"bracket of G^{k} and G^{l} escapes G^{s}")
                entry = {comp_base[s] + i: c for i, c in enumerate(coords) if c}
                if entry:
                    table[(gi, gj)] = entry

    return GradedLieAlgebra(labels, degrees, table, conjugation=None, J=None, scalar_tag=m.scalar_tag)


def is_transitive(algebra: GradedLieAlgebra) -> bool:
    """No nonzero nonnegative-degree element annihilates the negative part."""
    neg = [i for i, d in enumerate(algebra.degrees) if d < 0]
    pos = [i for i, d in enumerate(algebra.degrees) if d >= 0]
    if not pos:
        return True
    return _acts_faithfully(algebra, pos, neg)
