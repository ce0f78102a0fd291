"""Tanaka and Levi-Tanaka prolongations of fundamental graded algebras.

Every nonnegative component comes from one solver, ``_solve_component``:
the component is the exact kernel of a stacked linear system whose
unknown is a full block map (m_a -> V_{a+l} for every source degree a)
and whose rows are the Leibniz identity on all basis pairs of the
negative part, plus commutation with the complex structure J on the
degree -1 block for the grade-0 component of the Levi-Tanaka flavor.
Brackets between nonnegative components are assembled afterwards by the
usual induction [d, e](x) = [[d, x], e] + [d, [e, x]] and re-expressed in
the computed component bases, so the result is an honest
structure-constant table that gets the same Jacobi and transitivity
scrutiny as everything else.  ``derivation_residual`` evaluates the
Leibniz identity on a given map without solving; tests use it as the
reference check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import Inconsistent, Matrix, QI_ZERO, kernel_basis, solve_linear
from .liealg import GradedLieAlgebra, MissingJ, _acts_faithfully, check_jacobi, is_fundamental, is_pseudocomplex

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
    "derivation_residual",
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
    """A degree-l graded map out of m, one matrix block per source degree.

    blocks[a] has vdim(a + l) rows and dim(m_a) columns; for a + l <= -1
    the target coordinates are the m block, otherwise they are the basis
    of the already-computed component of that degree.
    """

    degree: int
    blocks: dict

    def apply(self, source_degree: int, local_index: int):
        return self.blocks[source_degree].column(local_index)

    def flatten(self, source_degrees):
        out = []
        for a in source_degrees:
            block = self.blocks[a]
            for col in range(block.cols):
                out.extend(block.column(col))
        return out


@dataclass(frozen=True)
class ProlongationComponent:
    degree: int
    maps: tuple

    @property
    def dim(self) -> int:
        return len(self.maps)


class _Layout:
    """Unknown-vector layout for one component solve."""

    def __init__(self, m: GradedLieAlgebra, l: int, vdim):
        self.m = m
        self.l = l
        self.source_degrees = sorted(set(m.degrees))
        self.block_shape = {}
        self.offset = {}
        off = 0
        for a in self.source_degrees:
            rows = vdim(a + l)
            cols = len(m.indices_of_degree(a))
            self.block_shape[a] = (rows, cols)
            self.offset[a] = off
            off += rows * cols
        self.total = off

    def var(self, a: int, target_local: int, source_local: int) -> int:
        rows, cols = self.block_shape[a]
        return self.offset[a] + target_local * cols + source_local

    def to_map(self, vec) -> DerivationMap:
        blocks = {}
        for a in self.source_degrees:
            rows, cols = self.block_shape[a]
            base = self.offset[a]
            blocks[a] = Matrix(
                [[vec[base + t * cols + s] for s in range(cols)] for t in range(rows)]
            )
        return DerivationMap(self.l, blocks)


def _local_index(m: GradedLieAlgebra):
    loc = {}
    for d in set(m.degrees):
        for pos, i in enumerate(m.indices_of_degree(d)):
            loc[i] = pos
    return loc


def _solve_component(m: GradedLieAlgebra, components, l: int, j_constraint: bool) -> ProlongationComponent:
    """Degree-l component: the kernel of the stacked Leibniz rows.

    The target space V_j is m_j for j <= -1 and the basis of
    ``components[j]`` for 0 <= j < l.  With ``j_constraint`` (grade 0
    only) the rows also ask the degree -1 block to commute with J.
    """

    def vdim(jdeg):
        if jdeg <= -1:
            return len(m.indices_of_degree(jdeg))
        if jdeg < l:
            return components[jdeg].dim
        return 0

    loc = _local_index(m)

    def action(sdeg, s, x, tdeg):
        """Coordinates of [basis element s of V_sdeg, e_x] in V_tdeg."""
        if sdeg >= 0:
            return components[sdeg].maps[s].apply(m.degrees[x], loc[x])
        w = m.bracket_basis(m.indices_of_degree(sdeg)[s], x)
        return [w.get(t, QI_ZERO) for t in m.indices_of_degree(tdeg)]

    layout = _Layout(m, l, vdim)
    depth = -min(m.degrees)
    rows = []
    n = m.dim
    for i in range(n):
        a = m.degrees[i]
        for j in range(i + 1, n):
            b = m.degrees[j]
            c = a + b
            tdeg = c + l
            if tdeg < -depth:
                continue
            tdim = vdim(tdeg)
            if tdim == 0:
                continue
            eq = [[QI_ZERO] * layout.total for _ in range(tdim)]

            # + d([y, z])
            if c >= -depth:
                for k, gamma in m.bracket_basis(i, j).items():
                    kl = loc[k]
                    for t in range(tdim):
                        v = layout.var(c, t, kl)
                        eq[t][v] = eq[t][v] + gamma

            # - [d(y), z] + [d(z), y]
            for source, other, negate in ((i, j, True), (j, i, False)):
                sdeg = m.degrees[source] + l
                for s in range(vdim(sdeg)):
                    coords = action(sdeg, s, other, tdeg)
                    v = layout.var(m.degrees[source], s, loc[source])
                    for t in range(tdim):
                        if coords[t]:
                            eq[t][v] = eq[t][v] - coords[t] if negate else eq[t][v] + coords[t]

            rows.extend(eq)
    if j_constraint:
        nb = vdim(-1)
        jm = m.J
        for p in range(nb):
            for q in range(nb):
                eq = [QI_ZERO] * layout.total
                for s in range(nb):
                    if jm.data[s][q]:
                        v = layout.var(-1, p, s)
                        eq[v] = eq[v] + jm.data[s][q]
                    if jm.data[p][s]:
                        v = layout.var(-1, s, q)
                        eq[v] = eq[v] - jm.data[p][s]
                if any(eq):
                    rows.append(eq)
    kern = kernel_basis(Matrix(rows)) if rows else kernel_basis(Matrix.zeros(1, layout.total))
    return ProlongationComponent(l, tuple(layout.to_map(v) for v in kern))


def grade0(m: GradedLieAlgebra, j_constraint: bool) -> ProlongationComponent:
    """All grade-preserving derivations of m, optionally J-commuting.

    The unknown is the full block-diagonal endomorphism; the kernel of the
    stacked Leibniz (+ J-commutation) system is exactly the component.
    """
    if not is_fundamental(m):
        raise NotFundamental("grade-0 prolongation needs a fundamental algebra")
    if j_constraint and m.J is None:
        raise MissingJ("J-constrained prolongation needs a complex structure")
    return _solve_component(m, (), 0, j_constraint)


def prolong_component(m: GradedLieAlgebra, components, l: int) -> ProlongationComponent:
    """Degree-l component given the components of degrees 0..l-1."""
    if l < 1:
        raise ValueError("use grade0 for degree 0")
    if len(components) < l:
        raise MissingLowerComponents(f"need components 0..{l - 1} before degree {l}")
    return _solve_component(m, components, l, j_constraint=False)


def derivation_residual(m: GradedLieAlgebra, dmap: DerivationMap, components=()):
    """Max-degree check data: list of nonzero Leibniz residuals (empty = derivation)."""
    depth = -min(m.degrees)
    l = dmap.degree

    def vdim(jdeg):
        if jdeg <= -1:
            return len(m.indices_of_degree(jdeg))
        if jdeg < len(components):
            return components[jdeg].dim
        return 0

    bad = []
    loc = _local_index(m)
    for i in range(m.dim):
        a = m.degrees[i]
        for j in range(i + 1, m.dim):
            b = m.degrees[j]
            tdeg = a + b + l
            if tdeg < -depth or vdim(tdeg) == 0:
                continue
            acc = [QI_ZERO] * vdim(tdeg)
            if a + b >= -depth:
                for k, gamma in m.bracket_basis(i, j).items():
                    col = dmap.apply(a + b, loc[k])
                    acc = [x + gamma * y for x, y in zip(acc, col)]
            dcol = dmap.apply(a, loc[i])
            for s, cs in enumerate(dcol):
                if not cs:
                    continue
                if a + l <= -1:
                    sglob = m.indices_of_degree(a + l)[s]
                    w = m.bracket_basis(sglob, j)
                    tblock = m.indices_of_degree(tdeg)
                    acc = [x - cs * w.get(t, QI_ZERO) for x, t in zip(acc, tblock)]
                else:
                    coords = components[a + l].maps[s].apply(b, loc[j])
                    acc = [x - cs * y for x, y in zip(acc, coords)]
            dcol = dmap.apply(b, loc[j])
            for s, cs in enumerate(dcol):
                if not cs:
                    continue
                if b + l <= -1:
                    sglob = m.indices_of_degree(b + l)[s]
                    w = m.bracket_basis(i, sglob)
                    tblock = m.indices_of_degree(tdeg)
                    acc = [x - cs * w.get(t, QI_ZERO) for x, t in zip(acc, tblock)]
                else:
                    coords = components[b + l].maps[s].apply(a, loc[i])
                    acc = [x + cs * y for x, y in zip(acc, coords)]
            if any(acc):
                bad.append((i, j, acc))
    return bad


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


def full_prolongation(m: GradedLieAlgebra, flavor: str = LEVI_TANAKA, l_max_guard=None) -> ProlongedAlgebra:
    """Iterate components until one vanishes, then assemble all brackets.

    Raises :class:`GuardExceeded` if no zero component appears by the
    guard (default: depth of m plus 3), which signals either a bug or an
    input whose prolongation really is infinite.
    """
    if flavor not in (LEVI_TANAKA, FULL_TANAKA):
        raise ValueError(f"unknown flavor {flavor!r}")
    # grade0 raises NotFundamental; is_pseudocomplex raises MissingJ
    if flavor == LEVI_TANAKA and not is_pseudocomplex(m):
        raise ValueError("Levi-Tanaka prolongation needs a pseudocomplex algebra")
    depth = -min(m.degrees)
    guard = l_max_guard if l_max_guard is not None else depth + 3
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


def _assemble(m: GradedLieAlgebra, components) -> GradedLieAlgebra:
    """Structure-constant table of m plus all computed components."""
    n_neg = m.dim
    labels = list(m.labels)
    degrees = list(m.degrees)
    comp_base = {}
    for comp in components:
        comp_base[comp.degree] = len(labels)
        for idx in range(comp.dim):
            labels.append(f"G{comp.degree}_{idx + 1}")
            degrees.append(comp.degree)
    total = len(labels)
    depth = -min(m.degrees)
    loc = _local_index(m)
    max_l = components[-1].degree

    def vblock(jdeg):
        """Global indices of the degree-jdeg slot of the assembled algebra."""
        if jdeg <= -1:
            return m.indices_of_degree(jdeg)
        if jdeg > max_l:
            # beyond the terminal zero component: no slot, actions there
            # must come out zero (enforced by the landing check below)
            return []
        base = comp_base[jdeg]
        return list(range(base, base + components[jdeg].dim))

    table = {}

    def set_entry(i, j, vec):
        entry = {k: c for k, c in enumerate(vec) if c}
        if not entry:
            return
        if i < j:
            table[(i, j)] = entry
        elif j < i:
            table[(j, i)] = {k: -c for k, c in entry.items()}

    def bracket_global(p, q):
        """[e_p, e_q] from the entries assembled so far."""
        out = [QI_ZERO] * total
        if p == q:
            return out
        if p < q:
            for k, c in table.get((p, q), {}).items():
                out[k] = c
        else:
            for k, c in table.get((q, p), {}).items():
                out[k] = -c
        return out

    for (i, j), terms in m.table.items():
        table[(i, j)] = dict(terms)

    # [e_x, d] = -d(e_x) for every negative x and component basis element d
    for comp in components:
        base = comp_base[comp.degree]
        for idx, dm in enumerate(comp.maps):
            g = base + idx
            for x in range(n_neg):
                a = m.degrees[x]
                tdeg = a + comp.degree
                if tdeg < -depth:
                    continue
                coords = dm.apply(a, loc[x])
                vec = [QI_ZERO] * total
                for pos, t in enumerate(vblock(tdeg)):
                    vec[t] = coords[pos]
                set_entry(x, g, [-v for v in vec])

    # nonnegative x nonnegative, by increasing degree sum so the induction
    # [d, e](x) = [[d, x], e] + [d, [e, x]] only consults finished entries
    pairs = sorted(
        ((k, l) for k in range(max_l + 1) for l in range(k, max_l + 1)),
        key=lambda kl: (kl[0] + kl[1], kl),
    )
    source_degrees = sorted(set(m.degrees))
    for k, l in pairs:
        ck, cl = components[k], components[l]
        s = k + l
        sdim = components[s].dim if s <= max_l else 0
        basis_flat = None
        if sdim:
            basis_flat = Matrix.from_columns([dm.flatten(source_degrees) for dm in components[s].maps])
        for ik in range(ck.dim):
            gi = comp_base[k] + ik
            jstart = ik + 1 if k == l else 0
            for il in range(jstart, cl.dim):
                gj = comp_base[l] + il
                flat = []
                nonzero = False
                for a in source_degrees:
                    tdeg = a + s
                    tblock = vblock(tdeg) if tdeg >= -depth else []
                    for x in m.indices_of_degree(a):
                        dx = bracket_global(gi, x)
                        term = [QI_ZERO] * total
                        for t, c in enumerate(dx):
                            if c:
                                bt = bracket_global(t, gj)
                                term = [u + c * v for u, v in zip(term, bt)]
                        ex = bracket_global(gj, x)
                        for t, c in enumerate(ex):
                            if c:
                                bt = bracket_global(gi, t)
                                term = [u + c * v for u, v in zip(term, bt)]
                        for t, v in enumerate(term):
                            if v and t not in tblock:
                                raise RuntimeError("bracket action landed outside its degree slot")
                        coords = [term[t] for t in tblock]
                        if any(coords):
                            nonzero = True
                        flat.extend(coords)
                if sdim == 0:
                    if nonzero:
                        raise RuntimeError(
                            f"bracket of degrees {k} and {l} acts nontrivially beyond the terminal component"
                        )
                    continue
                try:
                    coords = solve_linear(basis_flat, flat)
                except Inconsistent as exc:
                    raise RuntimeError(f"bracket of G^{k} and G^{l} escapes G^{s}") from exc
                vec = [QI_ZERO] * total
                for pos, t in enumerate(vblock(s)):
                    vec[t] = coords[pos]
                set_entry(gi, gj, vec)

    return GradedLieAlgebra(labels, degrees, table, conjugation=None, J=None, scalar_tag=m.scalar_tag)


def is_transitive(algebra: GradedLieAlgebra) -> bool:
    """No nonzero nonnegative-degree element annihilates the negative part."""
    neg = [i for i, d in enumerate(algebra.degrees) if d < 0]
    pos = [i for i, d in enumerate(algebra.degrees) if d >= 0]
    if not pos:
        return True
    return _acts_faithfully(algebra, pos, neg)
