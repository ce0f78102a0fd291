import json
import random

import pytest

from crprolong.exact import Matrix, QI, invert, rank
from crprolong.liealg import (
    GradedLieAlgebra,
    build_symbol_algebra,
    check_jacobi,
    first_bracket_mismatch,
    is_fundamental,
    realify,
)
from crprolong.prolong import (
    FULL_TANAKA,
    LEVI_TANAKA,
    DerivationMap,
    GuardExceeded,
    MissingLowerComponents,
    NotFundamental,
    derivation_residual,
    full_prolongation,
    grade0,
    is_transitive,
    ProlongationComponent,
    _assemble,
    prolong_component,
)
from oracles import full_block_component, replaced_bracket

J_STANDARD = Matrix([[0, -1], [1, 0]])


def heis():
    return realify(build_symbol_algebra(1).algebra)


def f23():
    return realify(build_symbol_algebra(3).algebra)


def test_grade0_heisenberg_dims():
    m = heis()
    # unconstrained: any endomorphism of the degree -1 plane extends, gl(2)
    assert grade0(m, j_constraint=False).dim == 4
    # J-commutant of gl(2) is two-dimensional
    assert grade0(m, j_constraint=True).dim == 2


def test_grade0_f23_dims_and_euler_membership():
    m = f23()
    comp = grade0(m, j_constraint=True)
    assert comp.dim == 2
    # the degree-scaling map is in the span: check the Leibniz residual of
    # each basis map and of the scaling map itself
    for dm in comp.maps:
        assert derivation_residual(m, dm) == []


def test_grade0_not_fundamental():
    bad = GradedLieAlgebra(["x", "y", "t", "s"], [-1, -1, -2, -2], {(0, 1): {2: 1}})
    with pytest.raises(NotFundamental):
        grade0(bad, j_constraint=False)


def test_prolong_component_heisenberg_tower():
    m = heis()
    comps = [grade0(m, True)]
    c1 = prolong_component(m, comps, 1)
    assert c1.dim == 2
    comps.append(c1)
    c2 = prolong_component(m, comps, 2)
    assert c2.dim == 1
    comps.append(c2)
    c3 = prolong_component(m, comps, 3)
    assert c3.dim == 0
    comps.append(c3)
    # termination: one past the first zero component is still zero
    assert prolong_component(m, comps, 4).dim == 0


def test_prolong_component_missing_lower():
    m = heis()
    with pytest.raises(MissingLowerComponents):
        prolong_component(m, [grade0(m, True)], 2)


def test_f23_first_component_vanishes():
    m = f23()
    comps = [grade0(m, True)]
    assert prolong_component(m, comps, 1).dim == 0


def test_full_prolongation_heisenberg():
    P = full_prolongation(heis(), LEVI_TANAKA)
    assert P.dim == 8
    assert P.dims_by_degree() == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}
    assert [c.dim for c in P.components] == [2, 2, 1, 0]
    assert is_transitive(P.algebra)
    assert check_jacobi(P.algebra) == []


def test_full_prolongation_f23():
    P = full_prolongation(f23(), LEVI_TANAKA)
    assert P.dim == 7
    assert P.dims_by_degree() == {-3: 2, -2: 1, -1: 2, 0: 2}


def test_derivation_residuals_exact_zero():
    for k in (1, 2, 5):
        m = realify(build_symbol_algebra(k).algebra)
        P = full_prolongation(m, LEVI_TANAKA)
        for comp in P.components:
            for dm in comp.maps:
                assert derivation_residual(m, dm, P.components) == []


def test_abelian_full_tanaka_hits_guard():
    # the full prolongation of an abelian degree -1 plane never terminates
    m = GradedLieAlgebra(["x", "y"], [-1, -1], {}, J=J_STANDARD)
    with pytest.raises(GuardExceeded):
        full_prolongation(m, FULL_TANAKA)


def test_heisenberg_full_tanaka_matches_contact_oracle():
    # unconstrained prolongation of the length-2 symbol is the formal
    # contact algebra: component l counts monomials of weighted degree
    # l + 2 in three variables of weights (1, 1, 2), and never terminates
    m = heis()
    comps = [grade0(m, j_constraint=False)]
    for l in (1, 2, 3):
        comps.append(prolong_component(m, comps, l))

    def contact_dim(l):
        target = l + 2
        return sum(
            1
            for a in range(target + 1)
            for b in range(target + 1 - a)
            if (target - a - b) % 2 == 0
        )

    assert [c.dim for c in comps] == [contact_dim(l) for l in range(4)] == [4, 6, 9, 12]
    with pytest.raises(GuardExceeded):
        full_prolongation(m, FULL_TANAKA)


def test_f23_full_tanaka_is_the_14_dimensional_simple_algebra():
    # the unconstrained prolongation of the growth-(2,3,5) symbol is the
    # classical 14-dimensional simple algebra graded (2,1,2 | 4 | 2,1,2)
    from crprolong.exact import kernel_basis, rank

    P = full_prolongation(f23(), FULL_TANAKA)
    assert P.dim == 14
    assert P.dims_by_degree() == {-3: 2, -2: 1, -1: 2, 0: 4, 1: 2, 2: 1, 3: 2}
    A = P.algebra
    n = A.dim
    ads = [
        Matrix([[A.bracket_basis(i, j).get(t, QI(0)) for j in range(n)] for t in range(n)])
        for i in range(n)
    ]
    killing = Matrix(
        [
            [sum((ads[i].mul(ads[j])).data[t][t].re for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    )
    assert rank(killing) == 14
    rows = []
    for x in range(n):
        for t in range(n):
            rows.append([A.bracket_basis(g, x).get(t, QI(0)) for g in range(n)])
    assert kernel_basis(Matrix(rows)) == []


def test_levi_tanaka_embeds_in_full_tanaka():
    from crprolong.exact import rank

    for k in (1, 3, 4):
        m = realify(build_symbol_algebra(k).algebra)
        lt = grade0(m, True)
        ft = grade0(m, False)
        degrees = sorted(set(m.degrees))
        cols = [dm.flatten(degrees) for dm in ft.maps] + [dm.flatten(degrees) for dm in lt.maps]
        assert rank(Matrix.from_columns(cols)) == ft.dim


def test_is_transitive_negative_control():
    P = full_prolongation(heis(), LEVI_TANAKA)
    A = P.algebra
    # adjoin a degree-0 element acting as zero on everything
    labels = A.labels + ("bogus",)
    degrees = A.degrees + (0,)
    table = {k: dict(v) for k, v in A.table.items()}
    bigger = GradedLieAlgebra(labels, degrees, table)
    assert not is_transitive(bigger)


def test_higher_components_vanish_for_longer_models():
    for k in (2, 4, 7):
        m = realify(build_symbol_algebra(k).algebra)
        P = full_prolongation(m, LEVI_TANAKA)
        assert P.termination_degree() == 1
        assert P.component_dim(0) in (1, 2)


def test_heisenberg_tower_killing_form_nondegenerate():
    # independent structural probe of the assembled brackets: the full
    # tower over the length-2 model is a simple 8-dimensional algebra,
    # so its Killing form has full rank and its center is trivial
    from crprolong.exact import kernel_basis, rank

    P = full_prolongation(heis(), LEVI_TANAKA)
    A = P.algebra
    n = A.dim
    ads = [
        Matrix([[A.bracket_basis(i, j).get(t, QI(0)) for j in range(n)] for t in range(n)])
        for i in range(n)
    ]
    killing = Matrix(
        [
            [sum((ads[i].mul(ads[j])).data[t][t].re for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    )
    assert rank(killing) == n
    rows = []
    for x in range(n):
        for t in range(n):
            rows.append([A.bracket_basis(g, x).get(t, QI(0)) for g in range(n)])
    assert kernel_basis(Matrix(rows)) == []


def test_prolonged_serialization():
    P = full_prolongation(heis(), LEVI_TANAKA)
    obj = P.to_json_dict()
    assert obj["meta"]["flavor"] == LEVI_TANAKA
    back = GradedLieAlgebra.from_json_dict(json.loads(json.dumps(obj)))
    assert back == P.algebra


def test_flavor_validation():
    with pytest.raises(ValueError):
        full_prolongation(heis(), "bogus")
    from crprolong.liealg import MissingJ

    no_j = GradedLieAlgebra(["x", "y", "t"], [-1, -1, -2], {(0, 1): {2: 1}})
    with pytest.raises(MissingJ):
        full_prolongation(no_j, LEVI_TANAKA)


# -- every component against the full-block Leibniz oracle in tests/oracles.py --


def _pairs(x):
    return (x.re, x.im)


def _assert_components_match_oracle(m, top, j_constraint):
    """grade0 and prolong_component through degree ``top`` return exactly the oracle's basis maps."""
    table = {ij: {k: _pairs(c) for k, c in terms.items()} for ij, terms in m.table.items()}
    J = [[_pairs(x) for x in row] for row in m.J.data] if j_constraint else None
    comps = [grade0(m, j_constraint)]
    for l in range(1, top + 1):
        comps.append(prolong_component(m, comps, l))
    maps = [
        [{a: [[_pairs(x) for x in row] for row in block.data] for a, block in dm.blocks.items()} for dm in comp.maps]
        for comp in comps
    ]
    for l in range(top + 1):
        assert maps[l] == full_block_component(m.degrees, table, l, maps[:l], J if l == 0 else None), l


@pytest.mark.parametrize("j_constraint", [False, True])
@pytest.mark.parametrize("k", range(1, 9))
def test_grade0_matches_full_block_oracle(k, j_constraint):
    _assert_components_match_oracle(realify(build_symbol_algebra(k).algebra), 0, j_constraint)


@pytest.mark.parametrize(
    "k, top, j_constraint",
    [(1, 4, False), (2, 3, False), (3, 1, True)],
    ids=["heisenberg-full-tanaka", "k2-full-tanaka", "f23-levi-tanaka"],
)
def test_components_match_full_block_oracle(k, top, j_constraint):
    _assert_components_match_oracle(realify(build_symbol_algebra(k).algebra), top, j_constraint)


@pytest.mark.parametrize("j_constraint", [False, True])
def test_grade0_matches_oracle_without_jacobi(j_constraint):
    """The Leibniz rows span every pair, so the kernel is right even where Jacobi fails.

    k = 12 is the free algebra of length 5; doubling [e2_1, e3_1] keeps it
    fundamental but breaks Jacobi, and the pair (e2_1, e3_1) then cuts
    gl(2) down to 2 dimensions (1 with J).  A solver that checked Leibniz
    only on pairs with a degree -1 element would keep 4 (2 with J).
    """
    free = realify(build_symbol_algebra(12).algebra)
    bad = replaced_bracket(free, 2, 3, {12: 2 * free.table[(2, 3)][12]})
    assert check_jacobi(bad) and is_fundamental(bad)
    assert grade0(bad, j_constraint).dim == (1 if j_constraint else 2)
    _assert_components_match_oracle(bad, 0, j_constraint)


# -- negative controls: _assemble refuses components that are not closed --


def _f23_full_tanaka_components():
    m = f23()
    comps = [grade0(m, j_constraint=False)]
    while comps[-1].dim:
        comps.append(prolong_component(m, comps, len(comps)))
    assert [c.dim for c in comps] == [4, 2, 1, 2, 0]
    return m, comps


def test_assemble_rejects_component_not_closed_under_grade0():
    m, comps = _f23_full_tanaka_components()
    cut = [comps[0], ProlongationComponent(1, comps[1].maps[:1]), ProlongationComponent(2, ())]
    with pytest.raises(RuntimeError, match="bracket of G\\^0 and G\\^1 escapes G\\^1"):
        _assemble(m, cut)


def test_assemble_rejects_bracket_beyond_terminal_component():
    m, comps = _f23_full_tanaka_components()
    with pytest.raises(RuntimeError, match="bracket of degrees 1 and 2 acts nontrivially beyond the terminal component"):
        _assemble(m, comps[:3])


def test_assemble_checks_brackets_on_every_degree():
    """A corrupted degree -3 block leaves every g_-1 block, hence every read coordinate, as it was."""
    m, comps = _f23_full_tanaka_components()
    first = comps[0].maps[0]
    doubled = Matrix([[2 * x for x in row] for row in first.blocks[-3].data])
    corrupt = DerivationMap(0, {**first.blocks, -3: doubled})
    g0 = ProlongationComponent(0, (corrupt,) + comps[0].maps[1:])
    with pytest.raises(RuntimeError, match="bracket of G\\^0 and G\\^0 escapes G\\^0"):
        _assemble(m, [g0] + comps[1:])


# -- property oracle: the prolongation does not depend on the chosen basis --


def _random_graded_change(m, rng):
    """An invertible rational matrix that maps each degree block of m to itself."""
    p = Matrix.zeros(m.dim, m.dim)
    for d in set(m.degrees):
        idx = m.indices_of_degree(d)
        while True:
            block = [[QI(rng.randint(-3, 3), 0) for _ in idx] for _ in idx]
            if rank(Matrix(block)) == len(idx):
                break
        for r, row in zip(idx, block):
            for c, x in zip(idx, row):
                p.data[r][c] = x
    return p


def _transported(m, p):
    """m in the basis given by the columns of p, so p maps it back onto m; J becomes P^-1 J P on g_-1."""
    pinv = invert(p)
    cols = [{r: x for r, x in enumerate(p.column(i)) if x} for i in range(m.dim)]
    table = {}
    for i in range(m.dim):
        for j in range(i + 1, m.dim):
            w = m.bracket_vec(cols[i], cols[j])
            entry = {k: c for k, c in enumerate(pinv.matvec([w.get(t, QI(0)) for t in range(m.dim)])) if c}
            if entry:
                table[(i, j)] = entry
    ones = m.indices_of_degree(-1)
    p1 = Matrix([[p.data[r][c] for c in ones] for r in ones])
    j = invert(p1).mul(m.J).mul(p1)
    return GradedLieAlgebra(m.labels, m.degrees, table, J=j, scalar_tag=m.scalar_tag)


@pytest.mark.parametrize(
    "k, flavor", [(k, LEVI_TANAKA) for k in range(1, 9)] + [(3, FULL_TANAKA)]
)
def test_prolongation_is_invariant_under_graded_change_of_basis(k, flavor):
    m = realify(build_symbol_algebra(k).algebra)
    rng = random.Random(1000 + k)
    p = _random_graded_change(m, rng)
    moved = _transported(m, p)
    assert first_bracket_mismatch(moved, m, p) is None
    assert full_prolongation(moved, flavor).dims_by_degree() == full_prolongation(m, flavor).dims_by_degree()
