import ast
import gc
import json
import random
from pathlib import Path

import pytest

from crprolong import exact, prolong
from crprolong.exact import Matrix, QI, integer_rref, rank
from crprolong.frames import builtin_catalog, symbol_from_frame
from crprolong.liealg import (
    GradedLieAlgebra,
    _generating_expressions,
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
    full_prolongation,
    grade0,
    is_transitive,
    ProlongationComponent,
    _assemble,
    prolong_component,
)
from coordinates import block_coordinates, map_column
from oracles import dense_inverse, full_block_component, replaced_bracket
from quotients import random_quotient, rotation_stable_quotient, unstable_quotient

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
    # the degree-scaling map is in the span: the element whose g_-1 block
    # is -I scales every layer by its degree
    coords = block_coordinates(comp, -Matrix.identity(2))
    assert coords is not None
    for a in (-1, -2, -3):
        for s in range(len(m.indices_of_degree(a))):
            col = {}
            for c, dm in zip(coords, comp.maps):
                for t, x in map_column(dm, a, s).items():
                    col[t] = col.get(t, QI(0)) + c * x
            assert {t: x for t, x in col.items() if x} == {s: QI(a)}


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
    from crprolong.exact import rank

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
    assert rank(Matrix(rows)) == n  # trivial center: only 0 brackets everything to 0


def test_levi_tanaka_embeds_in_full_tanaka():
    from crprolong.exact import rank

    for k in (1, 3, 4):
        m = realify(build_symbol_algebra(k).algebra)
        lt = grade0(m, True)
        ft = grade0(m, False)
        degrees = sorted(set(m.degrees))
        cols = [dm.flatten(degrees) for dm in ft.maps] + [dm.flatten(degrees) for dm in lt.maps]
        assert rank(Matrix.sparse(len(cols[0]), [dict(enumerate(c)) for c in cols])) == ft.dim


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
    from crprolong.exact import rank

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
    assert rank(Matrix(rows)) == n  # trivial center: only 0 brackets everything to 0


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


def test_only_prolong_reads_derivation_blocks():
    """The ``DerivationMap`` block layout stays in ``prolong``: no other module reads a ``.blocks`` attribute."""
    package = Path(exact.__file__).parent
    offenders = [
        (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        if path.name != "prolong.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "blocks"
    ]
    assert offenders == []


def test_solve_component_reads_only_integer_forms():
    """``_solve_component`` reads no ``.table``, calls neither ``_integers`` nor ``Matrix.sparse`` and builds no ``Matrix``."""
    tree = ast.parse((Path(exact.__file__).parent / "prolong.py").read_text())
    solve = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_solve_component")
    offenders = [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(solve)
        if (isinstance(node, ast.Attribute) and node.attr in ("table", "_integers", "sparse"))
        or (isinstance(node, ast.Name) and node.id in ("_integers", "Matrix"))
    ]
    assert offenders == []


# -- every component against the full-block Leibniz oracle in tests/oracles.py --


def _pairs(x):
    return (x.re, x.im)


def _dense_blocks(dm):
    """The blocks of ``dm`` as {a: rows of (re, im)}, read through ``coordinates.map_column``."""
    out = {}
    for a, (rows, columns) in dm.blocks.items():
        cols = [map_column(dm, a, s) for s in range(len(columns))]
        out[a] = [[_pairs(col.get(t, QI(0))) for col in cols] for t in range(rows)]
    return out


def _assert_components_match_oracle(m, top, j_constraint):
    """grade0 and prolong_component through degree ``top`` return exactly the oracle's basis maps."""
    table = {ij: {k: _pairs(c) for k, c in terms.items()} for ij, terms in m.table.items()}
    J = [[_pairs(x) for x in row] for row in m.J.data] if j_constraint else None
    comps = [grade0(m, j_constraint)]
    for l in range(1, top + 1):
        comps.append(prolong_component(m, comps, l))
    maps = [[_dense_blocks(dm) for dm in comp.maps] for comp in comps]
    for l in range(top + 1):
        assert maps[l] == full_block_component(m.degrees, table, l, maps[:l], J if l == 0 else None), l


@pytest.mark.parametrize("j_constraint", [False, True])
@pytest.mark.parametrize("k", range(1, 9))
def test_grade0_matches_full_block_oracle(k, j_constraint):
    _assert_components_match_oracle(realify(build_symbol_algebra(k).algebra), 0, j_constraint)


@pytest.mark.parametrize(
    "k, top, j_constraint",
    [
        (1, 6, False),
        (2, 5, False),
        (3, 1, True),
        (1, 3, True),
        (2, 1, True),
        (5, 1, True),
        # the full-Tanaka towers of the `anchors` benchmark workload
        pytest.param(1, 11, False, marks=pytest.mark.slow),
        pytest.param(2, 11, False, marks=pytest.mark.slow),
    ],
    ids=[
        "heisenberg-full-tanaka",
        "k2-full-tanaka",
        "f23-levi-tanaka",
        "heisenberg-levi-tanaka",
        "k2-levi-tanaka",
        "k5-levi-tanaka",
        "heisenberg-full-tanaka-11",
        "k2-full-tanaka-11",
    ],
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


# -- negative controls: the Jacobi gate of the assembled table --


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: realify(build_symbol_algebra(12).algebra), id="realified-k12"),
        pytest.param(lambda: build_symbol_algebra(12).algebra, id="hall-k12"),
    ],
)
@pytest.mark.parametrize("flavor", [LEVI_TANAKA, FULL_TANAKA])
def test_planted_jacobi_violation_in_a_hand_built_algebra_fails_full_prolongation(make, flavor):
    """A hand-built algebra carries no Jacobi verdict, so the assembled table is checked on every triple, the old ones included."""
    m = make()
    bad = replaced_bracket(m, 2, 3, {k: 2 * c for k, c in m.table[(2, 3)].items()})
    assert bad._jacobi_prefix == 0
    with pytest.raises(RuntimeError, match=r"^assembled prolongation violates Jacobi at \(0, 1, 3\)$"):
        full_prolongation(bad, flavor)


@pytest.mark.parametrize("k, seed", [(2, None), (8, None), (8, 1)])
def test_corrupted_grade0_constant_fails_the_assembled_jacobi_gate(monkeypatch, k, seed):
    """Negative control: doubling one [e_x, G0_1] entry of the assembled table, on the extension of a verified symbol, trips its gate."""
    m = build_symbol_algebra(k, None if seed is None else random_quotient(k, seed)).algebra
    assert m._jacobi_prefix == m.dim
    honest = GradedLieAlgebra._extended
    x = m.indices_of_degree(-2)[0]

    def corrupted(self, labels, degrees, entries, **kw):
        entries = [(key, {t: 2 * x for t, x in terms.items()} if key == (x, m.dim) else terms, den) for key, terms, den in entries]
        return honest(self, labels, degrees, entries, **kw)

    monkeypatch.setattr(GradedLieAlgebra, "_extended", corrupted)
    with pytest.raises(RuntimeError, match="^assembled prolongation violates Jacobi at "):
        full_prolongation(m, LEVI_TANAKA)


def test_annihilating_grade0_vector_fails_the_assembled_transitivity_gate(monkeypatch):
    """Negative control: a degree-0 vector with no brackets, appended to the assembled table, satisfies Jacobi and trips the transitivity gate."""
    m = build_symbol_algebra(8).algebra
    honest = prolong._assemble

    def planted(m, components):
        algebra = honest(m, components)
        return algebra._extended(["z"], [0], [], scalar_tag=algebra.scalar_tag)

    monkeypatch.setattr(prolong, "_assemble", planted)
    with pytest.raises(RuntimeError, match="^assembled prolongation is not transitive$"):
        full_prolongation(m, LEVI_TANAKA)


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


def test_corrupted_deep_column_fails_the_assembled_jacobi_gate(monkeypatch):
    """A corrupted degree -3 column leaves every g_-1 block, hence every read coordinate, as it was.

    ``_assemble`` reads only those blocks, so it returns a table; its
    Jacobi identity on (e_x, d, e) fails, and ``full_prolongation`` refuses it.
    """
    m, comps = _f23_full_tanaka_components()
    first = comps[0].maps[0]
    rows, columns = first.blocks[-3]
    (nums, den), rest = columns[0], columns[1:]
    assert nums
    doubled = ({t: 2 * x for t, x in nums.items()}, den)
    corrupt = DerivationMap(0, {**first.blocks, -3: (rows, [doubled, *rest])})
    g0 = ProlongationComponent(0, (corrupt,) + comps[0].maps[1:])
    assert check_jacobi(_assemble(m, [g0] + comps[1:]))
    honest = prolong._assemble
    monkeypatch.setattr(prolong, "_assemble", lambda m, components: honest(m, [g0, *components[1:]]))
    with pytest.raises(RuntimeError, match="^assembled prolongation violates Jacobi at "):
        full_prolongation(m, FULL_TANAKA)


def test_corrupted_component_bracket_fails_the_assembled_jacobi_gate(monkeypatch):
    """Negative control: doubling any one bracket of two component vectors in the assembled full-Tanaka G2 table trips its gate.

    ``_assemble`` reads each such bracket off its g_-1 block alone, so the
    gate is the one check of its action on the rest of m.
    """
    m = f23()
    nums, _ = full_prolongation(m, FULL_TANAKA).algebra._numerators
    keys = [key for key in nums if key[0] >= m.dim]
    assert len(keys) == 20
    honest = GradedLieAlgebra._extended
    for bad in keys:

        def corrupted(self, labels, degrees, entries, **kw):
            entries = [(key, {t: 2 * x for t, x in terms.items()} if key == bad else terms, den) for key, terms, den in entries]
            return honest(self, labels, degrees, entries, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(GradedLieAlgebra, "_extended", corrupted)
            with pytest.raises(RuntimeError, match="^assembled prolongation violates Jacobi at "):
                full_prolongation(m, FULL_TANAKA)


# -- property oracle: the prolongation does not depend on the chosen basis --


def _random_graded_change(m, rng, gaussian=False):
    """An invertible rational (or, with ``gaussian``, Gaussian integer) matrix that maps each degree block of m to itself."""
    p = [[QI(0)] * m.dim for _ in range(m.dim)]
    for d in set(m.degrees):
        idx = m.indices_of_degree(d)
        while True:
            block = [[QI(rng.randint(-3, 3), rng.randint(-3, 3) if gaussian else 0) for _ in idx] for _ in idx]
            if rank(Matrix(block)) == len(idx):
                break
        for r, row in zip(idx, block):
            for c, x in zip(idx, row):
                p[r][c] = x
    return Matrix(p)


def _inverse(m):
    """The inverse of an invertible ``Matrix``, by the dense oracle."""
    return Matrix([[QI(*z) for z in row] for row in dense_inverse([[(x.re, x.im) for x in row] for row in m.data])])


def _transported(m, p):
    """m in the basis given by the columns of p, so p maps it back onto m; J becomes P^-1 J P on g_-1."""
    pinv = _inverse(p)
    cols = [p.sparse_column(i) for i in range(m.dim)]
    table = {}
    for i in range(m.dim):
        for j in range(i + 1, m.dim):
            w = m.bracket_vec(cols[i], cols[j])
            entry = pinv.mul(Matrix.sparse(m.dim, [w])).sparse_column(0)
            if entry:
                table[(i, j)] = entry
    ones = m.indices_of_degree(-1)
    p1 = Matrix([[p.data[r][c] for c in ones] for r in ones])
    j = _inverse(p1).mul(m.J).mul(p1)
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


@pytest.mark.parametrize(
    "k, top, j_constraint, seed", [(2, 3, False, 2003), (3, 1, True, 2000)], ids=["k2-full-tanaka", "f23-levi-tanaka"]
)
def test_components_match_full_block_oracle_with_denominators(k, top, j_constraint, seed):
    """A graded change of basis brings non-integer structure constants and a non-integer J.

    The seeds are the first from 2000 on whose change of basis does both.
    """
    m = realify(build_symbol_algebra(k).algebra)
    moved = _transported(m, _random_graded_change(m, random.Random(seed)))
    assert any(c.re.denominator > 1 for terms in moved.table.values() for c in terms.values())
    assert any(x.re.denominator > 1 for row in moved.J.data for x in row)
    _assert_components_match_oracle(moved, top, j_constraint)


# -- the Gaussian solve: complex entries are solved, and the kernel is checked --


@pytest.mark.parametrize("k", [3, 8], ids=["f23", "k8-rotation-stable"])
def test_components_match_full_block_oracle_after_a_gaussian_change_of_basis(k):
    """A Gaussian graded change of basis of a Hall-basis symbol with a 2-dimensional grade 0: complex rows, J and kernel vectors.

    On the Hall basis itself every kernel has a rational basis, so only a
    basis like this one needs the complex branch of ``_integer_kernel``.
    """
    m = build_symbol_algebra(k, None if k == 3 else rotation_stable_quotient(k, 1)).algebra
    moved = _transported(m, _random_graded_change(m, random.Random(3000 + k), gaussian=True))
    degrees = sorted(set(moved.degrees))
    assert any(x.re and x.im for dm in grade0(moved, True).maps for x in dm.flatten(degrees))
    _assert_components_match_oracle(moved, 1, True)
    assert full_prolongation(moved, LEVI_TANAKA).dims_by_degree() == full_prolongation(m, LEVI_TANAKA).dims_by_degree()


def test_grade0_solves_complex_structure_constant():
    """f23 with one structure constant times i: the rows are complex, and grade 0 is the oracle's kernel over Q(i)."""
    m = f23()
    (i, j), terms = next(iter(m.table.items()))
    k, c = next(iter(terms.items()))
    bad = replaced_bracket(m, i, j, {**terms, k: QI(0, 1) * c})
    assert is_fundamental(bad)
    _assert_components_match_oracle(bad, 0, False)


@pytest.mark.parametrize("seed", [1, 2])
def test_complex_hall_algebra_matches_full_block_oracle_with_j(seed):
    """A conjugation-stable quotient at k = 8 on its Hall basis: complex structure constants and J = diag(i, -i)."""
    m = build_symbol_algebra(8, random_quotient(8, seed)).algebra
    assert sum(1 for terms in m.table.values() for c in terms.values() if c.im) == 12
    assert m.J == Matrix([[QI(0, 1), 0], [0, QI(0, -1)]])
    _assert_components_match_oracle(m, 1, True)


# -- zero components stop reading rows at full rank ---------------------------


def _assert_zero_component_matches_oracle(m):
    """The Levi-Tanaka prolongation ends in G^1 = 0, and grade 0 and that zero component are the oracle's."""
    assert [c.dim for c in full_prolongation(m, LEVI_TANAKA).components][1:] == [0]
    _assert_components_match_oracle(m, 1, True)


@pytest.mark.parametrize("k", [*range(2, 13), pytest.param(21, marks=pytest.mark.slow), pytest.param(22, marks=pytest.mark.slow)])
def test_zero_component_of_a_default_symbol_matches_full_block_oracle(k):
    _assert_zero_component_matches_oracle(build_symbol_algebra(k).algebra)


_DRAWS = [
    (make, k, seed)
    for make in (random_quotient, rotation_stable_quotient, unstable_quotient)
    for k, seed in ((2, 1), (4, 1), (5, 1), (7, 1), (8, 1), (8, 2), (9, 1))
    if make(k, seed) is not None
]


@pytest.mark.parametrize("make, k, seed", _DRAWS, ids=[f"{make.__name__}-k{k}-seed{seed}" for make, k, seed in _DRAWS])
def test_zero_component_of_a_drawn_symbol_matches_full_block_oracle(make, k, seed):
    """Conjugation-stable, rotation-stable and unstable draws; the conjugation-stable k = 8 ones have complex constants."""
    _assert_zero_component_matches_oracle(build_symbol_algebra(k, make(k, seed)).algebra)


def test_degree_one_solve_at_k21_stops_reading_rows_at_full_rank(monkeypatch):
    """The zero G^1 of the k = 21 symbol is certified by a prefix of its Leibniz rows.

    The rows are counted as the solve takes them from its stream, once as
    it runs and once with a kernel that reads the whole stream first.
    """
    m = build_symbol_algebra(21).algebra
    g0 = grade0(m, j_constraint=True)
    streams = []
    distinct, kernel = prolong._distinct_rows, prolong._integer_kernel

    def counted(forms):
        read = []
        streams.append(read)

        def counting():
            for form in forms:
                read.append(form)
                yield form

        return distinct(counting())

    monkeypatch.setattr(prolong, "_distinct_rows", counted)
    assert prolong_component(m, [g0], 1).dim == 0
    monkeypatch.setattr(prolong, "_integer_kernel", lambda rows, width: kernel(list(rows), width))
    assert prolong_component(m, [g0], 1).dim == 0
    read, every = streams
    assert 0 < len(read) < len(every) and read == every[: len(read)]
    # the rows read already have full rank: their kernel, which contains the full kernel, is zero
    width = 2 * g0.dim
    assert len(integer_rref(distinct(iter(read)), width)) == width


@pytest.mark.parametrize("k, seed, rows", [(12, None, 5), (21, None, 5), (22, None, 2), (9, 1, 2)], ids=["k12", "k21", "k22", "k9-seed1"])
def test_degree_one_solve_reads_the_pairs_that_bind_first(monkeypatch, k, seed, rows):
    """The zero G^1 reads the pinned number of distinct rows: the pairs of g_-1 with the top layer come first.

    The counts were measured with the pairs listed by block pair in
    increasing degree sum; listed in index order, the k = 9, seed 1 solve,
    whose rows are complex, read 38.
    """
    m = build_symbol_algebra(k, None if seed is None else random_quotient(k, seed)).algebra
    g0 = grade0(m, j_constraint=True)
    read, kernel = [], prolong._integer_kernel

    def counted(stream, width):
        def recording():
            for row in stream:
                read.append(row)
                yield row

        return kernel(recording(), width)

    monkeypatch.setattr(prolong, "_integer_kernel", counted)
    assert prolong_component(m, [g0], 1).dim == 0
    assert len(read) == rows
    assert any(u < 0 for row in read for u in row) == (seed is not None)


def test_component_solves_leave_no_reference_cycles():
    """The lazily built images go with the solve: a nonzero and a zero component leave nothing for the cyclic collector."""
    m = build_symbol_algebra(8).algebra
    gc.collect()
    gc.disable()
    try:
        g0 = grade0(m, j_constraint=True)
        assert g0.dim == 2 and prolong_component(m, [g0], 1).dim == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_corrupted_pivot_row_fails_the_substitution_check(monkeypatch):
    """Heisenberg grade 0 with J: 4 unknowns (the 2x2 g_-1 block), rank 2."""

    def corrupted(rows, width):
        pivots = integer_rref(rows, width)
        col, row = pivots[0]
        free = min(set(range(4)) - {c for c, _ in pivots})
        pivots[0] = (col, {**row, free: row.get(free, 0) + 1})
        return pivots

    m = heis()
    assert grade0(m, j_constraint=True).dim == 2
    monkeypatch.setattr(exact, "integer_rref", corrupted)
    with pytest.raises(AssertionError, match="non-kernel vector"):
        grade0(m, j_constraint=True)


def test_corrupted_last_kernel_vector_fails_the_substitution_check(monkeypatch):
    """The contact full-Tanaka degree-3 component: 12 kernel vectors, and only the last one is corrupted.

    Adding 1 to the first pivot row at the last free column changes the
    kernel vector of that column alone, at a pivot unknown, so the batched
    check must reach past the first vector to refuse it.
    """
    m = heis()
    comps = [grade0(m, j_constraint=False)]
    for l in (1, 2):
        comps.append(prolong_component(m, comps, l))
    assert prolong_component(m, comps, 3).dim == 12

    def corrupted(rows, width):
        pivots = integer_rref(rows, width)
        assert width == 2 * comps[2].dim
        last = max(set(range(width)) - {c for c, _ in pivots})
        col, row = pivots[0]
        assert col < last
        pivots[0] = (col, {**row, last: row.get(last, 0) + 1})
        return pivots

    monkeypatch.setattr(exact, "integer_rref", corrupted)
    with pytest.raises(AssertionError, match="non-kernel vector"):
        prolong_component(m, comps, 3)


def test_assemble_refuses_a_map_whose_degree_is_not_its_components():
    """The degree-slot gate holds by construction; a grade-0 map that claims degree 1 puts its images one degree up, and the gate refuses it."""
    m, comps = _f23_full_tanaka_components()
    maps = comps[0].maps
    g0 = ProlongationComponent(0, maps[:2] + (DerivationMap(1, maps[2].blocks),) + maps[3:])
    with pytest.raises(RuntimeError, match="^bracket action landed outside its degree slot$"):
        _assemble(m, [g0] + comps[1:])


def test_levi_tanaka_refuses_an_algebra_that_is_not_pseudocomplex():
    """[x1, x2] = t with J x1 = y1 and J x2 = y2: [J x1, J x2] = [y1, y2] = 0, so the Levi-Tanaka flavor is refused before any solve."""
    m = GradedLieAlgebra(
        ["x1", "y1", "x2", "y2", "t"], [-1, -1, -1, -1, -2], {(0, 2): {4: 1}},
        J=Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
    )
    with pytest.raises(ValueError, match="^Levi-Tanaka prolongation needs a pseudocomplex algebra$"):
        full_prolongation(m, LEVI_TANAKA)


# the solves whose skipped pairs are checked: each run returns its components
_SKIP_CASES = {
    **{f"k{k}": lambda k=k: full_prolongation(build_symbol_algebra(k).algebra).components for k in range(2, 13)},
    **{f"catalog-{name}": lambda name=name: full_prolongation(symbol_from_frame(builtin_catalog()[name]).algebra).components for name in sorted(builtin_catalog())},
    # one drawn quotient per length 3, 4 and 5
    **{f"random-k{k}": lambda k=k: full_prolongation(build_symbol_algebra(k, random_quotient(k, 1)).algebra).components for k in (2, 4, 7)},
    **{f"tower-k{k}": lambda k=k: _tower(realify(build_symbol_algebra(k).algebra), 6) for k in (1, 2)},
}


def _tower(m, top):
    comps = [grade0(m, j_constraint=False)]
    for l in range(1, top + 1):
        comps.append(prolong_component(m, comps, l))
    return comps


def _read_to_the_end(monkeypatch, run, skip):
    """The Leibniz and J forms of every solve of ``run``, each row stream read to its end, and the flattened maps of the components it returns.

    Without ``skip`` the solves evaluate the pairs that ``_defining_pairs`` names too.
    """
    forms = []
    distinct, kernel = prolong._distinct_rows, prolong._integer_kernel

    def recording(stream):
        for form in stream:
            forms.append(form)
            yield form

    monkeypatch.setattr(prolong, "_distinct_rows", lambda stream: distinct(recording(stream)))
    monkeypatch.setattr(prolong, "_integer_kernel", lambda rows, width: kernel(list(rows), width))
    if not skip:
        monkeypatch.setattr(prolong, "_defining_pairs", lambda nums, gens: set())
    try:
        comps = run()
    finally:
        monkeypatch.undo()
    return forms, [[repr(dm.flatten(sorted(dm.blocks))) for dm in c.maps] for c in comps]


@pytest.mark.parametrize("name", _SKIP_CASES)
def test_skipped_pairs_have_zero_residuals_and_change_no_map(monkeypatch, name):
    """A pair whose bracket is a multiple of one e_x expressed by that pair alone yields no row: skipped or not, each solve reads the same forms and gives the same maps."""
    run = _SKIP_CASES[name]
    skipped, off = _read_to_the_end(monkeypatch, run, skip=True), _read_to_the_end(monkeypatch, run, skip=False)
    # every skipped pair's residual is the empty form, so it added no form to its stream
    assert skipped[0] == off[0] and skipped[0]
    assert skipped[1] == off[1]


@pytest.mark.parametrize("k, seed, counts", [(5, None, (5, 5)), (11, None, (9, 11)), (7, 1, (7, 7))], ids=["k5", "k11", "k7-seed1"])
def test_defining_pairs_are_the_one_pair_expressions(k, seed, counts):
    """A pair is skipped iff it alone expresses some e_x, in one part or, for a complex coefficient (k = 7, seed 1), in two, and it brackets to a multiple of that e_x."""
    m = build_symbol_algebra(k, None if seed is None else random_quotient(k, seed)).algebra
    gens = _generating_expressions(m)
    pairs_of = {x: {tuple(sorted(part[:2])) for part in expression} for x, (expression, _) in gens.items()}
    single = {x: pairs.pop() for x, pairs in pairs_of.items() if len(pairs) == 1}
    assert (len(single), len(gens)) == counts
    assert any(len(gens[x][0]) == 2 for x in single) == (seed is not None)
    assert prolong._defining_pairs(m._numerators[0], gens) == set(single.values())
    assert all(set(m.table[pair]) == {x} for x, pair in single.items())


@pytest.mark.parametrize("k", [5, 8, 12])
def test_planted_fault_in_a_skipped_pair_fails_the_assembled_jacobi_gate(k):
    """The skipped residual is zero only for the expression as solved: e_x's one-pair coefficient doubled defines D(e_x) off the bracket, and the Jacobi gate of the assembled table refuses it.

    e_x is the last expressed vector that only its defining pair brackets into, so no row the solve evaluates sees the fault.
    """
    m = build_symbol_algebra(k).algebra
    nums = m._numerators[0]
    gens = _generating_expressions(m)
    pairs = prolong._defining_pairs(nums, gens)
    lone = [x for x, (expression, _) in gens.items() if tuple(sorted(expression[0][:2])) in pairs and sum(1 for terms in m.table.values() if x in terms) == 1]
    x = lone[-1]
    (g, y, turn, c), cden = gens[x][0][0], gens[x][1]
    bad = GradedLieAlgebra._from_numerators(m.labels, m.degrees, m._numerators, J=m.J, scalar_tag=m.scalar_tag)
    bad._expressions = ({**gens, x: ([(g, y, turn, 2 * c)], cden)},)
    with pytest.raises(RuntimeError, match="^assembled prolongation violates Jacobi"):
        full_prolongation(bad)
