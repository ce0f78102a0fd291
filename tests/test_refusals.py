"""Every argument check of the public API refuses its bad input with its exact message.

Each case reaches one ``raise`` of ``src/crprolong`` that no other test
reaches, through a public entry.  ``real_form``'s "wrong dimension" site
has no case: the involution gate of ``GradedLieAlgebra`` leaves no input
that reaches it (see the comment there).
"""

import re

import pytest

from crprolong.bch import bch_series
from crprolong.exact import QI, Echelon, Matrix
from crprolong.freelie import (
    hall_basis,
    hall_rewrite,
    lyndon_words,
    min_length_for_codim,
    standard_factorization,
    standard_tree,
    tree_normal_form,
    witt_dim,
)
from crprolong.liealg import GradedLieAlgebra, MissingJ, build_symbol_algebra
from crprolong.poly import Poly
from crprolong.prolong import grade0, prolong_component


def _heisenberg():
    """The 3-dimensional Heisenberg algebra, fundamental and without J."""
    return GradedLieAlgebra(["x", "y", "t"], [-1, -1, -2], {(0, 1): {2: 1}})


def _degree_zero_component():
    m = _heisenberg()
    return prolong_component(m, [grade0(m, j_constraint=False)], 0)


CASES = {
    "bch_series": (lambda: bch_series(0), ValueError, "cap must be positive"),
    "QI": (lambda: QI(1.5), TypeError, "cannot build an exact rational from 1.5"),
    "Poly": (lambda: Poly(2, {(1, 0): 1.5}), TypeError, "cannot coerce 1.5 to a Gaussian rational"),
    "Matrix": (lambda: Matrix([[1, 2], [3]]), ValueError, "ragged matrix"),
    "sparse_column": (lambda: Matrix.identity(2).sparse_column(2), IndexError, "column index out of range"),
    "Echelon": (lambda: Echelon([[1, 2]], 3), ValueError, "row width mismatch"),
    "Echelon.reduce": (lambda: Echelon([[1, 2]], 2).reduce([1]), ValueError, "dimension mismatch"),
    "lyndon_words": (lambda: lyndon_words(0), ValueError, "length must be positive"),
    "witt_dim": (lambda: witt_dim(0), ValueError, "length must be positive"),
    "min_length_for_codim": (lambda: min_length_for_codim(0), ValueError, "codimension must be positive"),
    "standard_factorization": (lambda: standard_factorization((1,)), ValueError, "factorization needs length >= 2"),
    "standard_tree": (lambda: standard_tree((2, 1)), ValueError, "(2, 1) is not a Lyndon word"),
    "hall_basis": (lambda: hall_basis(0), ValueError, "max_length must be positive"),
    "tree_normal_form": (lambda: tree_normal_form((1, 3)), ValueError, "unknown generator 3"),
    "hall_rewrite-generator": (lambda: hall_rewrite(1, 3), ValueError, "unknown generator 3"),
    "hall_rewrite-expression": (lambda: hall_rewrite(1, "x"), TypeError, "not a bracket expression: 'x'"),
    "GradedLieAlgebra-lengths": (
        lambda: GradedLieAlgebra(["x"], [-1, -1], {}), ValueError, "labels/degrees length mismatch",
    ),
    "GradedLieAlgebra-index": (
        lambda: GradedLieAlgebra(["x", "y"], [-1, -1], {(0, 2): {}}), ValueError, "bracket index out of range: (0, 2)",
    ),
    "GradedLieAlgebra-order": (
        lambda: GradedLieAlgebra(["x", "y"], [-1, -1], {(1, 0): {}}), ValueError, "table keys must have i < j",
    ),
    "GradedLieAlgebra-J": (
        lambda: GradedLieAlgebra(["x", "y"], [-1, -1], {}, J=Matrix.identity(3)), ValueError, "J must act on the degree -1 block",
    ),
    "build_symbol_algebra": (
        lambda: build_symbol_algebra(2, "default"), TypeError, "quotient must be None or a QuotientSpec",
    ),
    "prolong_component": (_degree_zero_component, ValueError, "use grade0 for degree 0"),
    "grade0": (
        lambda: grade0(_heisenberg(), j_constraint=True), MissingJ, "J-constrained prolongation needs a complex structure",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_public_entries_refuse_bad_arguments_with_their_message(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
