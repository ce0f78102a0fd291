"""Truncated free associative algebra on two letters.

Elements are sparse {word tuple: Fraction} maps with all words of length
at most a fixed cap.  This is the workhorse behind the exponential-log
computation of the group-law series: Lie elements are recognized and
re-expressed in the Lyndon bracket basis by triangular elimination
(the expansion of a standard bracketing starts with its own word, and
every other word in the expansion is lexicographically larger).
"""

from __future__ import annotations

from fractions import Fraction

from .freelie import is_lyndon, standard_tree

__all__ = ["a_mul", "a_add", "expand_tree", "lie_coordinates"]


def a_add(a: dict, b: dict, mult=1) -> dict:
    out = dict(a)
    for w, c in b.items():
        c = c * mult
        nc = out.get(w, 0) + c
        if nc:
            out[w] = nc
        else:
            out.pop(w, None)
    return out


def a_mul(a: dict, b: dict, cap: int) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        la = len(wa)
        for wb, cb in b.items():
            if la + len(wb) > cap:
                continue
            w = wa + wb
            nc = out.get(w, 0) + ca * cb
            if nc:
                out[w] = nc
            else:
                out.pop(w, None)
    return out


def expand_tree(tree, cap: int) -> dict:
    """Iterated-commutator expansion of a bracket tree."""
    if isinstance(tree, int):
        return {(tree,): Fraction(1)}
    left = expand_tree(tree[0], cap)
    right = expand_tree(tree[1], cap)
    return a_add(a_mul(left, right, cap), a_mul(right, left, cap), -1)


def lie_coordinates(elem: dict, cap: int) -> dict:
    """Coordinates of a Lie element in the Lyndon basis: {word: Fraction}.

    Works degree by degree; raises if the input fails to be a Lie element
    (a leftover leading word that is not Lyndon, or a nonzero residue).
    """
    coords: dict = {}
    for degree in range(1, cap + 1):
        part = {w: c for w, c in elem.items() if len(w) == degree}
        while part:
            w = min(part)
            if not is_lyndon(w):
                raise ValueError(f"not a Lie element: leading word {w} is not Lyndon")
            c = part[w]
            coords[w] = c
            part = a_add(part, expand_tree(standard_tree(w), cap), -c)
    return coords
