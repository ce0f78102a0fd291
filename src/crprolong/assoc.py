"""Truncated free associative algebra on two letters, over the integers.

Elements are sparse {word tuple: int} maps with all words of length at
most a fixed cap; a rational element is such a map over one denominator
that its caller keeps.  This is the workhorse behind the exponential-log
computation of the group-law series: Lie elements are recognized and
re-expressed in the Lyndon bracket basis by triangular elimination (the
expansion of a standard bracketing starts with its own word, with
coefficient 1, and every other word in the expansion is lexicographically
larger), so the elimination never leaves the integers.
"""

from __future__ import annotations

from .freelie import _merge as a_add, lyndon_words, standard_tree

__all__ = ["a_mul", "a_add", "expand_tree", "lie_coordinates"]


def a_mul(a: dict, b: dict, cap: int) -> dict:
    """a · b without the words longer than ``cap``."""
    right = sorted(b.items(), key=lambda t: len(t[0]))
    out: dict = {}
    for wa, ca in a.items():
        room = cap - len(wa)
        for wb, cb in right:
            if len(wb) > room:
                break
            w = wa + wb
            out[w] = out.get(w, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def expand_tree(tree, cap: int, memo: dict) -> dict:
    """Iterated-commutator expansion of a bracket tree, kept in ``memo`` ({tree: expansion}; never changed)."""
    if tree not in memo:
        if isinstance(tree, int):
            memo[tree] = {(tree,): 1}
        else:
            left, right = expand_tree(tree[0], cap, memo), expand_tree(tree[1], cap, memo)
            memo[tree] = a_add(a_mul(left, right, cap), a_mul(right, left, cap), -1)
    return memo[tree]


def lie_coordinates(elem: dict, cap: int, memo: dict) -> dict:
    """Coordinates of a Lie element in the Lyndon basis: {word: int}.

    Works degree by degree, through the Lyndon words in lexicographic
    order; ``memo`` is passed to :func:`expand_tree`.  Raises if the input
    fails to be a Lie element: the least word left over is then not Lyndon.
    """
    coords: dict = {}
    for degree in range(1, cap + 1):
        part = {w: c for w, c in elem.items() if len(w) == degree}
        for w in lyndon_words(degree):
            if c := part.get(w):
                coords[w] = c
                a_add(part, expand_tree(standard_tree(w), cap, memo), -c)
        if part:
            raise ValueError(f"not a Lie element: leading word {min(part)} is not Lyndon")
    return coords
