"""Free Lie algebra on two generators.

Basis convention, fixed once for the whole package: Lyndon words over the
alphabet {1, 2} with 1 < 2, each bracketed by its standard (right)
factorization, ordered by length and then lexicographically.  The two
generators sit at positions 1 and 2, and basis elements inherit the frame
labels L<length>_<global index>.

The rewriting routine expresses an arbitrary formal bracket of basis
words in this basis using only antisymmetry and the Jacobi identity, so
all derived coefficients are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

__all__ = [
    "HallWord",
    "HallBasis",
    "witt_dim",
    "cumulative_dim",
    "min_length_for_codim",
    "hall_basis",
    "hall_rewrite",
    "lyndon_words",
    "is_lyndon",
    "standard_factorization",
    "standard_tree",
    "tree_normal_form",
    "conjugate_tree",
]

GEN1, GEN2 = 1, 2


def is_lyndon(word) -> bool:
    """True iff ``word`` is strictly smaller than each of its proper suffixes."""
    word = tuple(word)
    if not word:
        return False
    return all(word < word[i:] for i in range(1, len(word)))


@lru_cache(maxsize=None)
def lyndon_words(length: int):
    """All Lyndon words of the given length over {1, 2}, lexicographically."""
    if length < 1:
        raise ValueError("length must be positive")
    return tuple(w for w in product((GEN1, GEN2), repeat=length) if is_lyndon(w))


def _mobius(n: int) -> int:
    m, p, primes = n, 2, []
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            primes.append(p)
        else:
            p += 1
    if m > 1:
        primes.append(m)
    return -1 if len(primes) % 2 else 1


def witt_dim(length: int) -> int:
    """Dimension of the length-homogeneous component, two generators."""
    if length < 1:
        raise ValueError("length must be positive")
    total = 0
    for d in range(1, length + 1):
        if length % d == 0:
            total += _mobius(d) * 2 ** (length // d)
    assert total % length == 0
    return total // length


def cumulative_dim(length: int) -> int:
    """Total number of independent brackets of length at most ``length``."""
    return sum(witt_dim(j) for j in range(1, length + 1))


def min_length_for_codim(k: int) -> int:
    """Smallest length whose cumulative bracket count reaches rank 2 + k."""
    if k < 1:
        raise ValueError("codimension must be positive")
    target = 2 + k
    length = 1
    while cumulative_dim(length) < target:
        length += 1
    return length


def standard_factorization(word):
    """Right standard factorization (u, v): v is the least proper suffix."""
    word = tuple(word)
    if len(word) < 2:
        raise ValueError("factorization needs length >= 2")
    cut = min(range(1, len(word)), key=lambda i: word[i:])
    return word[:cut], word[cut:]


@lru_cache(maxsize=None)
def standard_tree(word):
    """Standard bracketing of a Lyndon word as a nested tuple of generators."""
    word = tuple(word)
    if not is_lyndon(word):
        raise ValueError(f"{word} is not a Lyndon word")
    if len(word) == 1:
        return word[0]
    u, v = standard_factorization(word)
    return (standard_tree(u), standard_tree(v))


def tree_to_nested(tree):
    """JSON form of a bracket tree: nested integer pairs like [1, [1, 2]]."""
    if isinstance(tree, int):
        return tree
    return [tree_to_nested(tree[0]), tree_to_nested(tree[1])]


def conjugate_tree(tree):
    """Swap the two generators throughout a bracket tree."""
    if isinstance(tree, int):
        return GEN2 if tree == GEN1 else GEN1
    return (conjugate_tree(tree[0]), conjugate_tree(tree[1]))


@dataclass(frozen=True)
class HallWord:
    """A basis word: a Lyndon word with its standard bracketing."""

    word: tuple

    def __post_init__(self):
        if not is_lyndon(self.word):
            raise ValueError(f"{self.word} is not a Lyndon word")

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def bidegree(self):
        """(n, nt): multiplicities of the first and second generator."""
        n = sum(1 for a in self.word if a == GEN1)
        return (n, len(self.word) - n)

    @property
    def tree(self):
        return standard_tree(self.word)

    def to_nested(self):
        return tree_to_nested(self.tree)

    def __str__(self) -> str:
        return "".join(str(a) for a in self.word)


@dataclass(frozen=True)
class HallBasis:
    max_length: int
    words: tuple
    index: dict

    def __len__(self) -> int:
        return len(self.words)

    def position(self, word) -> int:
        return self.index[tuple(word)]

    def label(self, pos: int) -> str:
        """Frame label L<length>_<global index>, indices starting at 1."""
        return f"L{self.words[pos].length}_{pos + 1}"


@lru_cache(maxsize=None)
def hall_basis(max_length: int) -> HallBasis:
    if max_length < 1:
        raise ValueError("max_length must be positive")
    words = []
    for length in range(1, max_length + 1):
        words.extend(HallWord(w) for w in lyndon_words(length))
    index = {w.word: i for i, w in enumerate(words)}
    return HallBasis(max_length, tuple(words), index)


def _is_normal_pair(u, v) -> bool:
    # [b(u), b(v)] is itself a standard bracketing iff u < v and the right
    # standard factor of u is >= v (vacuous when u is a letter).
    if len(u) == 1:
        return True
    _, u2 = standard_factorization(u)
    return u2 >= v


def _merge(dst: dict, src: dict, mult: int = 1) -> dict:
    for w, c in src.items():
        c = c * mult
        nc = dst.get(w, 0) + c
        if nc:
            dst[w] = nc
        else:
            dst.pop(w, None)
    return dst


@lru_cache(maxsize=None)
def _bracket_basis(u, v):
    """[b(u), b(v)] in the basis, as a tuple of (word, integer coeff)."""
    if u == v:
        return ()
    if u > v:
        return tuple((w, -c) for w, c in _bracket_basis(v, u))
    if _is_normal_pair(u, v):
        return ((u + v, 1),)
    u1, u2 = standard_factorization(u)
    # [[u1,u2],v] = [[u1,v],u2] + [u1,[u2,v]]
    acc: dict = {}
    for w, c in _bracket_basis(u1, v):
        _merge(acc, _bracket_combos({w: c}, {u2: 1}))
    _merge(acc, _bracket_combos({u1: 1}, dict(_bracket_basis(u2, v))))
    return tuple(sorted(acc.items()))


def _bracket_combos(a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            _merge(out, dict(_bracket_basis(wa, wb)), ca * cb)
    return out


def tree_normal_form(tree) -> dict:
    """Normal form of a formal bracket tree: {word: integer coefficient}."""
    if isinstance(tree, int):
        if tree not in (GEN1, GEN2):
            raise ValueError(f"unknown generator {tree}")
        return {(tree,): 1}
    left, right = tree
    return _bracket_combos(tree_normal_form(left), tree_normal_form(right))


def _as_tree(x):
    if isinstance(x, HallWord):
        return x.tree
    if isinstance(x, int):
        if x not in (GEN1, GEN2):
            raise ValueError(f"unknown generator {x}")
        return x
    if isinstance(x, tuple) and len(x) == 2:
        return (_as_tree(x[0]), _as_tree(x[1]))
    raise TypeError(f"not a bracket expression: {x!r}")


def hall_rewrite(a, b) -> dict:
    """Bracket [a, b] in Hall normal form: {HallWord: integer coefficient}.

    ``a`` and ``b`` may be HallWords, generator numbers, or nested tuples
    of those (formal brackets).
    """
    combo = _bracket_combos(tree_normal_form(_as_tree(a)), tree_normal_form(_as_tree(b)))
    return {HallWord(w): c for w, c in sorted(combo.items())}
