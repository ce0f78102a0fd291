"""Derivation maps and their coordinates in the tests' ``QI`` terms.

``map_column`` reads a stored column of a ``prolong.DerivationMap`` as
``QI``, and ``block_coordinates`` calls ``prolong._coordinates`` with the
packed numerator columns of a ``Matrix`` block and gives one ``QI`` per map back.
"""

from fractions import Fraction

from crprolong.exact import QI
from crprolong.prolong import _coordinates


def block_coordinates(component, block):
    """Coordinates in ``component`` of the element whose g_-1 block is the ``Matrix`` ``block``, one ``QI`` per map, or None."""
    found = _coordinates(component, block._numerators)
    if found is None:
        return None
    nums, den = found
    return [_qi(nums, i, den) for i in range(component.dim)]


def map_column(dm, a, s):
    """The image of basis vector s of m_a under the derivation map ``dm``, as {t: QI} without zeros."""
    nums, den = dm.blocks[a][1][s]
    return {t: _qi(nums, t, den) for t in sorted({t if t >= 0 else ~t for t in nums})}


def _qi(nums, t, den):
    """Entry t of the packed Gaussian numerators ``nums`` (re at key t, im at key ~t) over ``den``."""
    return QI(Fraction(nums.get(t, 0), den), Fraction(nums.get(~t, 0), den))
