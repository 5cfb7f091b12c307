"""Discriminants of rank-2 intersection lattices on a cubic fourfold and
the admissibility arithmetic for special discriminants.

The lattice is spanned by the square of the hyperplane class (fixed
self-intersection 3) and the class of a surface T; the discriminant is
the Gram determinant.  A discriminant d marks a non-empty divisor in the
moduli space iff d > 6 and d = 0 or 2 mod 6, and carries an associated
degree-d K3 surface iff d = 2(n^2 + n + 1) for an integer n >= 2.
"""

import math
from typing import NamedTuple

H2_SELF_INTERSECTION = 3


class GramMatrix2(NamedTuple):
    """Gram matrix of <h^2, T>: [[3, h2T], [h2T, TT]]."""

    h2T: int
    TT: int

    @property
    def h2h2(self) -> int:
        return H2_SELF_INTERSECTION

    def rows(self):
        return ((self.h2h2, self.h2T), (self.h2T, self.TT))


def discriminant(g: GramMatrix2) -> int:
    return g.h2h2 * g.TT - g.h2T * g.h2T


def special_admissible(d: int) -> bool:
    """Whether discriminant-d special fourfolds form a non-empty divisor."""
    return d > 6 and d % 6 in (0, 2)


def associated_k3_degree(d: int):
    """The integer n >= 2 with d = 2(n^2 + n + 1), or None."""
    if d % 2 != 0:
        return None
    # n = (-1 + sqrt(2d - 3)) / 2
    s2 = 2 * d - 3
    if s2 < 0:
        return None
    s = math.isqrt(s2)
    if s * s != s2 or (s - 1) % 2 != 0:
        return None
    n = (s - 1) // 2
    return n if n >= 2 else None
