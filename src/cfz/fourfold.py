"""Symbolic checks on the explicit cubic fourfold: the (2,2) map identity
that exhibits it as the image of P^2 x P^2, and the rational automorphism
subgroups preserving its equation.

Everything here works in the coordinate order (x, u, y, v, z, w) so the
pairing of the two planes' variables is contiguous.  All arithmetic is
exact integer arithmetic: the polynomials have integer coefficients, and
``LinearMapP5`` stores integer matrices, whose products, determinants
(``linalg.det``) and substitutions into the cubic stay integral.
``normalized()`` scales a matrix to its primitive integer representative
(entries with gcd 1) whose first nonzero entry is positive; for the
generators below, whose entries lie in {-1, 0, 1}, that is the matrix
scaled to a leading 1.

The generators are sparse, and both checks use only nonzero entries:
``automorphism_subgroup`` multiplies by a generator on the left, row by
row, so a generator row with one entry copies one row of the right
factor, and ``preserves_cubic`` expands each term of the cubic over the
nonzero entries of the rows its variables map to.
"""

import math
import operator
from itertools import chain
from typing import NamedTuple

from .counting import builtin_variety
from .linalg import det
from .polynomials import Poly, parse_poly

VARS6 = ("x", "u", "y", "v", "z", "w")

# S's equations F = x u^2 + y v^2 + z w^2 and G = x^2 u + y^2 v + z^2 w, in
# (x,u,y,v,z,w), and X's equation F - G, as the counters count them
F_FORM, G_FORM = (parse_poly(mh.to_text(), [VARS6]).poly for mh in builtin_variety("S").polys)
CUBIC = builtin_variety("X").polys[0].poly


class MapIdentityReport(NamedTuple):
    passed: bool
    residual_terms: tuple   # sorted (exponents, coefficient) pairs, empty on pass


def pfaffian_map_substitution():
    """The composition of the fourfold equation with the map
    (x:u:y:v:z:w) -> (xF : uG : yF : vG : zF : wG), fully expanded."""
    x, u, y, v, z, w = (Poly.variable(6, i) for i in range(6))
    images = [x * F_FORM, u * G_FORM, y * F_FORM, v * G_FORM, z * F_FORM, w * G_FORM]
    return CUBIC.substitute(images)


def verify_pfaffian_map_identity() -> MapIdentityReport:
    """The image of the (2,2) map satisfies the fourfold equation: the
    substituted polynomial collapses to F*G^2*F - F^2*G*G = 0."""
    residual = pfaffian_map_substitution()
    return MapIdentityReport(residual.is_zero, tuple(residual.sorted_terms()))


class LinearMapP5:
    """Invertible 6x6 matrix acting on (x,u,y,v,z,w), considered projectively.

    Entries are Python ints; any other entry raises ``ValueError``.
    ``normalized()`` is the primitive integer representative whose first
    nonzero entry (row-major) is positive, which makes projective equality
    plain tuple equality.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != 6 or any(len(r) != 6 for r in rows):
            raise ValueError("need a 6x6 matrix")
        if any(type(e) is not int for r in rows for e in r):
            raise ValueError("entries must be Python ints")
        if det(rows) == 0:
            raise ValueError("matrix is not invertible")
        self.rows = rows

    @classmethod
    def _of_int_rows(cls, rows) -> "LinearMapP5":
        """A map from integer rows already known to be invertible."""
        g = cls.__new__(cls)
        g.rows = rows
        return g

    def normalized(self) -> "LinearMapP5":
        rows = _primitive(self.rows)
        return self if rows is self.rows else self._of_int_rows(rows)

    def __matmul__(self, other: "LinearMapP5") -> "LinearMapP5":
        cols = tuple(zip(*other.rows))
        return self._of_int_rows(tuple(
            tuple(sum(map(operator.mul, r, c)) for c in cols) for r in self.rows))

    def __eq__(self, other):
        return isinstance(other, LinearMapP5) and other.rows == self.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"LinearMapP5({[[str(e) for e in r] for r in self.rows]})"


def identity_map() -> LinearMapP5:
    return LinearMapP5(tuple(tuple(1 if i == j else 0 for j in range(6))
                             for i in range(6)))


def pair_swap_generator(pair: int) -> LinearMapP5:
    """(a, b) -> (-b, -a) on coordinate pair 0, 1 or 2."""
    return _pair_map(pair, ((0, -1), (-1, 0)))


def pair_shear_generator(pair: int) -> LinearMapP5:
    """(a, b) -> (b - a, -a) on coordinate pair 0, 1 or 2."""
    return _pair_map(pair, ((-1, 1), (-1, 0)))


def _pair_map(pair: int, block) -> LinearMapP5:
    if pair not in (0, 1, 2):
        raise ValueError("pair must be 0, 1 or 2")
    rows = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    a, b = 2 * pair, 2 * pair + 1
    rows[a][a], rows[a][b] = block[0]
    rows[b][a], rows[b][b] = block[1]
    return LinearMapP5(rows)


class FormNotPreservedError(ValueError):
    pass


# each term of the cubic as its coefficient and the ascending triple of the
# variables of its three factors, a key that names the monomial
_CUBIC_TRIPLES = {tuple(i for i, e in enumerate(exps) for _ in range(e)): c
                  for exps, c in CUBIC.terms.items()}


def preserves_cubic(g: LinearMapP5) -> bool:
    """Whether the fourfold equation composed with g is a scalar multiple
    of itself.  Each cubic term is expanded over the nonzero entries of
    the rows of g that its three variables map to."""
    forms = [[(j, e) for j, e in enumerate(r) if e] for r in g.rows]
    composed = {}
    for (a, b, c), coef in _CUBIC_TRIPLES.items():
        for ja, ea in forms[a]:
            for jb, eb in forms[b]:
                partial = coef * ea * eb
                for jc, ec in forms[c]:
                    key = tuple(sorted((ja, jb, jc)))
                    composed[key] = composed.get(key, 0) + partial * ec
    lam = composed.get(next(iter(_CUBIC_TRIPLES)))
    if not lam:
        return False
    return ({m: c for m, c in composed.items() if c}
            == {m: lam * c for m, c in _CUBIC_TRIPLES.items()})


class GroupReport(NamedTuple):
    order: int
    elements: tuple


def _primitive(rows):
    """The rows of an invertible matrix scaled to gcd 1 with a positive
    first nonzero entry, which lies in the first row."""
    scale = math.gcd(*chain.from_iterable(rows))
    if next(filter(None, rows[0])) < 0:
        scale = -scale
    if scale == 1:
        return rows
    return tuple(tuple(e // scale for e in r) for r in rows)


def _left_multiplier(g: LinearMapP5):
    """The map m -> (g @ m) on row tuples, scaled by ``_primitive`` as
    ``normalized()`` is: row i of g @ m is the sum of g[i][t] times row t
    of m over the nonzero entries of g's row i, found once; a row of g
    with a single entry makes a scaled copy of one row of m."""
    plan = [tuple(zip(*((t, e) for t, e in enumerate(r) if e))) for r in g.rows]

    def times(rows):
        out = []
        for ts, scales in plan:
            if len(ts) == 1:
                t, e = ts[0], scales[0]
                out.append(rows[t] if e == 1 else tuple(x * e for x in rows[t]))
            else:
                out.append(tuple(sum(map(operator.mul, entries, scales))
                                 for entries in zip(*map(rows.__getitem__, ts))))
        return _primitive(tuple(out))
    return times


def automorphism_subgroup(generators) -> GroupReport:
    """Closure of the generators under composition modulo scalars, with the
    check that every element preserves the fourfold equation up to scalar.
    Each product is formed from the generator's nonzero entries only."""
    steps = []
    for i, g in enumerate(generators):
        if not preserves_cubic(g):
            raise FormNotPreservedError(
                f"generator {i} does not preserve the cubic form")
        steps.append(_left_multiplier(g))
    one = identity_map().rows
    elements = {one}
    frontier = [one]
    while frontier:
        nxt = []
        for e in frontier:
            for times in steps:
                h = times(e)
                if h not in elements:
                    elements.add(h)
                    nxt.append(h)
        frontier = nxt
    group = [LinearMapP5._of_int_rows(rows) for rows in sorted(elements)]
    for h in group:
        if not preserves_cubic(h):
            raise FormNotPreservedError("closure produced a non-preserving element")
    return GroupReport(len(group), tuple(group))
