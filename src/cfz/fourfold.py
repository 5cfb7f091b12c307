"""Symbolic checks on the explicit cubic fourfold: the (2,2) map identity
that exhibits it as the image of P^2 x P^2, and the rational automorphism
subgroups preserving its equation.

Everything here works in the coordinate order (x, u, y, v, z, w) so the
pairing of the two planes' variables is contiguous.  All arithmetic is
exact integer arithmetic.  A linear map of P^5 is its 6 x 6 matrix, a
tuple of six rows of Python ints, and a group is the sorted tuple of its
elements.  Each element is the primitive representative of its matrix
(entries with gcd 1) whose first nonzero entry is positive, which makes
projective equality plain tuple equality; for the generators below,
whose entries lie in {-1, 0, 1}, that is the matrix scaled to a leading 1.

A map g with C(g x) = lam C(x), lam != 0, is invertible: a kernel vector
v of g would give C(x + t v) = C(x) for every t, so the derivative of C
along v, sum v_i dC/dx_i, would vanish, but C's six partials are
linearly independent.  ``preserves_cubic`` therefore refuses every
singular map, and no separate invertibility check is needed.

The generators are sparse, and both checks use only nonzero entries:
``automorphism_subgroup`` multiplies by a generator on the left, row by
row, so a generator row with one entry copies one row of the right
factor, and ``preserves_cubic`` expands each term of the cubic over the
nonzero entries of the rows its variables map to.
"""

import math
import operator
from itertools import chain

from .counting import builtin_variety
from .polynomials import Poly, parse_poly

VARS6 = ("x", "u", "y", "v", "z", "w")

# S's equations F = x u^2 + y v^2 + z w^2 and G = x^2 u + y^2 v + z^2 w, in
# (x,u,y,v,z,w), and X's equation F - G, as the counters count them
F_FORM, G_FORM = (parse_poly(mh.to_text(), [VARS6]).poly for mh in builtin_variety("S").polys)
CUBIC = builtin_variety("X").polys[0].poly


def pfaffian_map_substitution():
    """The composition of the fourfold equation with the map
    (x:u:y:v:z:w) -> (xF : uG : yF : vG : zF : wG), fully expanded.  The
    image of this (2,2) map satisfies the fourfold equation exactly when
    the result, F*G^2*F - F^2*G*G, is the zero polynomial."""
    x, u, y, v, z, w = (Poly.variable(6, i) for i in range(6))
    images = [x * F_FORM, u * G_FORM, y * F_FORM, v * G_FORM, z * F_FORM, w * G_FORM]
    return CUBIC.substitute(images)


def identity_map():
    return tuple(tuple(int(i == j) for j in range(6)) for i in range(6))


def pair_swap_generator(pair: int):
    """(a, b) -> (-b, -a) on coordinate pair 0, 1 or 2."""
    return _pair_map(pair, ((0, -1), (-1, 0)))


def pair_shear_generator(pair: int):
    """(a, b) -> (b - a, -a) on coordinate pair 0, 1 or 2."""
    return _pair_map(pair, ((-1, 1), (-1, 0)))


def _pair_map(pair: int, block):
    if pair not in (0, 1, 2):
        raise ValueError("pair must be 0, 1 or 2")
    rows = [list(r) for r in identity_map()]
    a, b = 2 * pair, 2 * pair + 1
    rows[a][a], rows[a][b] = block[0]
    rows[b][a], rows[b][b] = block[1]
    return tuple(map(tuple, rows))


class FormNotPreservedError(ValueError):
    pass


# each term of the cubic as its coefficient and the ascending triple of the
# variables of its three factors, a key that names the monomial
_CUBIC_TRIPLES = {tuple(i for i, e in enumerate(exps) for _ in range(e)): c
                  for exps, c in CUBIC.terms.items()}


def preserves_cubic(g) -> bool:
    """Whether the fourfold equation composed with the map g (6 rows of 6
    ints) is a nonzero multiple of itself.  Each cubic term is expanded
    over the nonzero entries of the rows of g that its three variables
    map to."""
    forms = [[(j, e) for j, e in enumerate(r) if e] for r in g]
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


def _primitive(rows):
    """The rows of an invertible matrix scaled to gcd 1 with a positive
    first nonzero entry, which lies in the first row."""
    scale = math.gcd(*chain.from_iterable(rows))
    if next(filter(None, rows[0])) < 0:
        scale = -scale
    if scale == 1:
        return rows
    return tuple(tuple(e // scale for e in r) for r in rows)


def _left_multiplier(g):
    """The map m -> g @ m on row tuples, made ``_primitive``: row i of
    g @ m is the sum of g[i][t] times row t of m over the nonzero entries
    of g's row i, found once; a row of g with a single entry makes a
    scaled copy of one row of m."""
    plan = [tuple(zip(*((t, e) for t, e in enumerate(r) if e))) for r in g]

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


def automorphism_subgroup(generators):
    """The group the generators span modulo scalars, as the sorted tuple of
    its primitive elements, with the check that every generator and every
    element preserves the fourfold equation up to a nonzero scalar.  Each
    product is formed from the generator's nonzero entries only."""
    steps = []
    for i, g in enumerate(generators):
        if not preserves_cubic(g):
            raise FormNotPreservedError(
                f"generator {i} does not preserve the cubic form")
        steps.append(_left_multiplier(g))
    one = identity_map()
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
    group = tuple(sorted(elements))
    for h in group:
        if not preserves_cubic(h):
            raise FormNotPreservedError("closure produced a non-preserving element")
    return group
