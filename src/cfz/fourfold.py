"""Symbolic checks on the explicit cubic fourfold: the (2,2) map identity
that exhibits it as the image of P^2 x P^2, and the rational automorphism
subgroups preserving its equation.

Everything here works in the coordinate order (x, u, y, v, z, w) so the
pairing of the two planes' variables is contiguous.  All arithmetic is
exact integer arithmetic: the polynomials have integer coefficients, and
``LinearMapP5`` stores integer matrices, whose products, determinants
(``linalg.det``, Bareiss elimination) and substitutions into the cubic
never form a Fraction.  ``normalized()`` scales a matrix to its primitive
integer representative (entries with gcd 1) whose first nonzero entry is
positive; for the generators below, whose entries lie in {-1, 0, 1}, that
is the matrix scaled to a leading 1.
"""

import math
import operator
import random
from typing import NamedTuple

from .linalg import det
from .polynomials import Poly

VARS6 = ("x", "u", "y", "v", "z", "w")


def _mono(exps, c=1):
    return Poly.monomial(6, exps, c)


# F = x u^2 + y v^2 + z w^2 and G = x^2 u + y^2 v + z^2 w, in (x,u,y,v,z,w)
F_FORM = _mono((1, 2, 0, 0, 0, 0)) + _mono((0, 0, 1, 2, 0, 0)) + _mono((0, 0, 0, 0, 1, 2))
G_FORM = _mono((2, 1, 0, 0, 0, 0)) + _mono((0, 0, 2, 1, 0, 0)) + _mono((0, 0, 0, 0, 2, 1))
CUBIC = F_FORM - G_FORM   # the fourfold equation F - G


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


def random_map_identity_check(trials: int = 100, p: int = 101, seed: int = 0) -> bool:
    """Numeric shadow of the symbolic identity: evaluate the map at random
    points mod p and plug into the equation, without expanding anything."""
    rng = random.Random(seed)
    for _ in range(trials):
        pt = [rng.randrange(p) for _ in range(6)]
        f = F_FORM.evaluate(pt, mod=p)
        g = G_FORM.evaluate(pt, mod=p)
        x, u, y, v, z, w = pt
        image = [x * f, u * g, y * f, v * g, z * f, w * g]
        if CUBIC.evaluate(image, mod=p) != 0:
            return False
    return True


class LinearMapP5:
    """Invertible 6x6 matrix acting on (x,u,y,v,z,w), considered projectively.

    Entries are Python ints: Fractions passed in are cleared of their
    denominators, which does not change the projective map.
    ``normalized()`` is the primitive integer representative whose first
    nonzero entry (row-major) is positive, which makes projective equality
    plain tuple equality.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        from fractions import Fraction

        rows = [[Fraction(e) for e in r] for r in rows]
        if len(rows) != 6 or any(len(r) != 6 for r in rows):
            raise ValueError("need a 6x6 matrix")
        den = math.lcm(*(e.denominator for r in rows for e in r))
        self.rows = tuple(tuple(int(e * den) for e in r) for r in rows)
        if det(self.rows) == 0:
            raise ValueError("matrix is not invertible")

    @classmethod
    def _of_int_rows(cls, rows) -> "LinearMapP5":
        """A map from integer rows already known to be invertible."""
        g = cls.__new__(cls)
        g.rows = rows
        return g

    def normalized(self) -> "LinearMapP5":
        flat = [e for r in self.rows for e in r]
        scale = math.gcd(*flat)
        if next(e for e in flat if e) < 0:
            scale = -scale
        if scale == 1:
            return self
        return self._of_int_rows(tuple(tuple(e // scale for e in r) for r in self.rows))

    def __matmul__(self, other: "LinearMapP5") -> "LinearMapP5":
        cols = tuple(zip(*other.rows))
        return self._of_int_rows(tuple(
            tuple(sum(map(operator.mul, r, c)) for c in cols) for r in self.rows))

    def act_on_poly(self, poly: Poly) -> Poly:
        """(poly o self): substitute each variable by its image linear form."""
        forms = [Poly(6, {tuple(1 if t == j else 0 for t in range(6)): self.rows[i][j]
                          for j in range(6) if self.rows[i][j]})
                 for i in range(6)]
        return poly.substitute(forms)

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


def preserves_cubic(g: LinearMapP5) -> bool:
    """Whether the fourfold equation composed with g is a scalar multiple
    of itself."""
    composed = g.act_on_poly(CUBIC)
    if composed.is_zero:
        return False
    probe = next(iter(CUBIC.terms))
    lam = composed.terms.get(probe)
    if not lam:
        return False
    return composed == CUBIC * lam


class GroupReport(NamedTuple):
    order: int
    elements: tuple


def automorphism_subgroup(generators) -> GroupReport:
    """Closure of the generators under composition modulo scalars, with the
    check that every element preserves the fourfold equation up to scalar."""
    gens = []
    for i, g in enumerate(generators):
        if not preserves_cubic(g):
            raise FormNotPreservedError(
                f"generator {i} does not preserve the cubic form")
        gens.append(g.normalized())
    elements = {identity_map().normalized()}
    frontier = list(elements)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = (e @ g).normalized()
                if h not in elements:
                    elements.add(h)
                    nxt.append(h)
        frontier = nxt
    for h in elements:
        if not preserves_cubic(h):
            raise FormNotPreservedError("closure produced a non-preserving element")
    return GroupReport(len(elements), tuple(sorted(elements, key=lambda e: e.rows)))
