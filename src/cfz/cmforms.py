"""The weight-3 CM newform of level 27 and the identification of a form
from count residues.

For a prime p = 1 mod 3 the coefficient a_p is produced by two
independent routes, which the ``forms`` verify suite compares:

* ``ap_base`` solves 4p = L^2 + 27 M^2 (Cornacchia by exhaustion, the
  solution is unique up to sign) and returns (L^2 - 27 M^2) / 2;
* ``ap_via_eisenstein`` factors p = pi * conj(pi) in Z[omega], normalizes
  pi primary (pi = +-1 mod 3), and returns pi^2 + conj(pi)^2 computed in
  the ring.

Inert primes (p = 2 mod 3) have a_p = 0.  The three candidate forms are
the base form and its twists by the conductor-9 cubic character and its
square.  ``identify_form`` compares them with the residues in GF(p): under
an embedding omega -> z, candidate i takes the value a_p z^(e i), where
chi_9(p) = omega^e.  The residues single out the base form because the
values of the three candidates at 7 are pairwise distinct.
"""

import math
from collections import namedtuple
from typing import NamedTuple

from . import counting  # lazy (see __init__): runs when fermat_comparison reads it
from .fields import check_prime


class CountMismatchError(ArithmeticError):
    """Two counters that must agree returned different counts."""


class EisensteinInt:
    """a + b*omega with omega a primitive cube root of unity (omega^2 + omega + 1 = 0)."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def __add__(self, other):
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other):
        # (a + b*w)(c + d*w) = ac - bd + (ad + bc - bd) w  using w^2 = -1 - w
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c - b * d)

    def conjugate(self):
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    @property
    def is_rational(self):
        return self.b == 0

    def is_primary(self) -> bool:
        """pi = +-1 mod 3, the normalization that pins down a_p."""
        return self.b % 3 == 0 and self.a % 3 in (1, 2)

    def associates(self):
        """The six unit multiples of self."""
        w = EisensteinInt(0, 1)
        out = []
        cur = self
        for _ in range(3):
            out.extend([cur, -cur])
            cur = cur * w
        return out

    def __eq__(self, other):
        return isinstance(other, EisensteinInt) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"EisensteinInt({self.a}, {self.b})"


def _check_split_prime(p):
    check_prime(p)
    if p % 3 != 1:
        raise ValueError(f"{p} is not 1 mod 3")


class CornacchiaSolution(namedtuple("CornacchiaSolution", "p L M")):
    """The unique positive (L, M) with 4p = L^2 + 27 M^2."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # validates _replace too

    def __new__(cls, p, L, M):
        if L * L + 27 * M * M != 4 * p:
            raise ValueError("not a solution of 4p = L^2 + 27 M^2")
        return super().__new__(cls, p, L, M)


def cornacchia_4p(p: int) -> CornacchiaSolution:
    """Solve 4p = L^2 + 27 M^2 by exhaustion over M; p must split in Q(sqrt(-3))."""
    _check_split_prime(p)
    for m in range(1, math.isqrt(4 * p // 27) + 1):
        rest = 4 * p - 27 * m * m
        l = math.isqrt(rest)
        if l * l == rest:
            return CornacchiaSolution(p, l, m)
    raise ArithmeticError(f"no representation 4*{p} = L^2 + 27 M^2 found")  # unreachable


def ap_base(p: int) -> int:
    """Coefficient of the base form: 0 at inert primes, (L^2 - 27 M^2)/2 at split ones."""
    check_prime(p)
    if p % 3 == 2:
        return 0
    sol = cornacchia_4p(p)
    num = sol.L * sol.L - 27 * sol.M * sol.M
    assert num % 2 == 0
    a = num // 2
    assert abs(a) <= 2 * p, f"a_{p} = {a} violates the Hasse bound"
    return a


def eisenstein_factor(p: int) -> EisensteinInt:
    """A primary prime pi with pi * conj(pi) = p, for p = 1 mod 3."""
    _check_split_prime(p)
    for a in range(math.isqrt(4 * p // 3) + 2):
        disc = 4 * p - 3 * a * a
        if disc < 0:
            break
        s = math.isqrt(disc)
        if s * s != disc or (a + s) % 2 != 0:
            continue
        for b in ((a + s) // 2, (a - s) // 2):
            cand = EisensteinInt(a, b)
            if cand.norm() != p:
                continue
            for assoc in cand.associates() + cand.conjugate().associates():
                if assoc.is_primary():
                    return assoc
    raise ArithmeticError(f"no Eisenstein factorization of {p} found")  # unreachable


def ap_via_eisenstein(p: int) -> int:
    """a_p = pi^2 + conj(pi)^2 for the primary factor, computed in the ring
    without ``ap_base``."""
    pi = eisenstein_factor(p)
    sq = pi * pi
    total = sq + sq.conjugate()
    assert total.is_rational
    return total.a


# chi_9(n) = omega^e for n mod 9 coprime to 3: (Z/9)^* is cyclic, generated
# by 2, and the declared (not canonical) convention is chi_9(2) = omega;
# identification of the untwisted form does not depend on it
_EXPONENT_MOD_9 = {1: 0, 2: 1, 4: 2, 5: 2, 7: 1, 8: 0}


def omega_embeddings(p: int):
    """The nontrivial cube roots of unity mod p (empty for inert p), sorted:
    z = g^((p - 1)/3) for the first g that is not a cube, and z^2."""
    if p % 3 != 1:
        return []
    z = next(z for z in (pow(g, (p - 1) // 3, p) for g in range(2, p)) if z != 1)
    return sorted((z, z * z % p))


def declared_embedding(p: int) -> int:
    """The smaller cube root; the library's fixed choice of omega mod p."""
    roots = omega_embeddings(p)
    if not roots:
        raise ValueError(f"no cube root of unity mod {p}")
    return roots[0]


class IdentificationResult(NamedTuple):
    match: int            # 0, 1, 2 or None
    status: str           # unique | ambiguous | no_match
    checked_primes: tuple
    embedding_choices: dict

    def to_json(self) -> dict:
        return {
            "match": self.match,
            "checked_primes": list(self.checked_primes),
            "embedding_choices": {str(p): z for p, z in sorted(self.embedding_choices.items())},
        }


def identify_form(residues) -> IdentificationResult:
    """Match (p, residue) pairs against the three candidate forms.

    A candidate survives a split prime if some embedding omega -> z of
    Z[omega] into GF(p) sends its coefficient to the residue, that is if
    a_p z^(e i) = r mod p for candidate i, with chi_9(p) = omega^e; it
    survives an inert prime if r = 0.  The two nontrivial twists are
    conjugate, hence indistinguishable under free embedding choices; when
    both survive and the base form does not, the tie is broken by the
    declared embedding (smallest cube root of unity), which makes residues
    generated under that convention round-trip.
    """
    given = {}
    for p, r in residues:
        check_prime(p)
        if not 0 <= r < p:
            raise ValueError(f"residue {r} out of range for p = {p}")
        if given.setdefault(p, r) != r:
            raise ValueError(f"two residues, {given[p]} and {r}, given for p = {p}")
    if not given:
        raise ValueError("no residues given")
    pairs = sorted(given.items())
    primes = tuple(p for p, _ in pairs)
    ap = {p: ap_base(p) for p in primes if p % 3 != 2}  # ap_base refuses p = 0 mod 3

    def survives(idx, embedding_of):
        return all(r == 0 if p % 3 == 2 else
                   any(ap[p] * pow(z, _EXPONENT_MOD_9[p % 9] * idx, p) % p == r
                       for z in embedding_of(p))
                   for p, r in pairs)

    matches = [idx for idx in (0, 1, 2) if survives(idx, omega_embeddings)]
    if set(matches) == {1, 2}:
        matches = [i for i in (1, 2) if survives(i, lambda p: [declared_embedding(p)])] or matches
    embeddings = {p: declared_embedding(p) for p in primes if p % 3 == 1}
    if len(matches) == 1:
        return IdentificationResult(matches[0], "unique", primes, embeddings)
    return IdentificationResult(None, "ambiguous" if matches else "no_match", primes, embeddings)


def fermat_comparison(p: int) -> bool:
    """At split primes the Fermat fourfold and the builtin fourfold X are
    isomorphic over GF(p), so their counts must agree."""
    if p % 3 != 1:
        raise ValueError(f"{p} is not 1 mod 3; the comparison needs a split prime")
    fermat = counting.count_fermat_cubic(p).count
    ours = counting.count_pairsum_convolution(counting.builtin_variety("X"), p).count
    if fermat != ours:
        raise CountMismatchError(
            f"p = {p}: Fermat count {fermat} != pair-sum count {ours}")
    return True
