"""Exact arithmetic in GF(p) and GF(p^k) on integer encodings, the
lookup tables the counters use, and projective point enumeration.

Every prime is a characteristic here: which primes a variety has good
reduction at, and which fields a counter can count over, are stated by
``zeta`` and by each counter, not by the fields.

GF(p^k) is GF(p)[x]/(m) for the lexicographically first monic
irreducible m of degree k (see ``find_irreducible``), so that every
count is reproducible across runs.  An element is only ever its integer
encoding e = sum(c_i * p^i) in [0, p^k) of the coefficients c_i of its
residue class, so the constants 0 to p - 1 encode as themselves.  One
rule on encodings (``FiniteField.add``, ``neg``, ``mul`` and ``pow``)
does all arithmetic.  From it ``field_tables`` builds, on first use,
four lists of about q entries: the powers of a generator g of GF(q)*,
their discrete logs, the Zech logs log(1 + g^i) and the quadratic
character, on which mul, add and neg are O(1)
lookups; no table of q^2 entries is built.  The same rule, in the
quotient ring GF(p)[x]/(f), also decides whether a modulus f is
irreducible (``_is_irreducible``).  ``FiniteField(p, k)`` and
``field_of_order(q)`` are the two ways to build a field, and every
table in the package is built on a field from ``field_of_order``, whose
cap on q (``check_field_order``) bounds them.
"""

from functools import lru_cache
from itertools import product
from typing import NamedTuple

# the largest order field_of_order builds: field_tables holds about 100
# bytes per element, so about 100 MiB at this order
MAX_FIELD_ORDER = 1 << 20


class FieldError(ValueError):
    """Invalid field construction: bad characteristic, degree or order."""


def is_prime(n: int) -> bool:
    """Trial-division primality test; all primes here are desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int):
    """Raise FieldError unless p is prime."""
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")


# ---------------------------------------------------------------------------
# irreducibility, by the field's own rule in the quotient ring

def _is_irreducible(f, p):
    """f monic with coefficients mod p, degree k >= 1.

    In R = GF(p)[x]/(f), x^(p^k) = x says f divides x^(p^k) - x, so f is
    squarefree and R is a product of fields GF(p^e) with e | k.  Then f is
    irreducible iff no e divides k/d for a prime d | k, that is iff every
    g = x^(p^(k/d)) - x is a unit of R, iff g^(p^k - 1) = 1.
    """
    k = len(f) - 1
    if k == 1:
        return True
    # R on the field's own arithmetic, built without the field's checks
    ring = FiniteField.__new__(FiniteField)
    ring.p, ring.k, ring.modulus = p, k, tuple(f)
    x = p  # the encoding of the residue class of x
    if ring.pow(x, p ** k) != x:
        return False
    for d in _prime_divisors(k):
        g = ring.add(ring.pow(x, p ** (k // d)), ring.neg(x))
        if ring.pow(g, p ** k - 1) != 1:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _has_root(f, p):
    """Whether f, coefficients ascending mod p, vanishes at some a in GF(p)."""
    for a in range(p):
        value = 0
        for c in reversed(f):
            value = (value * a + c) % p
        if not value:
            return True
    return False


def find_irreducible(p: int, k: int) -> tuple:
    """Lexicographically first monic irreducible of degree k over GF(p).

    Coefficients ascending, (c0, ..., c_{k-1}, 1); the scan runs over
    (c0, ..., c_{k-1}) in lexicographic order so the result is
    deterministic.  k = 1 returns x itself.  A candidate with a root in
    GF(p) has a linear factor, so the root test rejects it before
    ``_is_irreducible``, which confirms the survivors, runs.
    """
    check_prime(p)
    if k < 1:
        raise FieldError(f"extension degree must be >= 1, got {k}")
    if k == 1:
        return (0, 1)
    for tail in product(range(p), repeat=k):
        f = list(tail) + [1]
        if not _has_root(f, p) and _is_irreducible(f, p):
            return tuple(f)
    raise FieldError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# fields

class FiniteField:
    """GF(p^k) as GF(p)[x]/(modulus), p any prime, for the modulus
    ``find_irreducible(p, k)`` (x itself for k = 1).

    ``add``, ``neg``, ``mul`` and ``pow`` are the field's arithmetic on
    encodings, the one rule that the table set of ``field_tables`` and
    every single-element computation go through.
    """

    __slots__ = ("p", "k", "modulus")

    def __init__(self, p: int, k: int = 1):
        self.p, self.k, self.modulus = p, k, find_irreducible(p, k)

    @property
    def order(self):
        return self.p ** self.k

    def _digits(self, e):
        return [e // self.p ** i % self.p for i in range(self.k)]

    def _encode(self, coeffs):
        e = 0
        for c in reversed(coeffs):
            e = e * self.p + c % self.p
        return e

    def add(self, a, b):
        return self._encode([x + y for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a):
        return self._encode([-x for x in self._digits(a)])

    def mul(self, a, b):
        """Product of encodings: multiply the coefficient polynomials, then
        reduce x^d for d >= k through x^k = -(m_0 + ... + m_{k-1} x^{k-1})."""
        k = self.k
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * k - 1)
        for i in range(k):
            for j in range(k):
                prod[i + j] = prod[i + j] + da[i] * db[j]
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % self.p
            for i in range(k):
                prod[d - k + i] = prod[d - k + i] - c * self.modulus[i]
        return self._encode(prod[:k])

    def pow(self, a, e: int):
        """a^e on encodings, e >= 0, by square-and-multiply through ``mul``."""
        result = 1
        while e > 0:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def __eq__(self, other):
        # the modulus is find_irreducible(p, k), so p and k name the field
        return isinstance(other, FiniteField) and (other.p, other.k) == (self.p, self.k)

    def __hash__(self):
        return hash(("GF", self.p, self.k))

    def __repr__(self):
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"


def check_field_order(q: int):
    """Raise FieldError if q exceeds MAX_FIELD_ORDER: the one statement of
    the cap, for ``field_of_order`` and for the CLI's prime lists."""
    if q > MAX_FIELD_ORDER:
        raise FieldError(f"field order {q} exceeds the cap 2^20 = {MAX_FIELD_ORDER} "
                         "on the field tables")


@lru_cache(maxsize=None)
def field_of_order(q: int):
    """The field with q = p^k elements.

    Built once per q and process: for k >= 2 the build scans for the
    modulus, and a field is immutable, so every caller can share it.
    q > MAX_FIELD_ORDER is refused before q is factored."""
    check_field_order(q)
    primes = _prime_divisors(q)
    if len(primes) != 1:
        raise FieldError(f"{q} is not a prime power")
    p, k = primes[0], 1
    while p ** k < q:
        k += 1
    return FiniteField(p, k)


class FieldTables(NamedTuple):
    """The arithmetic of one field on encodings, from lists of length q - 1
    or q built from a generator g of GF(q)*: powers[i] = g^i, log its
    inverse on the nonzero encodings, zech[i] = log(1 + g^i) (-1 where
    1 + g^i = 0), and chi the quadratic character (1 on every nonzero
    element for even q, where all are squares).  mul, add and neg are
    O(1) lookups in them."""

    powers: list
    log: list
    zech: list
    chi: list

    def mul(self, a, b):
        if not (a and b):
            return 0
        return self.powers[(self.log[a] + self.log[b]) % len(self.powers)]

    def add(self, a, b):
        """g^i + g^j = g^i (1 + g^(j - i))."""
        if not (a and b):
            return a or b
        n, i = len(self.powers), self.log[a]
        z = self.zech[(self.log[b] - i) % n]
        return 0 if z < 0 else self.powers[(i + z) % n]

    def neg(self, a):
        """-1 = g^((q - 1)/2) for odd q, and -1 = 1 for even q."""
        n = len(self.powers)
        return a if n % 2 else a and self.powers[(self.log[a] + n // 2) % n]


def _generator(field):
    """The least encoding that generates the multiplicative group: g is a
    generator iff g^((q-1)/r) != 1 for every prime r dividing q - 1."""
    n = field.order - 1
    exps = [n // r for r in _prime_divisors(n)]
    return next(g for g in range(1, field.order)
                if all(field.pow(g, e) != 1 for e in exps))


@lru_cache(maxsize=1)
def field_tables(field) -> FieldTables:
    """The table set of a field, filled on first use by q calls of each of
    the field's own mul and add; the cache holds the latest field's set."""
    q = field.order
    g = _generator(field)
    powers = [1]
    for _ in range(q - 2):
        powers.append(field.mul(powers[-1], g))
    log = [0] * q
    for i, e in enumerate(powers):
        log[e] = i
    zech = [log[s] if (s := field.add(1, e)) else -1 for e in powers]
    chi = [0] + [1 - 2 * (log[a] & 1 & q) for a in range(1, q)]
    return FieldTables(powers, log, zech, chi)


# ---------------------------------------------------------------------------
# characters and root counting

def quadratic_root_count(a: int, b: int, c: int, tables: FieldTables) -> int:
    """Number of projective zeros of a*U^2 + b*UV + c*V^2 on P^1(F_q), for
    encodings a, b, c and the table set of a field of characteristic p >= 5,
    where 4 encodes 4.

    Identically zero forms contribute the whole line, q + 1 points;
    otherwise the count is 1 + chi(b^2 - 4ac).

    No caller in the package: it stays only while the benchmark's tracer
    names it (ROADMAP item 3)."""
    if not (a or b or c):
        return len(tables.chi) + 1
    mul = tables.mul
    return 1 + tables.chi[tables.add(mul(b, b), tables.neg(mul(4, mul(a, c))))]


# ---------------------------------------------------------------------------
# projective enumeration

def projective_cardinality(q: int, n: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def enumerate_projective(q: int, n: int):
    """Canonical points of P^n over a q-element scalar set, as encoding tuples.

    Normalisation: first nonzero coordinate equals 1 (encoding 1); later
    coordinates run over all q encodings.  Each point appears exactly once
    and the total is (q^{n+1} - 1)/(q - 1).  Purely combinatorial, so any
    q >= 2 is accepted; field semantics require q to be a prime power.
    ``counting._projective_rows`` builds the same points by rank, as
    numpy rows.
    """
    if q < 2 or n < 0:
        raise ValueError(f"need q >= 2 and n >= 0, got q={q}, n={n}")
    for lead in range(n + 1):
        head = (0,) * lead + (1,)
        for tail in product(range(q), repeat=n - lead):
            yield head + tail


def projective_points(field, n: int):
    """Canonical points of P^n(field) as encoding tuples.

    No caller in the package: it stays only while the benchmark's tracer
    names it (ROADMAP item 3); ``enumerate_projective`` is the same walk."""
    yield from enumerate_projective(field.order, n)
