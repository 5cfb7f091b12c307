"""Point counting for varieties in products of projective spaces.

Every function here takes and returns integer encodings of field
elements and does its arithmetic through the one table set of
``fields.field_tables`` (O(1) mul, add, neg, inv and chi on lists of
about q entries); ``points_on_variety``
and ``smoothness_scan`` return one flat tuple of encodings per point, the
coordinates of all blocks in the spec's variable order.  Three counters
with very different shapes, kept deliberately independent so they can
cross-check each other:

* ``count_points_generic`` is the brute-force oracle: it walks the full
  product of canonical projective points and tests every defining
  polynomial for zero through numpy.  ``_projective_rows`` builds the
  points of a block at any ranks, and ``_product_rows`` those of a product
  at any flat indices, as arrays in the order of the enumeration, with no
  Python loop per point.  The oracle sees the product as a grid, a row for
  each point of block 0 and a column for each point of the product of the
  later blocks, and walks it in tiles: a range of rows times a range of
  columns.  A GF(p^k) value is its k base-p digits and multiplication is
  GF(p)-bilinear, so on a tile digit l of an equation of T terms is a
  float matmul (L_l @ R) mod p: L_l holds digit l of each term's
  coefficient and block-0 monomial times each basis element p^j, and R
  the digits of each term's monomial at the tile's columns; products of
  encodings are taken elementwise from the powers and logs of the table
  set, g^i * g^j = g^(i + j).  The sums are exact in float32 while
  T*k*(p - 1)^2 < 2^23, else in float64 (refused past 2^52).  The first
  equation is tested on the whole tile, each later one only where the
  earlier ones vanish, about 1/q of the cells.  No array of a tile holds
  more than about CHUNK_CELLS = 2^15 entries, and those built once per
  count from the table set hold at most k^2 q, so memory is bounded
  whatever q, the block order and the budget: a traced peak of about
  0.6 MiB for the builtin surface over GF(49), under 0.9 MiB for a
  hypersurface of bidegree (1,3) in P^1 x P^4 or P^4 x P^1 over GF(31),
  and about 1 MiB for a 21-term binary form over GF(1999).
  ``points_on_variety`` and ``smoothness_scan`` sort the flat grid indices
  of their points back into the order of the enumeration.
  A point is singular iff every r x r minor of the full Jacobian matrix
  of the r nonzero equations vanishes there (Euler's relation gives the
  local Jacobian the same rank), so ``smoothness_scan`` adds those minors
  to the equations and is one more zero set.

* ``count_S_fibered`` exploits the structure of the builtin K3 surface S:
  for each point [x:y:z] of the first P^2 the second equation cuts a line
  in the second P^2, and the first equation restricts to a binary
  quadratic on that line, whose discriminant is -xyz(x^3 + y^3 + z^3) up
  to a nonzero square.  The counter sums the quadratic character of that
  value over the base by its sixth-power classes in O(q).  Where it
  vanishes a fiber has 1 point, or a full line of q + 1 points at the
  3 + 3 gcd(3, q - 1) base points where the quadratic vanishes
  identically, so those fibers enter in closed form.  One loop serves
  GF(p^k) for every k.

* ``count_pairsum_convolution`` handles hypersurfaces whose equation is a
  sum of forms in disjoint variable groups of size at most two (the
  builtin fourfolds X and the Fermat cubic): it builds one value
  histogram per group over the affine field, a row at a time over the
  group's last variable from power lists, convolves additively, and
  converts the affine cone count to a projective count.

All counts are exact integers; the affine-to-projective step divides
(N_affine - 1) by (p - 1) and verifies exactness.

numpy is imported inside the generic oracle's kernels only, so a count
served from the cache, by the fibered counter or by the convolution
counter never loads it.
"""

import json
import math
import os
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import NamedTuple

from .fields import (check_good_prime, field_of_order, field_tables,
                     projective_cardinality)
from .polynomials import MultiHomPoly, Poly, parse_poly
from .zeta import FOURFOLD_B4, K3_B2

DEFAULT_BUDGET = 10 ** 9
# the most entries any array of one tile of the generic oracle holds: its
# float values and their scratch copy, its zero masks, its point rows, the
# digits R of the later blocks and the left factors; a float32 grid of this
# size, its scratch copy and two masks take 320 KiB
CHUNK_CELLS = 1 << 15
COUNT_METHODS = ("generic", "fibered", "convolution")


class CountBudgetError(RuntimeError):
    """Enumeration would exceed the configured budget."""


class ConvolutionStructureError(ValueError):
    """Equation is not a sum of forms in disjoint variable groups of size <= 2."""


def enumeration_budget(budget=None) -> int:
    if budget is not None:
        return int(budget)
    return int(os.environ.get("CFZ_BUDGET", DEFAULT_BUDGET))


def _charge_budget(what, cost, unit, budget):
    """Raise CountBudgetError before a counter does cost units of work
    past the enumeration budget."""
    limit = enumeration_budget(budget)
    if cost > limit:
        raise CountBudgetError(f"{what}: {cost} {unit} exceed budget {limit}")


class CountRecord(NamedTuple):
    """One point count: variety name, prime p, extension degree k, N over GF(p^k)."""

    name: str
    p: int
    k: int
    count: int
    method: str

    def to_json(self) -> dict:
        return {"name": self.name, "p": self.p, "k": self.k,
                "count": self.count, "method": self.method}


class VarietySpec:
    """A named system of multihomogeneous equations in a product of P^n's."""

    def __init__(self, name: str, blocks, polys):
        self.name = name
        self.blocks = tuple(tuple(b) for b in blocks)
        self.polys = list(polys)
        for mh in self.polys:
            if mh.blocks != self.blocks:
                raise ValueError(f"{name}: polynomial blocks do not match ambient")

    @property
    def ambient(self):
        return [len(b) - 1 for b in self.blocks]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ambient": self.ambient,
            "vars": [list(b) for b in self.blocks],
            "polys": [mh.to_text() for mh in self.polys],
        }

    @classmethod
    def from_dict(cls, d) -> "VarietySpec":
        """A spec from its JSON form; ValueError if the form is malformed."""
        if not isinstance(d, dict):
            raise ValueError(f"variety spec must be a JSON object, got {type(d).__name__}")
        name, blocks, texts = d.get("name"), d.get("vars"), d.get("polys")
        if not isinstance(name, str):
            raise ValueError("variety spec: 'name' must be a string")
        if not (isinstance(blocks, list) and blocks and all(
                isinstance(b, list) and b and all(isinstance(v, str) for v in b)
                for b in blocks)):
            raise ValueError(
                "variety spec: 'vars' must be a nonempty list of nonempty lists of variable names")
        if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts)):
            raise ValueError("variety spec: 'polys' must be a list of polynomial strings")
        blocks = [tuple(b) for b in blocks]
        if "ambient" in d and d["ambient"] != [len(b) - 1 for b in blocks]:
            raise ValueError("ambient dimensions do not match variable blocks")
        return cls(name, blocks, [parse_poly(t, blocks) for t in texts])

    @classmethod
    def from_file(cls, path) -> "VarietySpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @cached_property
    def canonical(self) -> str:
        """The canonical JSON of the spec: what identifies it, and what its sha hashes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def sha(self) -> str:
        """Content hash of the canonical spec, used as the cache key; a
        constant for the builtins, so only a custom variety loads hashlib."""
        name = _builtin_name(self)
        if name is not None:
            return _BUILTIN_SHA[name]
        import hashlib

        return hashlib.sha256(self.canonical.encode()).hexdigest()

    def __repr__(self):
        return f"VarietySpec({self.name!r})"


# the K3 surface S in P^2 x P^2, the associated cubic fourfold X in P^5,
# and the Fermat cubic fourfold in P^5
_BUILTIN_SOURCES = {
    "S": {
        "name": "S",
        "ambient": [2, 2],
        "vars": [["x", "y", "z"], ["u", "v", "w"]],
        "polys": ["x*u^2+y*v^2+z*w^2", "x^2*u+y^2*v+z^2*w"],
    },
    "X": {
        "name": "X",
        "ambient": [5],
        "vars": [["x", "u", "y", "v", "z", "w"]],
        "polys": ["x*u^2-u*x^2+y*v^2-v*y^2+z*w^2-z^2*w"],
    },
    "fermat": {
        "name": "fermat",
        "ambient": [5],
        "vars": [["u", "v", "w", "x", "y", "z"]],
        "polys": ["u^3+v^3+w^3+x^3+y^3+z^3"],
    },
}

# dimension d = 2m and middle Betti number b of each builtin, all smooth at
# every good prime; kept out of the sources so that no builtin sha changes
_BUILTIN_COHOMOLOGY = {"S": (2, K3_B2), "X": (4, FOURFOLD_B4), "fermat": (4, FOURFOLD_B4)}


# sha-256 of each builtin's canonical JSON, the cache key it has always had
# (tests/test_counting.py recomputes them)
_BUILTIN_SHA = {
    "S": "9aef72f7b3c07f7c289d6c34fcc9ab0bb4be0293549a4852afd40cff478c5773",
    "X": "0c2e3c35006fb131af1f85827501546e82a4405a2bc5c91fcbfee570e74896e9",
    "fermat": "a344e99830598f2eedca01f9a80191b5acd7b7c986e1d95c2062b278312af448",
}


def builtin_variety(name: str) -> VarietySpec:
    if name not in _BUILTIN_SOURCES:
        raise KeyError(f"unknown builtin variety {name!r}; have {sorted(_BUILTIN_SOURCES)}")
    return VarietySpec.from_dict(_BUILTIN_SOURCES[name])


@lru_cache(maxsize=None)
def _builtin_names() -> dict:
    """Canonical JSON -> builtin name, built once on first use."""
    return {VarietySpec.from_dict(src).canonical: name
            for name, src in _BUILTIN_SOURCES.items()}


def _builtin_name(spec: VarietySpec):
    """The name of the builtin whose canonical form spec has, else None;
    a variety file holding a builtin's exact spec is that builtin."""
    return _builtin_names().get(spec.canonical)


def _fits_weil_bound(name, count: int, q: int) -> bool:
    """Whether a count over GF(q) is possible for the builtin of this name.

    A builtin of dimension d = 2m has one cohomology class in each even
    degree 2i != 2m, on which Frobenius acts by q^i, and middle Betti number
    b, so |N - sum_{i != m} q^i| <= b q^m.  Any count passes for a custom
    variety (name None), whose cohomology is unknown."""
    if name not in _BUILTIN_COHOMOLOGY:
        return True
    d, b = _BUILTIN_COHOMOLOGY[name]
    m = d // 2
    return abs(count - sum(q ** i for i in range(d + 1) if i != m)) <= b * q ** m


# ---------------------------------------------------------------------------
# generic oracle over the full product of projective spaces

def _projective_rows(q, n, rank, out=None):
    """The points of P^n with the given ranks (an int64 array) in the
    order of ``fields.enumerate_projective(q, n)``, one row per point,
    written into out (an int64 array of n + 1 columns) if given.  The
    q^(n - l) points whose leading 1 is coordinate l come after those of
    every earlier l, and within them point i holds the base-q digits of i,
    so coordinate c is digit n - c of i."""
    import numpy as np

    sizes = q ** np.arange(n, -1, -1, dtype=np.int64)  # points for each lead l
    ends = np.cumsum(sizes)
    lead = np.searchsorted(ends, rank, side="right")
    index = rank - (ends - sizes)[lead]
    rows = np.empty((len(rank), n + 1), dtype=np.int64) if out is None else out
    # coordinates before the lead are digits of index past its last one: 0
    for c, size in enumerate(sizes):
        np.floor_divide(index, size, out=rows[:, c])
        rows[:, c] %= q
    rows[np.arange(len(rank)), lead] = 1
    return rows


def _product_rows(q, dims, index):
    """The points of the product of P^n, n in dims, at the flat indices
    index (an int64 array) of the product in C order, one row per point
    with the coordinates of all blocks side by side."""
    import numpy as np

    sizes = [projective_cardinality(q, n) for n in dims]
    rows = np.empty((len(index), sum(dims) + len(dims)), dtype=np.int64)
    stride, lo = math.prod(sizes), 0
    for n, size in zip(dims, sizes):
        stride //= size
        _projective_rows(q, n, index // stride % size, out=rows[:, lo:lo + n + 1])
        lo += n + 1
    return rows


def _monomial_values(exps, coords, mul):
    """Encodings of the monomial with exponents exps at each row of coords."""
    import numpy as np

    mono = None
    for i, e in enumerate(exps):
        for _ in range(e):
            mono = coords[:, i] if mono is None else mul(mono, coords[:, i])
    return np.ones(len(coords), dtype=np.int64) if mono is None else mono


def _equations(spec, p):
    """Each nonzero equation as the coefficients mod p, block-0 exponents
    and later blocks' exponents of its terms."""
    cut = len(spec.blocks[0])
    terms = [mh.poly.sorted_terms() for mh in spec.polys if not mh.poly.is_zero]
    return [([c % p for _, c in ts], [e[:cut] for e, _ in ts], [e[cut:] for e, _ in ts])
            for ts in terms]


def _exact_dtype(p, width):
    """A float type in which a sum of width digit products, each at most
    (p - 1)^2, is an exact integer: float32 below 2^23, so that
    p * rint(x * (1/p)) is exact too, else float64 below 2^52."""
    import numpy as np

    top = width * (p - 1) ** 2
    if top >= 1 << 52:
        raise CountBudgetError(f"{width} digit products up to {(p - 1) ** 2} exceed float64")
    return np.float32 if top < 1 << 23 else np.float64


def _head_values(equation, head, mul):
    """u, n0 x T: each term's coefficient times its block-0 monomial at
    each row of head.  Digit l of the left factors is times[l][u], whose
    entry [a, t*k + j] is digit l of u_t(a) * p^j."""
    import numpy as np

    coeffs, exps0, _ = equation
    return np.stack([mul(c, _monomial_values(e, head, mul)) for c, e in zip(coeffs, exps0)],
                    axis=1)


def _right_factors(equation, points, p, k, mul, dtype):
    """R, one row per term and digit, one column per point: row t*k + j
    holds digit j of term t's monomial on the later blocks at each of
    points."""
    import numpy as np

    *_, exps = equation
    right = np.empty((len(exps) * k, len(points)), dtype=dtype)
    for t, e in enumerate(exps):
        values = _monomial_values(e, points, mul)
        for j in range(k):
            right[t * k + j] = values // p ** j % p
    return right


def _multiple_of(g, p, scratch, out):
    """out = (g == 0 mod p) for a float array g of exact integers, in place."""
    import numpy as np

    np.multiply(g, 1 / p, out=scratch)
    np.rint(scratch, out=scratch)
    scratch *= p
    return np.equal(g, scratch, out=out)


def _zero_cells(spec, field, mul):
    """The zero set of the equations, one tile of the product grid at a time.

    The grid has a row for each point of block 0 and a column for each
    point of the product of the later blocks, in C order.  A tile is a
    range of rows times a range of columns; the loop runs over column
    ranges and, within one, over row ranges, so the digits R of the later
    blocks are built once per column range, and once per call when a row
    of the grid fits in one tile.  Yields the flat grid indices, ascending
    within a tile, of the cells of each tile where every equation
    vanishes.  Every array a tile holds, the float values and their
    scratch copy, the zero mask, the point rows, the head values, R and
    the left factors, has at most about CHUNK_CELLS entries, whatever q,
    the block order and the budget."""
    import numpy as np

    q, p, k = field.order, field.char, field.degree
    n0, *later = spec.ambient
    total0 = projective_cardinality(q, n0)
    n1 = math.prod(projective_cardinality(q, n) for n in later)
    equations = _equations(spec, p)
    terms = [len(coeffs) for coeffs, *_ in equations]
    widths = [t * k for t in terms] or [1]
    dtype = _exact_dtype(p, max(widths))
    span = min(n1, max(1, CHUNK_CELLS // max(sum(widths), sum(later) + len(later))))
    step = max(1, CHUNK_CELLS // max(span, max(widths), n0 + 1))
    # rows of block 0 whose points and head values are built at once; at a
    # quarter of CHUNK_CELLS int64 entries each, they take half the bytes of
    # the float32 grid
    batch = max(step, CHUNK_CELLS // (4 * max(sum(terms), n0 + 1)))
    batch -= batch % step
    basis = mul(np.arange(q)[:, None], p ** np.arange(k))
    times = [(basis // p ** l % p).astype(dtype) for l in range(k)]
    # the float values, their scratch copy, the zero mask and, for k > 1,
    # the mask of one digit
    buffers = [np.empty(step * span, dtype=t) for t in (dtype, dtype, bool)]
    buffers.append(np.empty(step * span if k > 1 else 0, dtype=bool))
    for j0 in range(0, n1, span):
        points = _product_rows(q, later, np.arange(j0, min(j0 + span, n1)))
        m = len(points)
        right = [_right_factors(e, points, p, k, mul, dtype) for e in equations]
        del points
        for h0 in range(0, total0, batch):
            head = _projective_rows(q, n0, np.arange(h0, min(h0 + batch, total0)))
            values = [_head_values(e, head, mul) for e in equations]
            for a0 in range(0, len(head), step):
                cells = (_tile_zeros([u[a0:a0 + step] for u in values], right, p, times, buffers)
                         if equations else np.arange(min(step, len(head) - a0) * m))
                a, b = np.divmod(cells, m)
                yield (h0 + a0 + a) * n1 + (j0 + b)


def _tile_zeros(values, right, p, times, buffers):
    """The flat indices, ascending, of the cells of the tile where every
    equation vanishes, given each equation's head values u on the tile's
    rows and its R on the tile's columns.  Digit l of the first equation
    is the matmul of its left factors L_l with its R, reduced mod p, on
    the whole tile; each later equation is tested only at the cells where
    all before it vanish, one digit at a time."""
    import numpy as np

    n0, m = len(values[0]), right[0].shape[1]
    g, s, z, digit_zero = (b[:n0 * m].reshape(n0, -1) for b in buffers)
    u = values[0]
    for l, t in enumerate(times):
        np.matmul(t[u].reshape(n0, -1), right[0], out=g)
        if l:
            z &= _multiple_of(g, p, s, digit_zero)
        else:
            _multiple_of(g, p, s, z)
    cells = np.flatnonzero(z)
    for u, r in zip(values[1:], right[1:]):
        chunk = max(1, CHUNK_CELLS // r.shape[0])
        for t in times:  # digit l: rows of L_l dot columns of R
            left = t[u].reshape(n0, -1)
            keep = np.empty(len(cells), dtype=bool)
            for i in range(0, len(cells), chunk):
                a, b = np.divmod(cells[i:i + chunk], m)
                value = np.einsum("iw,wi->i", left.take(a, 0), r.take(b, 1))
                _multiple_of(value, p, np.empty_like(value), keep[i:i + chunk])
            cells = cells[keep]
    return cells


def _ambient_points(spec, q) -> int:
    total = 1
    for n in spec.ambient:
        total *= projective_cardinality(q, n)
    return total


def _check_budget(spec, q, budget):
    nterms = sum(len(mh.poly.terms) for mh in spec.polys)
    _charge_budget(f"{spec.name} over GF({q})", _ambient_points(spec, q) * max(1, nterms),
                   "primitive evaluations", budget)


def _array_mul(field):
    """The product of two int64 arrays of encodings of field, elementwise
    and broadcast, from its powers and logs: g^i * g^j = g^(i + j).  Two
    logs of nonzero encodings sum to at most 2q - 4, so the log of 0 is
    taken as 2q - 3, which sends every product with a factor 0 past the
    power cycle and its repeat, into zeros."""
    import numpy as np

    powers, log = (np.array(t) for t in field_tables(field)[:2])
    n = len(powers)
    log[0] = 2 * n - 1
    powers = np.concatenate([powers, powers[:-1], np.zeros(2 * n, dtype=np.int64)])

    def mul(a, b):
        return powers[log[a] + log[b]]

    return mul


def count_points_generic(spec: VarietySpec, q: int, budget=None) -> CountRecord:
    """Exact point count by full enumeration of the product of canonical points."""
    field = field_of_order(q)
    _check_budget(spec, q, budget)
    count = sum(len(cells) for cells in _zero_cells(spec, field, _array_mul(field)))
    return CountRecord(spec.name, field.char, field.degree, count, "generic")


def _rational_points(spec: VarietySpec, q: int, budget, extra=()):
    """The rational points of spec where every equation in extra vanishes
    too, in the order of the product enumeration: one flat tuple of the
    encodings of all blocks per point.  The flat grid indices of the
    points are sorted, since tiles need not come in grid order, and turned
    into points a few at a time.  The budget is charged for spec's own
    equations."""
    import numpy as np

    field = field_of_order(q)
    _check_budget(spec, q, budget)
    if extra:
        spec = VarietySpec(spec.name, spec.blocks, spec.polys + list(extra))
    cells = np.concatenate(list(_zero_cells(spec, field, _array_mul(field))))
    cells.sort()
    points, chunk = [], max(1, CHUNK_CELLS // (sum(spec.ambient) + len(spec.ambient)))
    for i in range(0, len(cells), chunk):
        points += zip(*_product_rows(q, spec.ambient, cells[i:i + chunk]).T.tolist())
    return points


def points_on_variety(spec: VarietySpec, q: int, budget=None):
    """All rational points, one flat tuple of coordinate encodings each."""
    return _rational_points(spec, q, budget)


# ---------------------------------------------------------------------------
# fibered counter for the builtin surface S

def count_S_fibered(p: int, k: int = 1, budget=None) -> CountRecord:
    """Count S(GF(p^k)) fiberwise over the first P^2.

    The fiber above [x:y:z] is the conic x u^2 + y v^2 + z w^2 on the line
    x^2 u + y^2 v + z^2 w = 0, a binary quadratic whose discriminant is
    -c, c = xyz(x^3 + y^3 + z^3), up to a nonzero square.  So a fiber has
    1 + chi(-1) chi(c) points, or q + 1 where the quadratic vanishes
    identically.  That needs a singular conic, xyz = 0, and happens at the
    3 coordinate points and at the 3 gcd(3, q - 1) points with one
    coordinate 0 and the cubes of the other two summing to 0:
    N = q^2 + q + 1 + chi(-1) sum chi(c) + 3q (1 + gcd(3, q - 1)).
    In the chart x = 1 the chi(c) sum to sum_{y != 0} chi(y) F(1 + y^3),
    F(c) = sum_z chi(z) chi(c + z^3).  F(0) = q - 1 and F(l^6 c) = F(c)
    (put z = l^2 z'), so F(g^s) is summed once for each class s mod
    gcd(6, q - 1), in logs.  The q^2 + q + 1 base points are charged
    against the enumeration budget before the field tables are built."""
    q = p ** k
    _charge_budget(f"S over GF({q})", projective_cardinality(q, 2), "base points", budget)
    powers, _, zech, chi = field_tables(field_of_order(q))
    n = q - 1
    d = math.gcd(6, n)
    classes = [0] * d  # F(g^j) over z = g^i: g^j + z^3 = g^(j + zech[3i - j])
    for j in range(d):
        for i in range(n):
            s = zech[(3 * i - j) % n]
            if s >= 0:
                classes[j] += 1 - 2 * ((i + j + s) & 1)
    char_sum = 0
    for i, y in enumerate(powers):
        s = zech[3 * i % n]  # 1 + y^3 = g^s
        char_sum += chi[y] * (n if s < 0 else classes[s % d])
    chi_minus_one = 1 - 2 * (n // 2 & 1)  # -1 = g^(n/2)
    total = q * q + q + 1 + chi_minus_one * char_sum + 3 * q * (1 + math.gcd(3, n))
    return CountRecord("S", p, k, total, "fibered")


# ---------------------------------------------------------------------------
# convolution counters for pair-sum hypersurfaces

def pairsum_groups(spec: VarietySpec):
    """Split the single defining equation into forms on disjoint variable
    groups of size <= 2; returns (poly, [(var_indices, term_list), ...])."""
    if len(spec.blocks) != 1:
        raise ConvolutionStructureError("convolution counter needs a single block")
    nontrivial = [mh for mh in spec.polys if not mh.poly.is_zero]
    if len(nontrivial) != 1:
        raise ConvolutionStructureError(
            f"convolution counter needs exactly one equation, got {len(nontrivial)}")
    mh = nontrivial[0]
    nvars = len(spec.blocks[0])
    parent = list(range(nvars))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for exps, _ in mh.poly.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        for i in support[1:]:
            parent[find(support[0])] = find(i)
    groups = {}
    for exps, c in mh.poly.sorted_terms():
        support = [i for i, e in enumerate(exps) if e]
        root = find(support[0])
        groups.setdefault(root, []).append((exps, c))
    out = []
    for root in sorted(groups):
        var_idx = sorted({i for exps, _ in groups[root] for i, e in enumerate(exps) if e})
        if len(var_idx) > 2:
            names = [spec.blocks[0][i] for i in var_idx]
            raise ConvolutionStructureError(
                f"variable group {names} has size {len(var_idx)} > 2")
        out.append((tuple(var_idx), groups[root]))
    return mh, out


def group_value_histogram(terms, var_idx, p: int):
    """H[v] = number of affine assignments of the group variables with value v.

    For each assignment of the other variables, the values over the
    group's last variable y form one row: sum_j C_j y^j mod p, where C_j
    gathers the terms with y^j, read from power lists built once."""
    *outer, last = var_idx
    powers = {}

    def power_list(e):
        if e not in powers:
            powers[e] = [pow(x, e, p) for x in range(p)]
        return powers[e]

    hist = [0] * p
    for assign in product(range(p), repeat=len(outer)):
        coeffs = {}
        for exps, c in terms:
            for x, i in zip(assign, outer):
                c *= power_list(exps[i])[x]
            coeffs[exps[last]] = coeffs.get(exps[last], 0) + c
        row = [0] * p
        for e, c in coeffs.items():
            c %= p
            if c:
                row = [r + c * y for r, y in zip(row, power_list(e))]
        for v in row:
            hist[v % p] += 1
    return hist


def _convolve_mod(a, b, p):
    out = [0] * p
    for s in range(p):
        acc = 0
        for v in range(p):
            acc += a[v] * b[(s - v) % p]
        out[s] = acc
    return out


def count_pairsum_convolution(spec: VarietySpec, p: int, budget=None) -> CountRecord:
    """O(p^2) count of a pair-sum hypersurface via histogram convolution.

    The p^|group| assignments the histograms visit are charged against
    the enumeration budget before any histogram is built."""
    check_good_prime(p)
    mh, groups = pairsum_groups(spec)
    _charge_budget(f"{spec.name} over GF({p})", sum(p ** len(v) for v, _ in groups),
                   "group assignments", budget)
    used = {i for var_idx, _ in groups for i in var_idx}
    free = len(spec.blocks[0]) - len(used)
    result = None
    for var_idx, terms in groups:
        hist = group_value_histogram(terms, var_idx, p)
        result = hist if result is None else _convolve_mod(result, hist, p)
    n_affine = result[0] * p ** free
    if (n_affine - 1) % (p - 1) != 0:
        raise ConvolutionStructureError(
            f"affine count {n_affine} is not 1 mod (p - 1); input not homogeneous")
    return CountRecord(spec.name, p, 1, (n_affine - 1) // (p - 1), "convolution")


def count_fermat_cubic(p: int) -> CountRecord:
    """Fermat cubic fourfold count via six-fold convolution of the cube histogram."""
    return count_pairsum_convolution(builtin_variety("fermat"), p)


# ---------------------------------------------------------------------------
# partial smoothness evidence

def _cofactor_det(rows, nvars):
    """Determinant of a square matrix of Polys in nvars variables, by
    cofactor expansion along the first row; 1 for the empty matrix."""
    if len(rows) < 2:
        return rows[0][0] if rows else Poly.constant(nvars, 1)
    total = Poly.zero(nvars)
    for j, a in enumerate(rows[0]):
        if not a.is_zero:
            term = a * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]], nvars)
            total = total - term if j % 2 else total + term
    return total


def _jacobian_minors(spec: VarietySpec):
    """The r x r minors of the Jacobian matrix of spec's r nonzero
    equations that are not identically zero, each multihomogeneous."""
    polys = [mh.poly for mh in spec.polys if not mh.poly.is_zero]
    nvars = sum(len(b) for b in spec.blocks)
    partials = [[f.derivative(c) for c in range(nvars)] for f in polys]
    minors = (_cofactor_det([[row[c] for c in cols] for row in partials], nvars)
              for cols in combinations(range(nvars), len(polys)))
    return [MultiHomPoly(spec.blocks, m) for m in minors if not m.is_zero]


def smoothness_scan(spec: VarietySpec, q: int, budget=None):
    """Rational points where the local Jacobian drops below full rank.

    In the chart of a point, where the leading coordinate of each block is
    1, the local Jacobian is the full one without those columns.  On the
    variety, Euler's relation makes each dropped column a combination of
    the other columns of its block, so both have the same rank, and a
    point is singular iff every r x r minor of the full Jacobian vanishes
    there, r the number of nonzero equations.  The scan returns the common
    zeros of the equations and those minors, through the generic oracle's
    slices; the budget is charged for the equations alone.  With r = 0 the
    one minor is 1, and no point is singular.

    Only points over GF(q) itself are examined, so an empty result is
    partial evidence of smoothness, not a proof (singularities may live
    in higher-degree extensions).
    """
    return _rational_points(spec, q, budget, _jacobian_minors(spec))


# ---------------------------------------------------------------------------
# orchestration

def count_variety(spec: VarietySpec, p: int, k: int = 1, method: str = "auto",
                  budget=None, cache=None) -> CountRecord:
    """Count with method dispatch and optional cache.

    method ``auto`` picks the structured counter for the builtins (fibered
    for S at every k, convolution for the k=1 fourfolds) and the generic
    oracle otherwise.  A cache hit is served only under ``auto`` or when
    its method is the one asked for, only if its count fits in the ambient
    space, and for a builtin only if it satisfies the Weil bound; otherwise
    the count is recomputed.  A count is appended only when the cache holds
    no record for its key: the first record of a key is the one every
    lookup reads, so a second could never be served.
    """
    builtin = _builtin_name(spec)
    hit = None
    if cache is not None:
        sha = spec.sha()
        hit = cache.get(sha, p, k)
        if (hit is not None and method in ("auto", hit.method)
                and hit.count <= _ambient_points(spec, p ** k)
                and _fits_weil_bound(builtin, hit.count, p ** k)):
            return hit
    is_s = builtin == "S"
    if method == "auto":
        if is_s:
            method = "fibered"
        elif k == 1:
            try:
                pairsum_groups(spec)
                method = "convolution"
            except ConvolutionStructureError:
                method = "generic"
        else:
            method = "generic"
    if method == "fibered":
        if not is_s:
            raise ValueError("fibered counter is specific to the builtin surface S")
        rec = count_S_fibered(p, k, budget)
    elif method == "convolution":
        if k != 1:
            raise ValueError("convolution counter only covers prime fields")
        rec = count_pairsum_convolution(spec, p, budget)
    elif method == "generic":
        rec = count_points_generic(spec, p ** k, budget=budget)
    else:
        raise ValueError(f"unknown method {method!r}")
    if cache is not None and hit is None:
        cache.put(sha, rec)
    return rec
