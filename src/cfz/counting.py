"""Point counting for varieties in products of projective spaces.

Every function here takes and returns integer encodings of field
elements and does its arithmetic through the one table set of
``fields.field_tables`` (mul, add, neg, inv, chi); ``points_on_variety``
and ``smoothness_scan`` return one flat tuple of encodings per point, the
coordinates of all blocks in the spec's variable order.  Three counters
with very different shapes, kept deliberately independent so they can
cross-check each other:

* ``count_points_generic`` is the brute-force oracle: it walks the full
  product of canonical projective points and tests every defining
  polynomial for zero, gathering table entries through numpy.  A term is
  one row-then-column gather from ``spread_mul``, which holds each
  product in spread form (its base-p digits in base-B slots wide enough
  for a sum of g terms), so the terms add as plain int64 sums and one
  ``fold`` lookup per g terms maps the slot sums back to the encoding of
  the field sum; ``fold[acc] == 0`` is the zero test.  The first equation
  is tested on the whole grid, each later one only at the cells where the
  earlier ones vanish, about 1/q of them.  The oracle streams over block
  0: each slice of block 0's points, times all points of the later
  blocks, spans about CHUNK_CELLS = 2^17 grid cells, and block 0 itself
  is enumerated slice by slice.  Memory is therefore bounded by a few
  chunk-sized int64 grids plus arrays the size of the later blocks (their
  points, and each term's monomial values on them): ~3 MiB for the
  builtin surface over GF(49), whatever the evaluation budget allows.
  ``points_on_variety`` and ``smoothness_scan`` collect their points
  through the same slices, in the order of the full enumeration.

* ``count_S_fibered`` exploits the structure of the builtin K3 surface S:
  for each point [x:y:z] of the first P^2 the second equation cuts a line
  in the second P^2, and the first equation restricts to a binary
  quadratic on that line, whose discriminant is -xyz(x^3 + y^3 + z^3) up
  to a nonzero square.  The counter sums the quadratic character of that
  value over the base, row by row through list tables, and counts the
  O(q) fibers where it vanishes (on xyz = 0 or on the Fermat cubic curve)
  one by one with ``_s_fiber_count``, which counts the zeros of the
  restriction through ``fields.quadratic_root_count`` and so also sees the
  fibers where it vanishes identically, a full line of q + 1 points.  One
  loop serves GF(p^k) for every k.

* ``count_pairsum_convolution`` handles hypersurfaces whose equation is a
  sum of forms in disjoint variable groups of size at most two (the
  builtin fourfolds X and the Fermat cubic): it builds one value
  histogram per group over the affine field, convolves additively, and
  converts the affine cone count to a projective count.

All counts are exact integers; the affine-to-projective step divides
(N_affine - 1) by (p - 1) and verifies exactness.

numpy is imported inside the generic oracle's kernels only, which convert
the list tables once (the mul table, or all of them through
``FieldTables.arrays``), so a count served from the cache, by the fibered
counter or by the convolution counter never loads it.
"""

import json
import math
import operator
import os
from functools import lru_cache
from itertools import islice, product
from typing import NamedTuple

from .fields import (check_good_prime, enumerate_projective, field_of_order,
                     field_tables, projective_cardinality, quadratic_root_count)
from .linalg import rref
from .polynomials import parse_poly
from .zeta import FOURFOLD_B4, K3_B2

DEFAULT_BUDGET = 10 ** 9
# cells of the product grid the generic oracle evaluates at once; each
# int64 grid of this size is 1 MiB
CHUNK_CELLS = 1 << 17
COUNT_METHODS = ("generic", "fibered", "convolution")


class CountBudgetError(RuntimeError):
    """Enumeration would exceed the configured budget."""


class ConvolutionStructureError(ValueError):
    """Equation is not a sum of forms in disjoint variable groups of size <= 2."""


def enumeration_budget(budget=None) -> int:
    if budget is not None:
        return int(budget)
    return int(os.environ.get("CFZ_BUDGET", DEFAULT_BUDGET))


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
        blocks = [tuple(b) for b in d["vars"]]
        if "ambient" in d and [len(b) - 1 for b in blocks] != list(d["ambient"]):
            raise ValueError("ambient dimensions do not match variable blocks")
        polys = [parse_poly(t, blocks) for t in d["polys"]]
        return cls(d["name"], blocks, polys)

    @classmethod
    def from_file(cls, path) -> "VarietySpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def sha(self) -> str:
        """Content hash of the canonical spec, used as the cache key."""
        import hashlib

        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

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


def builtin_variety(name: str) -> VarietySpec:
    if name not in _BUILTIN_SOURCES:
        raise KeyError(f"unknown builtin variety {name!r}; have {sorted(_BUILTIN_SOURCES)}")
    return VarietySpec.from_dict(_BUILTIN_SOURCES[name])


@lru_cache(maxsize=None)
def _builtin_sha(name: str) -> str:
    """Content hash of a builtin, computed once on first use."""
    return builtin_variety(name).sha()


def _fits_weil_bound(sha: str, count: int, q: int) -> bool:
    """Whether a count over GF(q) is possible for the variety with this sha.

    A builtin of dimension d = 2m has one cohomology class in each even
    degree 2i != 2m, on which Frobenius acts by q^i, and middle Betti number
    b, so |N - sum_{i != m} q^i| <= b q^m.  Any count passes for a custom
    variety, whose cohomology is unknown."""
    for name, (d, b) in _BUILTIN_COHOMOLOGY.items():
        if sha == _builtin_sha(name):
            m = d // 2
            return abs(count - sum(q ** i for i in range(d + 1) if i != m)) <= b * q ** m
    return True


# ---------------------------------------------------------------------------
# generic oracle over the full product of projective spaces

def _block_point_arrays(q, dims):
    import numpy as np

    return [np.array(list(enumerate_projective(q, n)), dtype=np.int64) for n in dims]


def _monomial_values(exps, coords, mul):
    """Encodings of the monomial with exponents exps at each row of coords."""
    import numpy as np

    mono = None
    for i, e in enumerate(exps):
        for _ in range(e):
            mono = coords[:, i] if mono is None else mul[mono, coords[:, i]]
    return np.ones(len(coords), dtype=np.int64) if mono is None else mono


def _equation_terms(spec, rest, p, mul):
    """Each nonzero equation as its list of terms (coefficient, block-0
    exponents, encodings of the term's monomial on each later block's
    points rest[0], rest[1], ...)."""
    equations = []
    for mh in spec.polys:
        if mh.poly.is_zero:
            continue
        (lo0, hi0), *slices = mh.block_slices()
        equations.append([
            (coeff % p, exps[lo0:hi0],
             [_monomial_values(exps[lo:hi], pts, mul) for (lo, hi), pts in zip(slices, rest)])
            for exps, coeff in mh.poly.sorted_terms()])
    return equations


def _spread_tables(field, mul, nterms):
    """The derived tables of the zero test: (g, spread_mul, fold).

    A sum of products is kept in spread form: an encoding sum d_i p^i is
    written sum d_i B^i, its base-p digits in base-B slots with
    B = g(p - 1) + 1, so up to g spread values add slot by slot without a
    carry.  spread_mul holds the spread form of every product, and fold
    maps a slot sum back to the encoding of the field sum, each slot
    reduced mod p.  g is the most terms of an equation, capped at p + 1 so
    that fold, with B^k entries, is no larger than mul."""
    p, k = field.char, field.degree
    g = min(nterms, p + 1)
    base = g * (p - 1) + 1
    spread = _rebase(field.order, p, base, k, p)
    return g, spread[mul], _rebase(base ** k, base, p, k, p)


def _rebase(n, src, dst, k, p):
    """Entry s < n: the k base-src digits of s, each mod p, as base-dst digits."""
    import numpy as np

    s = np.arange(n, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for i in range(k):
        out += s % src % p * dst ** i
        s //= src
    return out


def _times(table, value, col, cells):
    """table[value, col]: on the grid, the rows of value then their columns
    col, one contiguous gather per row; at cells, one entry per cell."""
    import numpy as np

    if cells is None:
        return np.take(table[value], col, axis=-1)
    return table[value, col]


def _term_on(term, head, cells, mul, spread_mul):
    """Spread form of one term (coefficient, block-0 exponents, monomial
    values on each later block) on the grid of head times the later blocks
    when cells is None, else at cells, one index array per block: every
    factor but the last multiplies through mul, the last through
    spread_mul."""
    coeff, exps0, monos = term
    if cells is None:
        cols = [_monomial_values(exps0, head, mul)] + monos
    else:
        cols = [_monomial_values(exps0, head[cells[0]], mul)] + [
            m[i] for m, i in zip(monos, cells[1:])]
    value = coeff
    for col in cols[:-1]:
        value = _times(mul, value, col, cells)
    return _times(spread_mul, value, cols[-1], cells)


def _equation_zero(terms, head, cells, mul, spread):
    """Where one equation vanishes, on the grid or at cells as in
    ``_term_on``: its terms add as int64 slot sums, folded every g terms."""
    import numpy as np

    g, spread_mul, fold = spread
    acc, held = _term_on(terms[0], head, cells, mul, spread_mul), 1
    for term in terms[1:]:
        if held == g:  # row 1 of spread_mul spreads an encoding
            acc, held = spread_mul[1][np.take(fold, acc)], 1
        acc += _term_on(term, head, cells, mul, spread_mul)
        held += 1
    return np.take(fold, acc) == 0


def _zero_masks(spec, field, mul):
    """The zero set of the equations, through the mul table as an array,
    one slice of block 0 at a time.

    Yields (blocks, mask): the point arrays of the slice of block 0 and of
    every later block, and the boolean grid over their product where every
    equation vanishes.  The first equation is evaluated on the whole grid,
    each later one only at the cells where all before it vanish.  A slice
    spans about CHUNK_CELLS grid cells, and block 0 is enumerated slice by
    slice, so memory is bounded by the chunk and the later blocks' point
    arrays, whatever the budget allows."""
    import numpy as np

    q = field.order
    rest = _block_point_arrays(q, spec.ambient[1:])
    equations = _equation_terms(spec, rest, field.char, mul)
    spread = _spread_tables(field, mul, max(map(len, equations), default=1))
    # a later block's gather briefly holds q cells per cell of the grid
    # before it, which only a P^0 block (one point, fewer than q) makes larger
    per_point = math.prod(max(len(a), q) for a in rest)
    step = max(1, CHUNK_CELLS // per_point)
    points0 = enumerate_projective(q, spec.ambient[0])
    while True:
        head = np.array(list(islice(points0, step)), dtype=np.int64)
        if not len(head):
            return
        if not equations:
            mask = np.ones([len(head)] + [len(a) for a in rest], dtype=bool)
        else:
            mask = _equation_zero(equations[0], head, None, mul, spread)
            survivors = np.flatnonzero(mask)
            for terms in equations[1:]:
                cells = np.unravel_index(survivors, mask.shape)
                zero = _equation_zero(terms, head, cells, mul, spread)
                mask.flat[survivors[~zero]] = False
                survivors = survivors[zero]
        yield [head] + rest, mask


def _ambient_points(spec, q) -> int:
    total = 1
    for n in spec.ambient:
        total *= projective_cardinality(q, n)
    return total


def _check_budget(spec, q, budget):
    total = _ambient_points(spec, q)
    nterms = sum(len(mh.poly.terms) for mh in spec.polys)
    cost = total * max(1, nterms)
    limit = enumeration_budget(budget)
    if cost > limit:
        raise CountBudgetError(
            f"{spec.name} over GF({q}): {cost} primitive evaluations exceed budget {limit}")


def count_points_generic(spec: VarietySpec, q: int, budget=None) -> CountRecord:
    """Exact point count by full enumeration of the product of canonical points."""
    import numpy as np

    field = field_of_order(q)
    _check_budget(spec, q, budget)
    mul = np.array(field_tables(field).mul, dtype=np.int64)
    count = sum(int(np.count_nonzero(mask)) for _, mask in _zero_masks(spec, field, mul))
    return CountRecord(spec.name, field.char, field.degree, count, "generic")


def _rational_points(spec: VarietySpec, q: int, budget):
    """The field, its table set as arrays, and the encodings of all
    rational points: one row per point, the coordinates of all blocks side
    by side, in the order of the product enumeration."""
    import numpy as np

    field = field_of_order(q)
    _check_budget(spec, q, budget)
    tables = field_tables(field).arrays()
    found = []
    for blocks, mask in _zero_masks(spec, field, tables.mul):
        idx = np.argwhere(mask)
        found.append(np.concatenate([a[idx[:, b]] for b, a in enumerate(blocks)], axis=1))
    return field, tables, np.concatenate(found)


def points_on_variety(spec: VarietySpec, q: int, budget=None):
    """All rational points, one flat tuple of coordinate encodings each."""
    return list(map(tuple, _rational_points(spec, q, budget)[2].tolist()))


# ---------------------------------------------------------------------------
# fibered counter for the builtin surface S

def _s_fiber_count(xyz, tables) -> int:
    """Points of S above one base point [x:y:z]: zeros of the first equation
    on the line cut by the second.  Encodings in, list tables."""
    mul, add, neg, inv, _ = tables
    x, y, z = xyz
    c0, c1, c2 = mul[x][x], mul[y][y], mul[z][z]
    # two points spanning the line c0*u + c1*v + c2*w = 0
    if c0:
        s = inv[c0]
        b1, b2 = (neg[mul[c1][s]], 1, 0), (neg[mul[c2][s]], 0, 1)
    elif c1:
        b1, b2 = (1, 0, 0), (0, neg[mul[c2][inv[c1]]], 1)
    else:
        b1, b2 = (1, 0, 0), (0, 1, 0)

    def form(u, v):  # polar form of x*u^2 + y*v^2 + z*w^2
        return add[add[mul[x][mul[u[0]][v[0]]]][mul[y][mul[u[1]][v[1]]]]][
            mul[z][mul[u[2]][v[2]]]]

    # the restriction is qa*U^2 + 2*cross*UV + qc*V^2
    return quadratic_root_count(form(b1, b1), mul[2][form(b1, b2)], form(b2, b2), tables)


def count_S_fibered(p: int, k: int = 1) -> CountRecord:
    """Count S(GF(p^k)) fiberwise over the first P^2.

    Up to a nonzero square, the discriminant of the fiber above [x:y:z] is
    -xyz(x^3 + y^3 + z^3), so a fiber where c = xyz(x^3 + y^3 + z^3) is
    nonzero has 1 + chi(-1) chi(c) points.  Since chi is multiplicative,
    the chart x = 1 sums chi(y) chi(z) chi(1 + y^3 + z^3) row by row.  The
    O(q) base points with c = 0, on xyz = 0 or on the Fermat cubic curve,
    are counted exactly by ``_s_fiber_count``."""
    q = p ** k
    tables = field_tables(field_of_order(q))
    mul, add, neg, _, chi = tables
    cube = [mul[mul[z][z]][z] for z in range(q)]
    cube_roots = {}
    for z in range(1, q):
        cube_roots.setdefault(cube[z], []).append(z)
    # the line x = 0 and the row y = 0 of the chart lie on xyz = 0
    degenerate = [(0, 0, 1)] + [(0, 1, z) for z in range(q)] + [(1, 0, z) for z in range(q)]
    char_sum = 0
    for y in range(1, q):
        row = add[add[1][cube[y]]]  # 1 + y^3 + (.)
        degenerate.append((1, y, 0))
        degenerate += [(1, y, z) for z in cube_roots.get(neg[row[0]], ())]
        char_sum += chi[y] * sum(map(operator.mul, chi,
                                     map(chi.__getitem__, map(row.__getitem__, cube))))
    generic = q * q - (len(degenerate) - q - 1)  # chart points off c = 0
    total = generic + chi[neg[1]] * char_sum
    total += sum(_s_fiber_count(pt, tables) for pt in degenerate)
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
    """H[v] = number of affine assignments of the group variables with value v."""
    hist = [0] * p
    for assign in product(range(p), repeat=len(var_idx)):
        val = 0
        for exps, c in terms:
            t = c
            for pos, i in enumerate(var_idx):
                t *= pow(assign[pos], exps[i], p) if exps[i] else 1
            val += t
        hist[val % p] += 1
    return hist


def _convolve_mod(a, b, p):
    out = [0] * p
    for s in range(p):
        acc = 0
        for v in range(p):
            acc += a[v] * b[(s - v) % p]
        out[s] = acc
    return out


def count_pairsum_convolution(spec: VarietySpec, p: int) -> CountRecord:
    """O(p^2) count of a pair-sum hypersurface via histogram convolution."""
    check_good_prime(p)
    mh, groups = pairsum_groups(spec)
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

def smoothness_scan(spec: VarietySpec, q: int, budget=None):
    """Rational points where the local Jacobian drops below full rank.

    Only points over GF(q) itself are examined, so an empty result is
    partial evidence of smoothness, not a proof (singularities may live
    in higher-degree extensions).
    """
    field, tables, coords = _rational_points(spec, q, budget)
    polys = [mh.poly for mh in spec.polys if not mh.poly.is_zero]
    # partials[r][c][n]: d(poly r)/d(variable c) at point n
    partials = [[_values_on_points(f.derivative(c), coords, field.char, tables).tolist()
                 for c in range(coords.shape[1])] for f in polys]
    lists = field_tables(field)
    slices = []
    start = 0
    for b in spec.blocks:
        slices.append((start, start + len(b)))
        start += len(b)
    bad = []
    for n, row in enumerate(coords.tolist()):
        # local chart: drop the leading (=1) coordinate of each block
        local_cols = []
        for lo, hi in slices:
            lead = next(i for i in range(lo, hi) if row[i])
            local_cols.extend(i for i in range(lo, hi) if i != lead)
        jac = [[partials[r][c][n] for c in local_cols] for r in range(len(polys))]
        if len(rref(jac, lists)[1]) < len(polys):
            bad.append(tuple(row))
    return bad


def _values_on_points(poly, coords, p, tables):
    """Encodings of poly at each row of coords."""
    import numpy as np

    acc = np.zeros(len(coords), dtype=np.int64)
    for exps, c in poly.terms.items():
        acc = tables.add[acc, tables.mul[c % p, _monomial_values(exps, coords, tables.mul)]]
    return acc


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
    sha = spec.sha()
    hit = None
    if cache is not None:
        hit = cache.get(sha, p, k)
        if (hit is not None and method in ("auto", hit.method)
                and hit.count <= _ambient_points(spec, p ** k)
                and _fits_weil_bound(sha, hit.count, p ** k)):
            return hit
    is_s = sha == _builtin_sha("S")
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
        rec = count_S_fibered(p, k)
    elif method == "convolution":
        if k != 1:
            raise ValueError("convolution counter only covers prime fields")
        rec = count_pairsum_convolution(spec, p)
    elif method == "generic":
        rec = count_points_generic(spec, p ** k, budget=budget)
    else:
        raise ValueError(f"unknown method {method!r}")
    if cache is not None and hit is None:
        cache.put(sha, rec)
    return rec
