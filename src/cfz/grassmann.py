"""Pluecker coordinates and exhaustive search for linear subspaces
inside Grassmannians over tiny prime fields.

A point is its tuple of coordinates mod p, indexed by the sorted
(k+1)-subsets of {0..n}.  A nonzero vector of the exterior power is
decomposable exactly when the quadratic Pluecker relations vanish on it;
``grassmannian_points`` enumerates the Pluecker image of every subspace,
against which ``verify --suite pluecker`` checks that statement, and
``max_linear_subspace_dim`` finds the largest projective linear subspace
contained in the image.

Unlike the counting kernels, the linear algebra here runs over any prime
field including GF(2) and GF(3); nothing in it needs odd characteristic.
Its Pluecker coordinates are minors from ``linalg.det``, its elimination
is ``linalg.rref``/``nullspace`` mod q, and it needs no numpy.
"""

import math
from itertools import combinations, product
from typing import NamedTuple

from .fields import is_prime, projective_cardinality
from .linalg import det, nullspace, rref


def subset_index(k: int, n: int):
    """Sorted (k+1)-subsets of {0..n} and their positions."""
    subs = list(combinations(range(n + 1), k + 1))
    return subs, {s: i for i, s in enumerate(subs)}


def pluecker_relations(k: int, n: int):
    """The distinct quadratic relations cutting out Gr(k, n).

    Each relation is a tuple of (coeff, i, j) monomials on coordinate
    positions, normalized and deduplicated (the raw shuffle relations
    repeat each quadric many times).
    """
    subs, idx = subset_index(k, n)
    seen = set()
    out = []
    for head in combinations(range(n + 1), k):
        for tail in combinations(range(n + 1), k + 2):
            terms = {}
            for a, ja in enumerate(tail):
                if ja in head:
                    continue
                srt = tuple(sorted(head + (ja,)))
                sign_a = (-1) ** sum(1 for i in head if i > ja)
                rest = tail[:a] + tail[a + 1:]
                key = tuple(sorted((idx[srt], idx[rest])))
                terms[key] = terms.get(key, 0) + (-1) ** a * sign_a
            terms = {kk: c for kk, c in terms.items() if c}
            if not terms:
                continue
            first = min(terms)
            if terms[first] < 0:
                terms = {kk: -c for kk, c in terms.items()}
            canon = tuple(sorted((kk, c) for kk, c in terms.items()))
            if canon in seen:
                continue
            seen.add(canon)
            out.append(tuple((c, i, j) for (i, j), c in sorted(terms.items())))
    return out


def evaluate_relation(rel, coords, p):
    """The value mod p of one relation at a coordinate vector."""
    return sum(c * coords[i] * coords[j] for c, i, j in rel) % p


# ---------------------------------------------------------------------------
# exhaustive machinery over small prime fields

def echelon_subspaces(dim: int, ambient: int, p: int):
    """All dim-dimensional subspaces of GF(p)^ambient as reduced
    row-echelon bases (each subspace exactly once)."""
    for pivots in combinations(range(ambient), dim):
        free_cols = [c for c in range(ambient)
                     if c not in pivots]
        # entry (r, c) is free iff c > pivots[r] and c is not a pivot
        slots = [(r, c) for r in range(dim) for c in free_cols if c > pivots[r]]
        for vals in product(range(p), repeat=len(slots)):
            rows = [[0] * ambient for _ in range(dim)]
            for r, piv in enumerate(pivots):
                rows[r][piv] = 1
            for (r, c), v in zip(slots, vals):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)


def gaussian_binomial(a: int, b: int, q: int) -> int:
    num = den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def grassmannian_points(k: int, n: int, p: int):
    """Canonical Pluecker coordinates of every point of Gr(k, n)(GF(p)),
    together with the echelon basis of the corresponding subspace."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    subs, _ = subset_index(k, n)
    out = {}
    for rows in echelon_subspaces(k + 1, n + 1, p):
        minors = [det([[r[j] for j in s] for r in rows]) for s in subs]
        out[canonical_coords(minors, p)] = rows
    assert len(out) == gaussian_binomial(n + 1, k + 1, p)
    return out


def canonical_coords(coords, p):
    """coords mod p, scaled so that the first entry nonzero mod p is 1."""
    lead = next(c for c in coords if c % p)
    inv = pow(lead, p - 2, p)
    return tuple((c * inv) % p for c in coords)


class LemmaReport(NamedTuple):
    """Result of the exhaustive maximal-subspace search."""

    k: int
    n: int
    q: int
    max_dim: int
    witness_basis: tuple          # basis rows of the witness subspace, Pluecker coords
    families: tuple = ()          # (type, count) per classified maximal family

    def to_json(self) -> dict:
        return {
            "k": self.k, "n": self.n, "q": self.q, "max_dim": self.max_dim,
            "witness_basis": [list(r) for r in self.witness_basis],
            "families": [{"type": t, "count": c} for t, c in self.families],
        }


class SearchBudgetError(RuntimeError):
    pass


def max_linear_subspace_dim(k: int, n: int, q: int) -> LemmaReport:
    """Largest projective linear subspace of P^m(GF(q)) inside the
    decomposable locus, by exhaustion through one base point.

    The search grows linear cliques: a point of the locus extends a
    subspace already inside it iff the connecting line to every point of
    the subspace stays inside, so candidate sets shrink by intersecting
    adjacency sets, and subspaces are deduplicated by their point sets.

    PGL(n+1, q) acts transitively on the points of Gr(k, n), maps linear
    subspaces of the locus to such subspaces and keeps both family
    labels (each is a dimension), so it suffices to grow cliques from
    ``points[0]``; then only point 0 and its neighbours need adjacency.
    Counting pairs (point, maximal subspace through it) gives each
    family's total: npoints * (members through point 0) / |subspace|,
    with |subspace| = (q^(d+1) - 1)/(q - 1) points; the division is
    asserted exact.  The witness, the lexicographically least maximal
    subspace, contains point 0.

    When 2k < n - 1 the answer must be n - k and every maximal subspace
    the pencil of k-planes through a fixed (k-1)-plane; both facts are
    asserted.  The boundary case 2k = n - 1 (e.g. lines in P^3) is
    permitted and reports its maximal families without the assertion.

    Two points are adjacent iff the q - 1 other points of the line in
    P^m through them are points of the locus, each looked up by its
    ``canonical_coords`` in a dict from point to index.  The search
    refuses (``SearchBudgetError``) past 5000 points.
    """
    if not (0 < k < n):
        raise ValueError("need 0 < k < n")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    npoints = gaussian_binomial(n + 1, k + 1, q)
    m = math.comb(n + 1, k + 1) - 1
    if npoints > 5000:
        raise SearchBudgetError(
            f"Gr({k},{n})(GF({q})) has {npoints} points in P^{m}; beyond the search budget")

    points_map = grassmannian_points(k, n, q)
    points = sorted(points_map)
    index = {pt: i for i, pt in enumerate(points)}

    # adjacency among point 0 and its neighbours (every point of a subspace
    # through point 0 is one) and, for each adjacent pair, their line
    neighbors = {0: set()}
    line_pts = {}

    def join(i, later):
        a = points[i]
        for j in later:
            b = points[j]
            line = {i, j}
            for lam in range(1, q):
                pt = index.get(canonical_coords([x + lam * y for x, y in zip(a, b)], q))
                if pt is None:
                    break
                line.add(pt)
            else:
                neighbors[i].add(j)
                neighbors.setdefault(j, set()).add(i)
                line_pts[(i, j)] = line_pts[(j, i)] = frozenset(line)

    join(0, range(1, npoints))
    near = sorted(neighbors[0])
    for a, i in enumerate(near):
        join(i, near[a + 1:])

    level = {frozenset({0}): ((points[0],), neighbors[0])}
    best_dim = 0
    best = level
    while True:
        nxt = {}
        for pset, (basis, cands) in level.items():
            for c in cands:
                tpts = set(pset)
                tpts.add(c)
                for s in pset:
                    tpts |= line_pts[(s, c)]
                added = tpts - pset
                # canonical chain: only build each subspace from its sorted chain
                if min(added) != c:
                    continue
                tkey = frozenset(tpts)
                if tkey in nxt:
                    continue
                new_cands = cands & neighbors[c]
                for pt in added:
                    if pt != c:
                        new_cands = new_cands & neighbors[pt]
                nxt[tkey] = (basis + (points[c],), new_cands - tkey)
        if not nxt:
            break
        level = nxt
        best_dim += 1
        best = level

    size = projective_cardinality(q, best_dim)
    families = []
    for label, through0 in _classify_families(best, points_map, points, k, n, q):
        total, rest = divmod(npoints * through0, size)
        assert not rest, (label, npoints, through0, size)
        families.append((label, total))
    families = tuple(families)
    witness_key = min(best, key=sorted)
    witness = best[witness_key][0]
    if 2 * k < n - 1:
        assert best_dim == n - k, f"expected max dim {n - k}, found {best_dim}"
        assert all(t == "pencil-through-fixed-plane" for t, _ in families), families
    return LemmaReport(k, n, q, best_dim, witness, families)


def _classify_families(best, points_map, points, k, n, q):
    # a family is labelled by two dimensions only: the common subspace of
    # its members, (n + 1) - rank of their stacked annihilators, and the
    # span of their rows
    counts = {}
    for pset in best:
        subspaces = [points_map[points[i]] for i in pset]
        normals = [v for s in subspaces for v in nullspace(s, n + 1, q)]
        if n + 1 - len(rref(normals, q)[1]) >= k:
            label = "pencil-through-fixed-plane"
        elif len(rref([r for s in subspaces for r in s], q)[1]) <= k + 2:
            label = "inside-fixed-plane"
        else:
            label = "other"
        counts[label] = counts.get(label, 0) + 1
    return tuple(sorted(counts.items()))
