"""Pluecker coordinates, decomposability, and exhaustive search for
linear subspaces inside Grassmannians over tiny fields.

Coordinates are indexed by the sorted (k+1)-subsets of {0..n}.  A vector
of the exterior power is decomposable exactly when the quadratic
Pluecker relations vanish; over GF(2) and GF(3) this module also checks
that statement the hard way, by enumerating all subspaces, and finds the
largest projective linear subspace contained in the Pluecker image.

Unlike the counting kernels, the linear algebra here runs over any prime
field including GF(2) and GF(3); nothing in it needs odd characteristic.
Its elimination is ``linalg.rref``/``nullspace`` on encodings, through
the prime tables of ``_prime_tables`` (``fields.field_tables`` rejects
characteristic 2 and 3 on purpose).
"""

from itertools import combinations, product
from typing import NamedTuple

from .fields import is_prime
from .linalg import det, nullspace, rref


def subset_index(k: int, n: int):
    """Sorted (k+1)-subsets of {0..n} and their positions."""
    subs = list(combinations(range(n + 1), k + 1))
    return subs, {s: i for i, s in enumerate(subs)}


class PlueckerVector:
    """Element of the (k+1)-st exterior power of an (n+1)-space, with
    integer coordinates taken mod p when p is given (p may be 2 or 3)."""

    def __init__(self, k: int, n: int, coords, p=None):
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        if p is not None and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.k, self.n, self.p = k, n, p
        subs, idx = subset_index(k, n)
        if isinstance(coords, dict):
            vals = [0] * len(subs)
            for key, v in coords.items():
                key = tuple(sorted(key))
                if key not in idx:
                    raise ValueError(f"bad index set {key}")
                vals[idx[key]] = v
            coords = vals
        coords = list(coords)
        if len(coords) != len(subs):
            raise ValueError(f"expected {len(subs)} coordinates, got {len(coords)}")
        if p is not None:
            coords = [c % p for c in coords]
        self.coords = tuple(coords)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    @classmethod
    def from_frame(cls, k, n, rows, p=None):
        """Wedge of k+1 integer row vectors: coordinates are the maximal minors."""
        rows = [list(r) for r in rows]
        if len(rows) != k + 1 or any(len(r) != n + 1 for r in rows):
            raise ValueError("frame must be k+1 vectors of length n+1")
        subs, _ = subset_index(k, n)
        coords = []
        for s in subs:
            minor = det([[rows[i][j] for j in s] for i in range(k + 1)])
            coords.append(minor % p if p is not None else minor)
        return cls(k, n, coords, p)

    def __repr__(self):
        return f"PlueckerVector(k={self.k}, n={self.n}, {self.coords})"


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


def evaluate_relation(rel, coords, p=None):
    total = sum(c * coords[i] * coords[j] for c, i, j in rel)
    return total % p if p is not None else total


def is_decomposable(v: PlueckerVector) -> bool:
    """True iff v is a wedge of k+1 vectors: all Pluecker relations vanish."""
    if v.is_zero:
        raise ValueError("the zero vector is not a point of projective space")
    return all(evaluate_relation(rel, v.coords, v.p) == 0
               for rel in pluecker_relations(v.k, v.n))


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
    out = {}
    for rows in echelon_subspaces(k + 1, n + 1, p):
        v = PlueckerVector.from_frame(k, n, rows, p)
        out[canonical_coords(v.coords, p)] = rows
    assert len(out) == gaussian_binomial(n + 1, k + 1, p)
    return out


def canonical_coords(coords, p):
    lead = next(c for c in coords if c)
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
    """
    import numpy as np

    if not (0 < k < n):
        raise ValueError("need 0 < k < n")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    npoints = gaussian_binomial(n + 1, k + 1, q)
    m = len(subset_index(k, n)[0]) - 1
    if npoints > 5000 or q ** (m + 1) > 2_000_000:
        raise SearchBudgetError(
            f"Gr({k},{n})(GF({q})) has {npoints} points in P^{m}; beyond the search budget")

    points_map = grassmannian_points(k, n, q)
    points = sorted(points_map)
    arr = np.array(points, dtype=np.int64)
    inv_table = np.array(_prime_tables(q)[3], dtype=np.int64)
    pows = np.array([q ** t for t in range(m, -1, -1)], dtype=np.int64)
    lut = np.full(q ** (m + 1), -1, dtype=np.int64)
    lut[arr @ pows] = np.arange(npoints)

    def canon_rows(rows):
        rows = rows % q
        first = (rows != 0).argmax(axis=1)
        lead = rows[np.arange(len(rows)), first]
        return (rows * inv_table[lead][:, None]) % q

    # adjacency among point 0 and its neighbours (every point of a subspace
    # through point 0 is one) and, for each adjacent pair, their line
    neighbors = {0: set()}
    line_pts = {}

    def join(i, later):
        ok = np.ones(len(later), dtype=bool)
        lam_idx = []
        for lam in range(1, q):
            idxs = lut[canon_rows(arr[i] + lam * arr[later]) @ pows]
            lam_idx.append(idxs)
            ok &= idxs >= 0
        for off in np.nonzero(ok)[0]:
            j = later[off]
            neighbors[i].add(j)
            neighbors.setdefault(j, set()).add(i)
            line = frozenset({i, j} | {int(l[off]) for l in lam_idx})
            line_pts[(i, j)] = line_pts[(j, i)] = line

    join(0, list(range(1, npoints)))
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

    size = (q ** (best_dim + 1) - 1) // (q - 1)
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


def _prime_tables(q):
    """mul, add, neg, inv of GF(q) for any prime q, GF(2) and GF(3) included,
    as the list tables ``linalg.rref`` takes."""
    r = range(q)
    return ([[a * b % q for b in r] for a in r], [[(a + b) % q for b in r] for a in r],
            [-a % q for a in r], [pow(a, q - 2, q) if a else 0 for a in r])


def _classify_families(best, points_map, points, k, n, q):
    # a family is labelled by two dimensions only: the common subspace of
    # its members, (n + 1) - rank of their stacked annihilators, and the
    # span of their rows
    tables = _prime_tables(q)
    counts = {}
    for pset in best:
        subspaces = [points_map[points[i]] for i in pset]
        normals = [v for s in subspaces for v in nullspace(s, n + 1, tables)]
        if n + 1 - len(rref(normals, tables)[1]) >= k:
            label = "pencil-through-fixed-plane"
        elif len(rref([r for s in subspaces for r in s], tables)[1]) <= k + 2:
            label = "inside-fixed-plane"
        else:
            label = "other"
        counts[label] = counts.get(label, 0) + 1
    return tuple(sorted(counts.items()))
