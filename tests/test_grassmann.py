import math
import random
from itertools import combinations, permutations, product

import pytest

from cfz.grassmann import (LemmaReport, SearchBudgetError,
                           _classify_families, canonical_coords,
                           echelon_subspaces, evaluate_relation, gaussian_binomial,
                           grassmannian_points, max_linear_subspace_dim,
                           pluecker_relations)


def _relations_vanish(k, n, coords, p):
    return all(evaluate_relation(rel, coords, p) == 0 for rel in pluecker_relations(k, n))


def _in_image(k, n, coords, p):
    return canonical_coords(coords, p) in grassmannian_points(k, n, p)


def _coords(k, n, entries):
    """Coordinate tuple from {index set: value}, zero elsewhere."""
    return tuple(entries.get(s, 0) for s in combinations(range(n + 1), k + 1))


def test_relation_counts():
    assert len(pluecker_relations(1, 3)) == 1
    assert len(pluecker_relations(1, 4)) == 5
    assert pluecker_relations(0, 4) == []


def test_klein_quadric_relation():
    (rel,) = pluecker_relations(1, 3)
    # p01*p23 - p02*p13 + p03*p12, indices in lexicographic subset order
    assert sorted(rel) == [(-1, 1, 4), (1, 0, 5), (1, 2, 3)]


def test_decomposable_examples():
    line = _coords(1, 3, {(0, 1): 1})
    assert _leibniz_wedge([(1, 0, 0, 0), (0, 1, 0, 0)], 3) == list(line)
    joined = _coords(1, 3, {(0, 1): 1, (0, 2): 1})
    assert _leibniz_wedge([(1, 0, 0, 0), (1, 1, 1, 0)], 3) == list(joined)
    for p in (2, 5):
        for coords in (line, joined):
            assert _relations_vanish(1, 3, coords, p) and _in_image(1, 3, coords, p)


def test_rank_zero_always_decomposable():
    for coords in product(range(3), repeat=4):
        if any(coords):
            assert _relations_vanish(0, 3, coords, 3) and _in_image(0, 3, coords, 3)


def test_search_oracle_rejects_sum_of_skew_lines():
    skew = _coords(1, 3, {(0, 1): 1, (2, 3): 1})
    for p in (2, 5):
        assert not _in_image(1, 3, skew, p)
        assert not _relations_vanish(1, 3, skew, p)


def test_echelon_subspace_counts():
    for (d, a, q) in [(1, 4, 2), (2, 4, 2), (2, 5, 3), (3, 4, 3)]:
        got = sum(1 for _ in echelon_subspaces(d, a, q))
        assert got == gaussian_binomial(a, d, q)


@pytest.mark.parametrize("k,n,q", [(1, 3, 2), (1, 3, 3), (1, 4, 2), (1, 4, 3)])
def test_two_sided_decomposability_exhaustive(k, n, q):
    # relation-vanishing and frame membership agree on every nonzero vector
    pts = grassmannian_points(k, n, q)
    rels = pluecker_relations(k, n)
    m1 = len(next(iter(pts)))
    for coords in product(range(q), repeat=m1):
        if not any(coords):
            continue
        sat = all(evaluate_relation(rel, coords, q) == 0 for rel in rels)
        assert sat == (canonical_coords(coords, q) in pts)


def test_canonical_coords_takes_the_first_entry_nonzero_mod_p():
    assert canonical_coords([3, 1, 2], 3) == (0, 1, 2)
    assert canonical_coords([6, -2, 8], 3) == (0, 1, 2)
    assert canonical_coords([4, 0, 9], 2) == (0, 0, 1)
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(200):
            v = [rng.randint(-3 * p, 3 * p) for _ in range(4)]
            if all(c % p == 0 for c in v):
                continue
            assert canonical_coords(v, p) == canonical_coords([c % p for c in v], p)


def test_grassmannian_point_counts():
    assert len(grassmannian_points(1, 3, 2)) == 35
    assert len(grassmannian_points(1, 4, 2)) == 155
    assert len(grassmannian_points(1, 4, 3)) == 1210


def _leibniz_wedge(rows, n):
    """The maximal minors of the rows, in the order of the sorted column
    subsets, each as sum over permutations s of sign(s) * prod rows[i][c[s(i)]]."""
    def sign(perm):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        return -1 if inversions % 2 else 1

    d = len(rows)
    return [sum(sign(s) * math.prod(rows[i][cols[s[i]]] for i in range(d))
                for s in permutations(range(d)))
            for cols in combinations(range(n + 1), d)]


@pytest.mark.parametrize("k, n, q", [(1, 3, 2), (1, 3, 3), (1, 4, 2), (1, 4, 3),
                                     (2, 4, 2), (1, 5, 2)])
def test_grassmannian_points_are_the_canonical_wedges(k, n, q):
    # reference: each echelon basis wedged by the Leibniz formula, each
    # maximal minor a signed sum over permutations; the points, their
    # bases and their order agree
    wedges = {canonical_coords(_leibniz_wedge(rows, n), q): rows
              for rows in echelon_subspaces(k + 1, n + 1, q)}
    assert list(grassmannian_points(k, n, q).items()) == list(wedges.items())


def test_grassmannian_points_refuse_non_prime_p():
    with pytest.raises(ValueError, match="4 is not prime"):
        grassmannian_points(1, 3, 4)


def test_max_subspace_lines_in_p4_gf2():
    r = max_linear_subspace_dim(1, 4, 2)
    assert r.max_dim == 3
    assert dict(r.families) == {"pencil-through-fixed-plane": 31}
    assert len(r.witness_basis) == 4
    for row in r.witness_basis:
        assert _relations_vanish(1, 4, row, 2) and _in_image(1, 4, row, 2)


def test_max_subspace_lines_in_p4_gf3():
    r = max_linear_subspace_dim(1, 4, 3)
    assert r.max_dim == 3
    assert dict(r.families) == {"pencil-through-fixed-plane": 121}


def test_max_subspace_boundary_case_two_families():
    r = max_linear_subspace_dim(1, 3, 2)
    assert r.max_dim == 2
    assert dict(r.families) == {"pencil-through-fixed-plane": 15,
                                "inside-fixed-plane": 15}


def test_search_budget_guard():
    with pytest.raises(SearchBudgetError) as e:
        max_linear_subspace_dim(2, 5, 3)
    assert "33880" in str(e.value)


def test_report_json_shape():
    r = max_linear_subspace_dim(1, 3, 2)
    j = r.to_json()
    assert set(j) == {"k", "n", "q", "max_dim", "witness_basis", "families"}
    assert j["max_dim"] == 2
    assert isinstance(r, LemmaReport)


def _all_starts_search(k, n, q):
    """Reference: grow linear cliques from every point of Gr(k, n)(GF(q)),
    with adjacency over all pairs; returns max_dim, witness basis and the
    family counts, each maximal subspace counted once."""
    points_map = grassmannian_points(k, n, q)
    points = sorted(points_map)
    index = {pt: i for i, pt in enumerate(points)}
    neighbors = [set() for _ in points]
    line_pts = {}
    for i, a in enumerate(points):
        for j in range(i + 1, len(points)):
            b = points[j]
            line = {i, j}
            for lam in range(1, q):
                line.add(index.get(canonical_coords(
                    [(x + lam * y) % q for x, y in zip(a, b)], q)))
            if None not in line:
                neighbors[i].add(j)
                neighbors[j].add(i)
                line_pts[(i, j)] = line_pts[(j, i)] = frozenset(line)
    level = {frozenset({i}): ((points[i],), neighbors[i]) for i in range(len(points))}
    best_dim, best = 0, level
    while True:
        nxt = {}
        for pset, (basis, cands) in level.items():
            for c in cands:
                tpts = set(pset)
                tpts.add(c)
                for s in pset:
                    tpts |= line_pts[(s, c)]
                added = tpts - pset
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
        level, best_dim, best = nxt, best_dim + 1, nxt
    witness = best[min(best, key=sorted)][0]
    return best_dim, witness, _classify_families(best, points_map, points, k, n, q)


@pytest.mark.parametrize("k,n,q", [(1, 3, 2), (1, 4, 2), (1, 3, 3), (2, 4, 2)])
def test_base_point_search_matches_all_starts(k, n, q):
    r = max_linear_subspace_dim(k, n, q)
    assert (r.max_dim, r.witness_basis, r.families) == _all_starts_search(k, n, q)


@pytest.mark.parametrize("q", [-3, 0, 1, 4, 9])
def test_search_rejects_non_prime_q(q):
    with pytest.raises(ValueError) as e:
        max_linear_subspace_dim(1, 3, q)
    assert f"{q} is not prime" in str(e.value)
