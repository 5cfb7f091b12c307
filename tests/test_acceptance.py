"""Acceptance criteria, one test per criterion, each printing a pass/fail
line (run with -s to see them on success).  All comparisons are exact;
the time limits are wall-clock bounds on the fresh computation inside
the criterion.
"""

import time
from itertools import product

import numpy as np

from cfz.cmforms import ap_base, ap_via_eisenstein, identify_form
from cfz.counting import (builtin_variety, count_fermat_cubic,
                          count_pairsum_convolution, count_points_generic,
                          count_S_fibered, points_on_variety)
from cfz.fields import field_of_order, is_prime
from cfz.fourfold import (automorphism_subgroup, pair_shear_generator,
                          pair_swap_generator, pfaffian_map_substitution,
                          preserves_cubic)
from cfz.grassmann import (canonical_coords, evaluate_relation, grassmannian_points,
                           max_linear_subspace_dim, pluecker_relations)
from cfz.zeta import (algebraic_trace_split, assemble_fourfold_factors,
                      fourfold_count_from_surface, hilbert_square_count,
                      reconstruct_count, trace_from_count)

S = builtin_variety("S")
X = builtin_variety("X")
FERMAT = builtin_variety("fermat")

S_TABLE = {7: 177, 13: 429, 19: 753, 31: 1536, 37: 2157}
RESIDUE_ROW = {7: 1, 13: 12, 19: 11, 31: 16, 37: 10}
INERT = (5, 11, 17, 23, 29)


def report(num, label, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[criterion {num:02d}] PASS {label}{suffix}")


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_criterion_01_point_count_table():
    counts, dt = timed(lambda: {p: count_S_fibered(p, 1).count for p in S_TABLE})
    assert counts == S_TABLE
    assert dt < 5.0
    report(1, f"surface counts {tuple(counts.values())} reproduce the table", dt)


def test_criterion_02_residue_row():
    for p in S_TABLE:
        tr = trace_from_count(count_S_fibered(p, 1).count, p)
        assert tr.residue == RESIDUE_ROW[p]
    for p in INERT:
        tr = trace_from_count(count_S_fibered(p, 1).count, p)
        assert tr.residue == 0
    report(2, f"residues {tuple(RESIDUE_ROW.values())} and zero at {INERT}")


def test_criterion_03_fermat_count():
    def work():
        fermat = count_fermat_cubic(7).count
        ours = count_pairsum_convolution(X, 7).count
        return fermat, ours
    (fermat, ours), dt = timed(work)
    assert fermat == 3690
    assert ours == 3690
    assert 3690 == 1 + 7 ** 2 + 7 ** 4 + 7 * 177
    assert dt < 1.0
    report(3, "Fermat and pair-sum fourfold both count 3690 at p=7", dt)


def test_criterion_04_fourfold_identity_second_prime():
    def work():
        conv = count_pairsum_convolution(X, 13).count
        gen = count_points_generic(X, 13).count
        return conv, gen
    (conv, gen), dt = timed(work)
    assert conv == 34308 == 1 + 13 ** 2 + 13 ** 4 + 13 * 429
    assert gen == 34308
    assert dt < 60.0
    report(4, "fourfold count 34308 at p=13, generic oracle agrees", dt)


def test_criterion_05_form_identification():
    result = identify_form(sorted(RESIDUE_ROW.items()))
    assert result.match == 0 and result.status == "unique"
    inert_only = identify_form([(p, 0) for p in INERT])
    assert inert_only.status == "ambiguous"
    for p in range(5, 201):
        if is_prime(p) and p % 3 == 1:
            assert ap_via_eisenstein(p) == ap_base(p)
    report(5, "base form identified uniquely; dual a_p oracles agree to 200")


def test_criterion_06_hilbert_square_identity():
    def work():
        n2 = count_points_generic(S, 49).count
        pts = points_on_variety(S, 49)
        field = field_of_order(49)
        index = {pt: i for i, pt in enumerate(pts)}
        fixed = 0
        orbits = set()
        for i, pt in enumerate(pts):
            image = tuple(field.pow(e, 7) for e in pt)
            j = index[image]
            if i == j:
                fixed += 1
            else:
                orbits.add((min(i, j), max(i, j)))
        stable_pairs = fixed + fixed * (fixed - 1) // 2 + len(orbits)
        return n2, fixed, stable_pairs
    (n2, fixed, stable_pairs), dt = timed(work)
    n1 = count_S_fibered(7, 1).count
    assert fixed == n1
    assert hilbert_square_count(n1, n2, 7) == stable_pairs + 7 * n1
    assert dt < 120.0
    report(6, f"Hilbert square count {stable_pairs + 7 * n1} matches the orbit oracle", dt)


def test_criterion_07_algebraic_trace_and_assembly():
    for p, n1 in S_TABLE.items():
        t2 = trace_from_count(n1, p).t2
        t_alg = algebraic_trace_split(t2, ap_base(p), p)
        assert t_alg == 20 * p
    for p in (7, 13):
        factors = assemble_fourfold_factors(p, ap_base(p), 20)
        direct = count_pairsum_convolution(X, p).count
        assert reconstruct_count(factors) == direct
        assert direct == fourfold_count_from_surface(S_TABLE[p], p)
    report(7, "t_alg = 20p at all table primes; factor lists rebuild 3690 and 34308")


def test_criterion_08_grassmannian_lemma():
    def work():
        big = max_linear_subspace_dim(1, 4, 2)
        boundary = max_linear_subspace_dim(1, 3, 2)
        return big, boundary
    (big, boundary), dt = timed(work)
    assert big.max_dim == 3 == 4 - 1
    assert dict(big.families) == {"pencil-through-fixed-plane": 31}
    assert boundary.max_dim == 2
    assert dict(boundary.families) == {"pencil-through-fixed-plane": 15,
                                       "inside-fixed-plane": 15}
    assert dt < 60.0
    report(8, "max subspace dim 3 with pencil witnesses; two plane families in Gr(1,3)", dt)


def test_criterion_09_symbolic_identities():
    def work():
        residual = pfaffian_map_substitution()
        one = automorphism_subgroup([pair_swap_generator(0), pair_shear_generator(0)])
        gens = [f(i) for i in range(3)
                for f in (pair_swap_generator, pair_shear_generator)]
        three = automorphism_subgroup(gens)
        return residual, one, three
    (residual, one, three), dt = timed(work)
    assert residual.is_zero
    assert len(one) == 6
    assert len(three) == 216
    assert all(preserves_cubic(g) for g in three)
    assert dt < 5.0
    report(9, "map identity collapses to zero; automorphism orders 6 and 216", dt)


def test_criterion_10_property_suites():
    # oracle equivalence, structured vs generic, p <= 13
    for p in (5, 7, 11, 13):
        assert count_S_fibered(p, 1).count == count_points_generic(S, p).count
        assert (count_pairsum_convolution(X, p).count
                == count_points_generic(X, p).count)
    assert count_fermat_cubic(7).count == count_points_generic(FERMAT, 7).count
    assert count_S_fibered(7, 2).count == count_points_generic(S, 49).count

    # field axioms by exhaustion up to GF(49)
    for q in (5, 7, 11, 13, 25, 49):
        field = field_of_order(q)
        mul = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)])
        add = np.array([[field.add(a, b) for b in range(q)] for a in range(q)])
        assert np.array_equal(mul, mul.T) and np.array_equal(add, add.T)
        assert np.array_equal(mul[mul][:, :, :], mul[:, mul])
        assert np.array_equal(add[add][:, :, :], add[:, add])
        assert np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]])
        for a in range(q):
            assert field.add(a, field.neg(a)) == 0
            if a:
                assert field.mul(a, field.pow(a, q - 2)) == 1

    # two-sided decomposability over GF(2) and GF(3)
    for (k, n) in ((1, 3), (1, 4)):
        rels = pluecker_relations(k, n)
        for q in (2, 3):
            pts = grassmannian_points(k, n, q)
            width = len(next(iter(pts)))
            for coords in product(range(q), repeat=width):
                if not any(coords):
                    continue
                sat = all(evaluate_relation(r, coords, q) == 0 for r in rels)
                assert sat == (canonical_coords(coords, q) in pts)

    # Hasse bound
    for p in range(5, 201):
        if is_prime(p):
            assert abs(ap_base(p)) <= 2 * p
    report(10, "oracle equivalence, field axioms, decomposability, Hasse bound")
