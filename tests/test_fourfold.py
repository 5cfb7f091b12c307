import math
from fractions import Fraction

import pytest

from cfz.fourfold import (CUBIC, F_FORM, G_FORM, FormNotPreservedError,
                          LinearMapP5, automorphism_subgroup, identity_map,
                          pair_shear_generator, pair_swap_generator,
                          pfaffian_map_substitution, preserves_cubic,
                          random_map_identity_check,
                          verify_pfaffian_map_identity)
from cfz.polynomials import Poly


def test_cubic_equation_shape():
    assert len(CUBIC.terms) == 6
    assert {sum(exps) for exps in CUBIC.terms} == {3}
    assert CUBIC == F_FORM - G_FORM


def test_pfaffian_map_identity_symbolic():
    report = verify_pfaffian_map_identity()
    assert report.passed
    assert report.residual_terms == ()
    assert pfaffian_map_substitution().is_zero


def test_pfaffian_map_identity_random_points():
    assert random_map_identity_check(trials=100, p=101, seed=0)
    assert random_map_identity_check(trials=50, p=10007, seed=5)


def test_pfaffian_residual_reported_for_wrong_map():
    # same substitution but with one image swapped breaks the identity
    x, u, y, v, z, w = (Poly.variable(6, i) for i in range(6))
    images = [x * G_FORM, u * G_FORM, y * F_FORM, v * G_FORM, z * F_FORM, w * F_FORM]
    assert not CUBIC.substitute(images).is_zero


def test_generator_matrices():
    g = pair_swap_generator(0)
    # (x, u) -> (-u, -x), other coordinates fixed
    assert g.rows[0] == (0, -1, 0, 0, 0, 0)
    assert g.rows[1] == (-1, 0, 0, 0, 0, 0)
    assert g.rows[2][2] == 1
    h = pair_shear_generator(0)
    assert h.rows[0] == (-1, 1, 0, 0, 0, 0)
    assert h.rows[1] == (-1, 0, 0, 0, 0, 0)


def test_generators_preserve_cubic():
    for i in range(3):
        assert preserves_cubic(pair_swap_generator(i))
        assert preserves_cubic(pair_shear_generator(i))


def test_shear_generator_has_order_three():
    t = pair_shear_generator(0)
    cube = (t @ t @ t).normalized()
    assert cube == identity_map().normalized()


def test_automorphism_group_orders():
    one_pair = automorphism_subgroup([pair_swap_generator(0), pair_shear_generator(0)])
    assert one_pair.order == 6
    gens = [f(i) for i in range(3) for f in (pair_swap_generator, pair_shear_generator)]
    three_pairs = automorphism_subgroup(gens)
    assert three_pairs.order == 216
    assert automorphism_subgroup([identity_map()]).order == 1
    assert 216 % one_pair.order == 0


def test_group_order_invariant_under_conjugation():
    # conjugate by the pair permutation (x,u) <-> (y,v), itself a symmetry
    # of the cubic, so the conjugated generators still preserve it
    perm = [[0] * 6 for _ in range(6)]
    for a, b in ((0, 2), (1, 3), (2, 0), (3, 1), (4, 4), (5, 5)):
        perm[a][b] = 1
    h = LinearMapP5(perm)
    assert preserves_cubic(h)
    assert (h @ h).normalized() == identity_map().normalized()
    gens = [pair_swap_generator(0), pair_shear_generator(0)]
    conj = [(h @ g @ h) for g in gens]
    assert automorphism_subgroup(conj).order == 6


def test_non_preserving_generator_rejected():
    bad = LinearMapP5([[2 if i == j == 0 else (1 if i == j else 0)
                        for j in range(6)] for i in range(6)])
    with pytest.raises(FormNotPreservedError) as e:
        automorphism_subgroup([bad])
    assert "generator 0" in str(e.value)


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        LinearMapP5([[0] * 6 for _ in range(6)])


def test_projective_normalization():
    g = pair_swap_generator(0)
    scaled = LinearMapP5([[3 * e for e in row] for row in g.rows])
    assert scaled.normalized() == g.normalized()


def _diag(*entries):
    return [[entries[i] if i == j else 0 for j in range(6)] for i in range(6)]


def test_matrices_are_integer_and_normalization_is_primitive():
    # Fractions are cleared of their denominators: (1/2) I is I
    half = LinearMapP5(_diag(*[Fraction(1, 2)] * 6))
    assert half.rows == identity_map().rows
    assert LinearMapP5(_diag(Fraction(2, 3), 1, 1, 1, 1, 1)).rows == \
        LinearMapP5(_diag(2, 3, 3, 3, 3, 3)).rows
    # the primitive representative with a positive first nonzero entry
    assert LinearMapP5(_diag(-4, 6, 6, 6, 6, 6)).normalized().rows == \
        LinearMapP5(_diag(2, -3, -3, -3, -3, -3)).rows
    gens = [f(i) for i in range(3) for f in (pair_swap_generator, pair_shear_generator)]
    for g in automorphism_subgroup(gens).elements:
        assert all(type(e) is int for row in g.rows for e in row)
        assert g.normalized() == g


def _closure_rows(generators):
    # reference: breadth-first closure on plain integer matrices, each made
    # primitive with a positive first nonzero entry
    def norm(rows):
        flat = [e for r in rows for e in r]
        g = math.gcd(*flat) * (1 if next(e for e in flat if e) > 0 else -1)
        return tuple(tuple(e // g for e in r) for r in rows)

    gens = [norm(g.rows) for g in generators]
    seen = {norm(identity_map().rows)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                h = norm([[sum(a[i][t] * b[t][j] for t in range(6)) for j in range(6)]
                          for i in range(6)])
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


@pytest.mark.parametrize("generators", [
    [pair_swap_generator(0), pair_shear_generator(0)],
    [f(i) for i in range(3) for f in (pair_swap_generator, pair_shear_generator)],
    [identity_map()],
], ids=["one-pair", "three-pairs", "identity"])
def test_group_elements_match_reference_closure(generators):
    report = automorphism_subgroup(generators)
    assert [g.rows for g in report.elements] == _closure_rows(generators)
    assert report.order == len(report.elements)
