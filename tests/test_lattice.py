from cfz.lattice import (GramMatrix2, associated_k3_degree, discriminant,
                         special_admissible)


def test_discriminant_values():
    assert discriminant(GramMatrix2(4, 10)) == 14
    assert discriminant(GramMatrix2(3, 3)) == 0
    assert discriminant(GramMatrix2(0, 2)) == 6


def test_gram_matrix_shape():
    g = GramMatrix2(4, 10)
    assert tuple(g) == (4, 10)
    assert g.h2h2 == 3


def test_discriminant_invariant_under_basis_shift():
    # T -> T + m*h^2: h2T gains 3m and TT gains 2m*h2T + 3m^2
    for g in (GramMatrix2(4, 10), GramMatrix2(0, 2), GramMatrix2(-5, 7)):
        d = discriminant(g)
        for m in range(-5, 6):
            shifted = GramMatrix2(g.h2T + 3 * m, g.TT + 2 * m * g.h2T + 3 * m * m)
            assert discriminant(shifted) == d


def test_special_admissible():
    assert special_admissible(14)
    assert special_admissible(8)
    assert special_admissible(12)
    assert not special_admissible(6)
    assert not special_admissible(9)
    assert not special_admissible(2)
    assert not special_admissible(10)


def test_associated_k3_degree():
    assert associated_k3_degree(14) == 2
    assert associated_k3_degree(26) == 3
    assert associated_k3_degree(42) == 4
    assert associated_k3_degree(20) is None
    assert associated_k3_degree(6) is None      # n = 1 is below the threshold
    assert associated_k3_degree(15) is None


def test_k3_discriminants_always_admissible():
    for n in range(2, 101):
        d = 2 * (n * n + n + 1)
        assert special_admissible(d)
        assert associated_k3_degree(d) == n
