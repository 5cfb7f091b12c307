import tracemalloc
from itertools import product

import numpy as np
import pytest

from cfz import fields
from cfz.fields import (ExtField, FieldError, PrimeField, _is_irreducible,
                        enumerate_projective, field_of_order, field_tables,
                        find_irreducible, is_prime, projective_cardinality,
                        projective_points, quadratic_character, quadratic_root_count)

GOOD_PRIMES = [5, 7, 11, 13]


def test_rejects_characteristic_2_and_3():
    for p in (2, 3):
        with pytest.raises(FieldError):
            PrimeField(p)
    with pytest.raises(FieldError):
        PrimeField(9)  # not prime
    with pytest.raises(FieldError):
        field_of_order(8)
    with pytest.raises(FieldError):
        field_of_order(27)


def test_field_of_order():
    assert field_of_order(7).order == 7
    assert field_of_order(49).order == 49
    assert field_of_order(125).order == 125
    with pytest.raises(FieldError):
        field_of_order(10)


def test_field_of_order_is_built_once_per_order(monkeypatch):
    scans = []

    def counting_scan(p, k):
        scans.append((p, k))
        return find_irreducible(p, k)

    monkeypatch.setattr(fields, "find_irreducible", counting_scan)
    field_of_order.cache_clear()
    try:
        for _ in range(3):
            assert field_of_order(121) is field_of_order(121)
            assert field_of_order(11) is field_of_order(11)
        assert scans == [(11, 2), (11, 1)]
    finally:
        field_of_order.cache_clear()


def _full_tables(field):
    q = field.order
    elems = [field.from_encoding(e) for e in range(q)]
    mul = np.zeros((q, q), dtype=np.int64)
    add = np.zeros((q, q), dtype=np.int64)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            mul[i, j] = (a * b).encoding
            add[i, j] = (a + b).encoding
    # the shared list tables the counters use must agree with element arithmetic
    shared = field_tables(field)
    assert shared.mul == mul.tolist()
    assert shared.add == add.tolist()
    assert shared.neg == [(-a).encoding for a in elems]
    assert shared.inv == [0] + [a.inverse().encoding for a in elems[1:]]
    assert shared.chi == [quadratic_character(a) for a in elems]
    return elems, mul, add


# GF(121) and GF(125) search a generator in an extension and add on two and
# three base-p digits
@pytest.mark.parametrize("q", GOOD_PRIMES + [25, 49, 121, 125])
def test_field_axioms_exhaustive(q):
    field = field_of_order(q)
    elems, mul, add = _full_tables(field)

    # commutativity
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(add, add.T)
    # identities
    one = field.one().encoding
    zero = field.zero().encoding
    assert np.array_equal(mul[one], np.arange(q))
    assert np.array_equal(add[zero], np.arange(q))
    # associativity, all q^3 triples through the exact tables
    assert np.array_equal(mul[mul][:, :, :], mul[:, mul])
    assert np.array_equal(add[add][:, :, :], add[:, add])
    # distributivity: a*(b+c) == a*b + a*c
    lhs = mul[:, add]
    rhs = add[mul[:, :, None], mul[:, None, :]]
    assert np.array_equal(lhs, rhs)
    # additive and multiplicative inverses
    for a in elems:
        assert (a + (-a)).is_zero
        if not a.is_zero:
            assert a * a.inverse() == field.one()


def test_table_entries_share_int_objects():
    # mul and add hold q^2 pointers each into one list(range(q)); an int
    # object per entry would add 28 bytes to each of them
    q = 499
    field = field_of_order(q)
    field_tables.cache_clear()
    tracemalloc.start()
    try:
        field_tables(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 * 8 * q ** 2


def test_prime_field_smoke():
    F7 = PrimeField(7)
    assert F7.element(3) * F7.element(5) == F7.element(1)
    assert F7.element(15) == F7.element(1)
    a = F7.element(4)
    assert a / a == F7.one()


def test_extension_field_alpha_square():
    # GF(49) = GF(7)[a]/(a^2+1): -1 is a nonsquare mod 7, checked by exhaustion
    assert all(x * x != 6 for x in PrimeField(7).elements())
    f49 = field_of_order(49)
    assert f49.modulus == (1, 0, 1)
    alpha = f49.element((0, 1))
    assert alpha * alpha == f49.element(6)


def test_operators_and_errors():
    F7 = PrimeField(7)
    a, b = F7.element(3), F7.element(5)
    assert a + b == F7.element(1)
    assert a - b == F7.element(5)
    assert a * b == F7.element(1)
    assert a / b == F7.element(2)  # 3 * 5^-1 = 3 * 3 = 2
    assert a ** 2 == F7.element(2)
    with pytest.raises(FieldError):
        a / F7.zero()
    with pytest.raises(FieldError):
        F7.zero().inverse()
    with pytest.raises(FieldError):
        a + PrimeField(11).element(1)
    with pytest.raises(FieldError):
        a * 2


def test_mixed_extension_fields_rejected():
    f1 = ExtField(5, 2)
    f2 = ExtField(5, 2, modulus=(3, 0, 1))  # x^2 + 3, also irreducible mod 5
    with pytest.raises(FieldError):
        f1.element((1, 1)) + f2.element((1, 1))


def test_find_irreducible():
    assert find_irreducible(7, 1) == (0, 1)
    assert find_irreducible(7, 2) == (1, 0, 1)
    assert find_irreducible(13, 2) == (1, 3, 1)
    # degree 3: verify by brute force that the result has no roots
    for p in (5, 7):
        f = find_irreducible(p, 3)
        assert f[-1] == 1 and len(f) == 4
        for x in range(p):
            assert sum(c * x ** i for i, c in enumerate(f)) % p != 0


def _first_irreducible_unfiltered(p, k):
    # the scan without the root test: the first candidate the ring test accepts
    for tail in product(range(p), repeat=k):
        f = list(tail) + [1]
        if _is_irreducible(f, p):
            return tuple(f)


@pytest.mark.parametrize("p, k", [(p, 2) for p in range(5, 100) if is_prime(p)]
                         + [(p, 3) for p in range(5, 30) if is_prime(p)])
def test_root_test_keeps_the_first_irreducible(p, k):
    assert find_irreducible(p, k) == _first_irreducible_unfiltered(p, k)


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        ExtField(5, 2, modulus=(4, 0, 1))  # x^2 + 4 = (x-1)(x+1) mod 5
    # (x^2 + 2)(x^2 + 3) = x^4 + 1 mod 5: no root, and x^625 = x holds, so
    # only the unit test on x^25 - x can reject it
    with pytest.raises(FieldError):
        ExtField(5, 4, modulus=(1, 0, 0, 0, 1))


def _mobius(n):
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_irreducible_count_is_gauss_formula(p, k):
    # the number of monic irreducibles of degree k over GF(p) is
    # (1/k) * sum over d | k of mu(d) * p^(k/d)
    expected = sum(_mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
    found = sum(_is_irreducible(list(tail) + [1], p) for tail in product(range(p), repeat=k))
    assert found == expected


@pytest.mark.parametrize("q", [5, 7, 11, 13, 25, 49])
def test_quadratic_character_multiplicative(q):
    field = field_of_order(q)
    elems = list(field.elements())
    chi = {e.encoding: quadratic_character(e) for e in elems}
    squares = {(e * e).encoding for e in elems if not e.is_zero}
    for e in elems:
        assert chi[e.encoding] == (0 if e.is_zero else (1 if e.encoding in squares else -1))
    for a in elems:
        if a.is_zero:
            continue
        for b in elems:
            if b.is_zero:
                continue
            assert chi[(a * b).encoding] == chi[a.encoding] * chi[b.encoding]


def test_quadratic_character_values_mod_7():
    F7 = PrimeField(7)
    assert quadratic_character(F7.element(0)) == 0
    assert quadratic_character(F7.element(2)) == 1   # 3^2 = 2 mod 7
    assert quadratic_character(F7.element(3)) == -1


def _brute_root_count(a, b, c):
    field = a.field
    count = 0
    for pt in projective_points(field, 1):
        u, v = pt
        if (a * u * u + b * u * v + c * v * v).is_zero:
            count += 1
    return count


@pytest.mark.parametrize("q", GOOD_PRIMES)
def test_quadratic_root_count_exhaustive(q):
    field = field_of_order(q)
    elems = list(field.elements())
    for a in elems:
        for b in elems:
            for c in elems:
                assert quadratic_root_count(a, b, c) == _brute_root_count(a, b, c)


def test_quadratic_root_count_examples():
    F7 = PrimeField(7)
    e = F7.element
    assert quadratic_root_count(e(1), e(0), e(-1)) == 2
    assert quadratic_root_count(e(0), e(0), e(0)) == 8
    assert quadratic_root_count(e(1), e(0), e(1)) == 0


def test_projective_enumeration_cardinality_and_uniqueness():
    assert projective_cardinality(2, 2) == 7
    assert projective_cardinality(7, 2) == 57
    assert projective_cardinality(49, 2) == 2451
    cases = [(2, 2), (2, 5), (3, 4), (4, 3), (5, 5), (7, 5), (9, 3),
             (13, 3), (25, 2), (49, 2), (49, 3)]
    for q, n in cases:
        pts = list(enumerate_projective(q, n))
        assert len(pts) == projective_cardinality(q, n)
        assert len(set(pts)) == len(pts)
        assert all(next(c for c in pt if c) == 1 for pt in pts)


def test_projective_points_field_elements():
    field = field_of_order(49)
    pts = list(projective_points(field, 1))
    assert len(pts) == 50
    assert all(x.field == field for pt in pts for x in pt)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
