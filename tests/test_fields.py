import tracemalloc
from itertools import product

import numpy as np
import pytest

from cfz import counting, fields
from cfz.fields import (FieldError, FiniteField, _is_irreducible,
                        enumerate_projective, field_of_order, field_tables,
                        find_irreducible, is_prime, projective_cardinality,
                        projective_points, quadratic_root_count)

GOOD_PRIMES = [5, 7, 11, 13]
# fields of characteristic 2 and 3, which the counters use over GF(2^k) and GF(3^k)
SMALL_CHAR = [2, 3, 4, 8, 9, 16, 27]


def _chi(field, a):
    """Euler's criterion: 0 on zero, a^((q-1)/2) = +1 or -1 otherwise;
    for even q every element is a square."""
    if not a:
        return 0
    if field.order % 2 == 0:
        return 1
    return 1 if field.pow(a, (field.order - 1) // 2) == 1 else -1


def _inverse(field, a):
    return field.pow(a, field.order - 2)


def test_builds_fields_of_characteristic_2_and_3():
    # every prime is a characteristic; which primes a variety or a counter
    # refuses is stated there, not here
    assert [FiniteField(p).order for p in (2, 3)] == [2, 3]
    assert find_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    with pytest.raises(FieldError, match="9 is not prime"):
        FiniteField(9)


def test_field_of_order():
    assert field_of_order(7).order == 7
    assert field_of_order(49).order == 49
    assert field_of_order(49) == FiniteField(7, 2)


@pytest.mark.parametrize("q, want", [
    (4, (2, 2)),
    (8, (2, 3)),
    (9, (3, 2)),
    (10, "10 is not a prime power"),
    (27, (3, 3)),
    (121, (11, 2)),
    (125, (5, 3)),
    (343, (7, 3)),
])
def test_field_of_order_factors_q(q, want):
    if isinstance(want, str):
        with pytest.raises(FieldError, match=want):
            field_of_order(q)
    else:
        field = field_of_order(q)
        assert (field.p, field.k, field.order) == (*want, q)


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


def test_field_order_cap_refuses_before_factoring(monkeypatch):
    assert fields.MAX_FIELD_ORDER == 2 ** 20
    assert field_of_order(1048573).order == 1048573  # the largest prime below the cap
    monkeypatch.setattr(fields, "_prime_divisors", lambda n: pytest.fail("q factored"))
    for q in (1048583, 5 ** 10, 1031 ** 2):
        with pytest.raises(FieldError, match=f"^field order {q} exceeds the cap 2\\^20"):
            field_of_order(q)


def test_tables_at_the_cap_fit_in_128_mib():
    # the traced peak of one table set, per element, times the cap
    q = 10007
    field = field_of_order(q)
    tracemalloc.start()
    try:
        field_tables.__wrapped__(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / q * fields.MAX_FIELD_ORDER < 128 * 2 ** 20


def _full_tables(field):
    q = field.order
    mul = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
    add = np.array([[field.add(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
    return mul, add


# the table set the counters use agrees with the field's arithmetic on
# single encodings, and chi with Euler's criterion, at every pair
@pytest.mark.parametrize("q", GOOD_PRIMES + [25, 49, 121, 125] + SMALL_CHAR)
def test_table_methods_follow_the_field_rule(q):
    field = field_of_order(q)
    tables = field_tables(field)
    minus_one = field.neg(1)
    assert tables.add(1, minus_one) == 0 and tables.zech[tables.log[minus_one]] == -1
    for a in range(q):
        assert tables.neg(a) == field.neg(a)
        if a:  # g^(-log a) is the inverse
            assert tables.powers[-tables.log[a] % (q - 1)] == _inverse(field, a)
        assert [tables.mul(a, b) for b in range(q)] == [field.mul(a, b) for b in range(q)]
        assert [tables.add(a, b) for b in range(q)] == [field.add(a, b) for b in range(q)]
    assert tables.chi == [_chi(field, a) for a in range(q)]
    assert sorted(tables.powers) == list(range(1, q))


# GF(121) and GF(125) search a generator in an extension and add on two and
# three base-p digits
@pytest.mark.parametrize("q", GOOD_PRIMES + [25, 49, 121, 125] + SMALL_CHAR)
def test_field_axioms_exhaustive(q):
    field = field_of_order(q)
    mul, add = _full_tables(field)
    # the generic oracle's products, from the powers and logs of the table set
    assert np.array_equal(counting._array_mul(field)(np.arange(q)[:, None], np.arange(q)), mul)

    # commutativity
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(add, add.T)
    # identities: 1 and 0 encode as themselves
    assert np.array_equal(mul[1], np.arange(q))
    assert np.array_equal(add[0], np.arange(q))
    # associativity, all q^3 triples through the exact tables
    assert np.array_equal(mul[mul][:, :, :], mul[:, mul])
    assert np.array_equal(add[add][:, :, :], add[:, add])
    # distributivity: a*(b+c) == a*b + a*c
    lhs = mul[:, add]
    rhs = add[mul[:, :, None], mul[:, None, :]]
    assert np.array_equal(lhs, rhs)
    # additive and multiplicative inverses
    for a in range(q):
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, _inverse(field, a)) == 1


def test_prime_field_smoke():
    F7 = FiniteField(7)
    assert F7.add(3, 5) == 1
    assert F7.add(3, F7.neg(5)) == 5
    assert F7.mul(3, 5) == 1
    assert F7.mul(3, _inverse(F7, 5)) == 2  # 3 / 5 = 3 * 3
    assert F7.pow(3, 2) == 2
    assert F7.mul(4, _inverse(F7, 4)) == 1


def test_extension_field_alpha_square():
    # GF(49) = GF(7)[a]/(a^2+1): -1 is a nonsquare mod 7, checked by exhaustion
    F7 = FiniteField(7)
    assert all(F7.mul(x, x) != 6 for x in range(7))
    f49 = field_of_order(49)
    assert f49.modulus == (1, 0, 1)
    alpha = 7  # the encoding of the coefficients (0, 1)
    assert f49.mul(alpha, alpha) == 6


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
    assert not _is_irreducible((4, 0, 1), 5)  # x^2 + 4 = (x-1)(x+1) mod 5
    # (x^2 + 2)(x^2 + 3) = x^4 + 1 mod 5: no root, and x^625 = x holds, so
    # only the unit test on x^25 - x can reject it
    assert not _is_irreducible((1, 0, 0, 0, 1), 5)
    assert _is_irreducible(find_irreducible(5, 4), 5)


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
    chi = field_tables(field).chi
    squares = {field.mul(e, e) for e in range(1, q)}
    for e in range(q):
        assert chi[e] == (0 if not e else (1 if e in squares else -1))
    for a in range(1, q):
        for b in range(1, q):
            assert chi[field.mul(a, b)] == chi[a] * chi[b]


def test_quadratic_character_values_mod_7():
    chi = field_tables(FiniteField(7)).chi
    assert chi[0] == 0
    assert chi[2] == 1   # 3^2 = 2 mod 7
    assert chi[3] == -1


def _brute_root_count(field, a, b, c):
    count = 0
    for u, v in enumerate_projective(field.order, 1):
        terms = (field.mul(a, field.mul(u, u)), field.mul(b, field.mul(u, v)),
                 field.mul(c, field.mul(v, v)))
        count += field.add(field.add(*terms[:2]), terms[2]) == 0
    return count


@pytest.mark.parametrize("q", GOOD_PRIMES)
def test_quadratic_root_count_exhaustive(q):
    field = field_of_order(q)
    tables = field_tables(field)
    for a, b, c in product(range(q), repeat=3):
        assert quadratic_root_count(a, b, c, tables) == _brute_root_count(field, a, b, c)


def test_quadratic_root_count_examples():
    tables = field_tables(FiniteField(7))
    assert quadratic_root_count(1, 0, 6, tables) == 2  # U^2 - V^2
    assert quadratic_root_count(0, 0, 0, tables) == 8
    assert quadratic_root_count(1, 0, 1, tables) == 0


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
    assert pts == list(enumerate_projective(49, 1))
    assert all(0 <= e < 49 for pt in pts for e in pt)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
