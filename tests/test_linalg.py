import random

import pytest

from cfz.linalg import det, nullspace, rref
from cfz.polynomials import Poly
from polyref import evaluate


def laplace_det(m):
    """Reference: cofactor expansion along the first row."""
    if not m:
        return 1
    total = 0
    for j, a in enumerate(m[0]):
        if a:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * a * laplace_det(minor)
    return total


@pytest.mark.parametrize("n", range(7))
def test_det_matches_cofactor_expansion(n):
    rng = random.Random(n)
    for _ in range(200):
        # sparse entries make zero pivots, hence row swaps, common
        m = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(n)] for _ in range(n)]
        d = det(m)
        assert type(d) is int
        assert d == laplace_det(m)


def bareiss_det(m):
    """Reference: Bareiss fraction-free elimination at every size."""
    m = [list(r) for r in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def test_two_by_two_det_matches_bareiss():
    rng = random.Random(2)
    for _ in range(2000):
        bound = rng.choice((1, 3, 10 ** 6, 10 ** 30))
        m = [[rng.randint(-bound, bound) for _ in range(2)] for _ in range(2)]
        if rng.random() < 0.2:  # singular matrices, and zero leading pivots
            m[1] = [rng.choice((0, 3, -2)) * e for e in m[0]]
        if rng.random() < 0.2:
            m[0][0] = 0
        d = det(m)
        assert type(d) is int
        assert d == bareiss_det(m) == laplace_det(m)
    # tuples of tuples, as the Pluecker frames pass them
    assert det(((3, 5), (7, 11))) == bareiss_det([[3, 5], [7, 11]]) == -2


@pytest.mark.parametrize("n", range(1, 6))
def test_bareiss_reference_matches_cofactor_expansion(n):
    rng = random.Random(100 + n)
    for _ in range(100):
        m = [[rng.choice((0, 0, 1, -1, 2, -3, 7)) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(m) == laplace_det(m) == det(m)


def test_det_known_values_and_shape_check():
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def _random_poly(rng, nvars):
    """A sparse Poly: zero a third of the time, else up to three terms."""
    if rng.random() < 1 / 3:
        return Poly.zero(nvars)
    return sum((Poly.monomial(nvars, [rng.randint(0, 2) for _ in range(nvars)],
                              rng.choice((1, -1, 2, -5)))
                for _ in range(rng.randint(1, 3))), Poly.zero(nvars))


@pytest.mark.parametrize("n", range(5))
def test_det_over_polys_commutes_with_evaluation(n):
    # evaluation at an integer point is a ring map Z[x] -> Z, so it carries
    # det over polynomials to det over the integers
    rng = random.Random(300 + n)
    nvars = 3
    for _ in range(60):
        m = [[_random_poly(rng, nvars) for _ in range(n)] for _ in range(n)]
        d = det(m)
        for _ in range(3):
            pt = [rng.randint(-4, 4) for _ in range(nvars)]
            value = evaluate(d, pt) if isinstance(d, Poly) else d
            assert value == det([[evaluate(e, pt) for e in r] for r in m])


def _span_size(rows, p):
    """Reference: the number of distinct vectors sum(c_i * row_i) mod p, by
    closing {0} under adding every multiple of each row in turn."""
    span = {tuple(0 for _ in rows[0])} if rows else {()}
    for row in rows:
        span = {tuple((v + c * x) % p for v, x in zip(vec, row))
                for vec in span for c in range(p)}
    return len(span)


# GF(2) and GF(3), the fields grassmann eliminates over
@pytest.mark.parametrize("p", [2, 3], ids=["GF2", "GF3"])
def test_rref_rank_matches_the_span_and_nullspace_annihilates(p):
    rng = random.Random(p)
    for _ in range(60):
        width = rng.randint(1, 6)
        # sparse entries and repeated rows make dependent systems common
        pool = [0, 0, 1] + [rng.randrange(p) for _ in range(3)]
        rows = [[rng.choice(pool) for _ in range(width)]
                for _ in range(rng.randint(0, 5))]
        if len(rows) > 1 and rng.random() < 0.3:
            rows[-1] = list(rows[0])
        reduced, pivots = rref(rows, p)
        rank = len(pivots)
        assert len(reduced) == rank
        assert p ** rank == _span_size(rows, p)
        assert pivots == sorted(pivots)
        for i, (row, piv) in enumerate(zip(reduced, pivots)):
            assert row[piv] == 1
            assert all(other[piv] == 0 for j, other in enumerate(reduced) if j != i)
        null = nullspace(rows, width, p)
        assert len(null) == width - rank
        assert p ** len(null) == _span_size(null, p)
        for v in null:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) % p == 0


def test_nullspace_of_no_rows_is_the_whole_space():
    assert rref([], 2) == ([], [])
    assert nullspace([], 3, 2) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
