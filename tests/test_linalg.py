import random

import pytest

from cfz.linalg import det


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


def test_det_known_values_and_shape_check():
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])
