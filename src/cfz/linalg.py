"""Exact linear algebra over the integers.

``det`` is the one determinant of the package: Bareiss fraction-free
elimination, in which every division is exact, so the entries stay
integers and no Fraction is ever formed.  The Pluecker coordinates of
``grassmann`` and the invertibility check of ``fourfold.LinearMapP5``
both use it.
"""


def det(rows) -> int:
    """Determinant of a square integer matrix (a sequence of rows)."""
    m = [list(r) for r in rows]
    n = len(m)
    for r in m:
        if len(r) != n:
            raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    while n > 1:
        if not m[0][0]:
            piv = next((i for i in range(1, n) if m[i][0]), None)
            if piv is None:
                return 0
            m[0], m[piv] = m[piv], m[0]
            sign = -sign
        top = m[0]
        lead = top[0]
        # Bareiss step on the trailing submatrix: each new entry is a minor
        # of the input, so the division by the previous pivot is exact
        m = [[(lead * a - r[0] * b) // prev for a, b in zip(r[1:], top[1:])]
             for r in m[1:]]
        prev = lead
        n -= 1
    return sign * m[0][0] if m else 1
