"""Exact linear algebra over the integers and over prime fields.

``det``, ``rref`` and ``nullspace`` are the package's one exact linear
algebra.  ``det`` is Bareiss fraction-free elimination, in which every
division is exact, so the entries stay integers and no Fraction is ever
formed; a 2 x 2 matrix, such as a Pluecker coordinate of a line, is
computed directly.  The Pluecker coordinates of ``grassmann`` and the
invertibility check of ``fourfold.LinearMapP5`` both use it.  ``rref``
and ``nullspace`` compute mod a prime p and serve the subspace
dimensions of ``grassmann`` over GF(2) and GF(3).  The Jacobian
minors of ``counting.smoothness_scan`` have polynomial entries and are
expanded by cofactors there.
"""


def det(rows) -> int:
    """Determinant of a square integer matrix (a sequence of rows)."""
    m = [list(r) for r in rows]
    n = len(m)
    for r in m:
        if len(r) != n:
            raise ValueError("determinant of a non-square matrix")
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
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


def rref(rows, p):
    """Reduced row echelon form of an integer matrix mod a prime p.

    Returns the nonzero reduced rows, entries in [0, p), each with a 1 at
    its pivot and 0 above and below it, and their pivot columns; the rank
    is the number of pivots.
    """
    rows = [[a % p for a in r] for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = pow(rows[r][col], -1, p)
        top = rows[r] = [a * scale % p for a in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col]
                rows[i] = [(a - f * b) % p for a, b in zip(row, top)]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def nullspace(rows, width, p):
    """A basis of the vectors v of length ``width`` with row . v = 0 mod p
    for every row: width - rank vectors, one per non-pivot column."""
    reduced, pivots = rref(rows, p)
    basis = []
    for free in sorted(set(range(width)) - set(pivots)):
        vec = [0] * width
        vec[free] = 1
        for row, piv in zip(reduced, pivots):
            vec[piv] = -row[free] % p
        basis.append(vec)
    return basis
