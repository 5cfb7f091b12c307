"""Exact linear algebra over the integers, polynomials and prime fields.

``det``, ``rref`` and ``nullspace`` are the package's one exact linear
algebra.  ``det`` expands along the first row over any commutative ring
the package uses, Python ints or ``polynomials.Poly``, with no division;
a 2 x 2 matrix, such as a Pluecker coordinate of a line, is computed
directly.  The Pluecker coordinates of ``grassmann``, the invertibility
check of ``fourfold.LinearMapP5`` and the Jacobian minors of
``counting.smoothness_scan`` all use it.  ``rref`` and ``nullspace``
compute mod a prime p and serve the subspace dimensions of
``grassmann`` over GF(2) and GF(3).
"""


def det(rows):
    """Determinant of a square matrix (a sequence of rows) over a
    commutative ring, by cofactor expansion along the first row, skipping
    its zero entries.  The empty matrix gives the integer 1, and a zero
    first row the integer 0."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("determinant of a non-square matrix")
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n < 2:
        return rows[0][0] if rows else 1
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = det([r[:j] + r[j + 1:] for r in rows[1:]])
            total = total + (-a if j % 2 else a) * minor
    return total


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
