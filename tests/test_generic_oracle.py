"""The generic oracle against a per-point evaluator.

The reference below walks the product of projective spaces one point at a
time and evaluates every equation with ``FiniteField.add`` and
``FiniteField.mul`` (memoised), so it shares neither the table set nor the
numpy kernel with ``count_points_generic``, ``points_on_variety`` and
``smoothness_scan``.  The singular points are checked against a scan of
the local Jacobian at each point, ranked by elimination with the same
rule, which shares nothing with the Jacobian minors ``smoothness_scan``
enumerates.
"""

import random
import tracemalloc
from functools import lru_cache
from itertools import accumulate, product

import numpy as np
import pytest

from cfz import counting
from cfz.counting import VarietySpec, count_points_generic, points_on_variety, smoothness_scan
from cfz.fields import enumerate_projective, field_of_order
from cfz.polynomials import MultiHomPoly


def _monomials(n, d):
    """Exponent tuples of degree d in n + 1 variables."""
    return [e for e in product(range(d + 1), repeat=n + 1) if sum(e) == d]


def _random_spec(seed, dims, equations):
    """A multihomogeneous spec in the product of P^n, n in dims.  Each
    equation is (multidegree, number of terms) with distinct random
    monomials and random coefficients, or None for the zero equation."""
    rng = random.Random(seed)
    blocks = [[f"{'abc'[b]}{i}" for i in range(n + 1)] for b, n in enumerate(dims)]
    names = [v for block in blocks for v in block]
    polys = []
    for eq in equations:
        if eq is None:
            polys.append("0")
            continue
        degrees, nterms = eq
        monos = [sum(parts, ()) for parts in
                 product(*(_monomials(n, d) for n, d in zip(dims, degrees)))]
        terms = []
        for exps in rng.sample(monos, nterms):
            factors = [f"{v}^{e}" for v, e in zip(names, exps) if e]
            terms.append("*".join([str(rng.randrange(1, 1000))] + factors))
        polys.append("+".join(terms))
    return VarietySpec.from_dict({"name": f"random-{seed}", "ambient": list(dims),
                                  "vars": blocks, "polys": polys})


def _value(terms, powers, add, mul):
    acc = 0
    for exps, c in terms:
        t = c
        for row, e in zip(powers, exps):
            t = mul(t, row[e])
        acc = add(acc, t)
    return acc


def _reference_points(spec, q):
    """The rational points over GF(q), each one flat tuple of the
    encodings of all blocks, in the order of the product enumeration."""
    field = field_of_order(q)
    add, mul = lru_cache(maxsize=None)(field.add), lru_cache(maxsize=None)(field.mul)
    equations = [[(exps, c % field.p) for exps, c in mh.poly.sorted_terms()]
                 for mh in spec.polys]
    top = max((max(exps) for terms in equations for exps, _ in terms), default=0)
    found = []
    for point in product(*(enumerate_projective(q, n) for n in spec.ambient)):
        powers = []
        for x in (e for block in point for e in block):
            row = [1]
            for _ in range(top):
                row.append(mul(row[-1], x))
            powers.append(row)
        if all(_value(terms, powers, add, mul) == 0 for terms in equations):
            found.append(sum(point, ()))
    return found


# name: (dims, equations); the fold-groups cases give equations of 12 and
# 14 terms, wider left factors than the others
CASES = {
    "three-blocks": ([1, 0, 1], [((1, 1, 1), 3), ((2, 0, 1), 4)]),
    "p0-block": ([1, 1, 0], [((1, 2, 1), 3), ((2, 1, 2), 5)]),
    "zero-equation": ([1, 1], [((2, 1), 4), None]),
    "no-equations": ([1, 1], []),
    "fold-groups": ([1, 1], [((4, 3), 12)]),
    "fold-groups-line": ([1], [((13,), 14)]),
}


@lru_cache(maxsize=None)
def _case(name, q):
    dims, equations = CASES[name]
    spec = _random_spec(sorted(CASES).index(name), dims, equations)
    return spec, _reference_points(spec, q)


# tile sizes: one cell, ragged tiles, and 2^17 cells, four times the default
@pytest.mark.parametrize("cells", [1, 1000, 1 << 17])
@pytest.mark.parametrize("q", [5, 7, 25, 125])
@pytest.mark.parametrize("name", CASES)
def test_generic_oracle_matches_point_by_point(monkeypatch, name, q, cells):
    spec, want = _case(name, q)
    monkeypatch.setattr(counting, "CHUNK_CELLS", cells)
    assert count_points_generic(spec, q).count == len(want)
    assert points_on_variety(spec, q) == want


# a later block much larger than block 0: P^1 x P^2
WIDE_LATER = _random_spec(7, [1, 2], [((1, 2), 6)])


@pytest.mark.parametrize("q, spans", [(7, [33, 24]), (25, [16] * 40 + [11])])
def test_later_product_split_across_tiles(monkeypatch, q, spans):
    # the columns of the grid, one per point of P^2, take 6 digit rows
    # each over GF(7) and 12 over GF(25), so a tile of 200 cells holds 33
    # or 16 of them and block 0 is walked once per column range; the
    # points still come in the order of the enumeration, though the tiles
    # do not
    want = _reference_points(WIDE_LATER, q)
    seen = []
    real = counting._right_factors
    monkeypatch.setattr(counting, "_right_factors",
                        lambda equation, points, *rest: seen.append(len(points))
                        or real(equation, points, *rest))
    monkeypatch.setattr(counting, "CHUNK_CELLS", 200)
    assert count_points_generic(WIDE_LATER, q).count == len(want)
    assert points_on_variety(WIDE_LATER, q) == want
    assert seen == spans * 2
    field = field_of_order(q)
    cells = np.concatenate(list(counting._zero_cells(WIDE_LATER, field,
                                                     counting._array_mul(field))))
    assert len(cells) == len(want) and (np.diff(cells) < 0).any()


def test_many_terms_over_gf_125_in_float32():
    # 56 terms, as many as a general cubic in P^5 has, on P^1 x P^1, which
    # is small enough to check point by point: 56 * 3 digit products of at
    # most 4^2 each stay far below float32's 2^23
    q = 125
    spec = _random_spec(56, [1, 1], [((7, 6), 56)])
    assert counting._exact_dtype(5, 56 * 3) is np.float32
    assert count_points_generic(spec, q).count == len(_reference_points(spec, q))


def _binary_form_1999():
    """z * (a - 2b)(a - 3b)...(a - 21b) on P^0 x P^1 at p = 1999: 21 terms
    whose coefficients meet monomial values up to 1998 on the second
    block, and its 20 roots."""
    p, roots = 1999, range(2, 22)
    coeffs = [1]
    for r in roots:
        coeffs = [(x - r * y) % p for x, y in zip(coeffs + [0], [0] + coeffs)]
    poly = "+".join(f"{c}*z*a^{20 - i}*b^{i}" for i, c in enumerate(coeffs))
    spec = VarietySpec.from_dict({"name": "binary-form", "ambient": [0, 1],
                                  "vars": [["z"], ["a", "b"]], "polys": [poly]})
    return spec, roots


def test_large_prime_in_float64():
    # a dot product reaches past 2^24, where float32 would round it, and
    # T * (p - 1)^2 >= 2^23 selects float64
    p = 1999
    spec, roots = _binary_form_1999()
    assert len(spec.polys[0].poly.terms) == 21
    assert counting._exact_dtype(p, 21) is np.float64
    want = _reference_points(spec, p)
    assert sorted(want) == sorted((1, 1, pow(r, -1, p)) for r in roots)
    assert count_points_generic(spec, p).count == len(roots)
    assert points_on_variety(spec, p) == want


def test_large_prime_holds_no_q_by_q_array():
    # products come from the powers and logs of the table set, so the
    # count peaks near 1.0 MiB traced, where a q x q product table alone
    # would take 8 q^2 bytes, 30 MiB
    spec, roots = _binary_form_1999()
    assert count_points_generic(spec, 1999).count == len(roots)  # tables built untraced
    tracemalloc.start()
    try:
        assert count_points_generic(spec, 1999).count == len(roots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


NODAL = VarietySpec.from_dict({"name": "nodal", "ambient": [2], "vars": [["x", "y", "z"]],
                               "polys": ["y^2*z-x^3-x^2*z"]})


@pytest.mark.parametrize("q", [5, 7, 25])
def test_points_and_singular_points_match_point_by_point(q):
    # a point of the cubic is singular iff every partial derivative vanishes
    # there (Euler's relation, p != 3), so the reference selects the
    # singular points as the zeros of the cubic and its three partials
    (mh,) = NODAL.polys
    partials = [MultiHomPoly(NODAL.blocks, mh.poly.derivative(i)) for i in range(3)]
    singular = VarietySpec("nodal-singular", NODAL.blocks, [mh] + partials)
    assert points_on_variety(NODAL, q) == _reference_points(NODAL, q)
    assert smoothness_scan(NODAL, q) == _reference_points(singular, q) == [(0, 0, 1)]


def _evaluate(poly, point, field):
    """The encoding of poly at a point of encodings, term by term."""
    acc = 0
    for exps, c in poly.terms.items():
        t = c % field.p
        for x, e in zip(point, exps):
            if e:
                t = field.mul(t, field.pow(x, e))
        acc = field.add(acc, t)
    return acc


def _rank(rows, field):
    """The rank of a matrix of encodings, by row reduction with the field's
    own rule."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.pow(rows[rank][col], field.order - 2)
        for i in range(rank + 1, len(rows)):
            f = field.neg(field.mul(rows[i][col], inv))
            rows[i] = [field.add(a, field.mul(f, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _local_chart_scan(spec, q):
    """Reference: the rational points where the Jacobian in the point's
    chart (the leading coordinate of each block dropped) has rank below the
    number r of nonzero equations, one point at a time."""
    field = field_of_order(q)
    polys = [mh.poly for mh in spec.polys if not mh.poly.is_zero]
    nvars = sum(len(b) for b in spec.blocks)
    partials = [[f.derivative(c) for c in range(nvars)] for f in polys]
    ends = list(accumulate(len(b) for b in spec.blocks))
    slices = list(zip([0] + ends, ends))
    singular = []
    for point in _reference_points(spec, q):
        leads = {next(i for i in range(lo, hi) if point[i]) for lo, hi in slices}
        local = [c for c in range(nvars) if c not in leads]
        jacobian = [[_evaluate(row[c], point, field) for c in local] for row in partials]
        if _rank(jacobian, field) < len(polys):
            singular.append(point)
    return singular


def _spec(name, blocks, polys):
    return VarietySpec.from_dict({"name": name, "ambient": [len(b) - 1 for b in blocks],
                                  "vars": blocks, "polys": polys})


# random one- and two-equation specs; specs built with singular points: a
# line pair, a quadric cone, a cuspidal cubic, a plane curve doubled by a
# second equation, two quadric cones sharing a vertex, and a (1,2) form on
# P^1 x P^1 that is a square along a fiber; and two smooth ones, a conic
# and two diagonal quadrics in P^3 whose pencil has four distinct
# singular members at p = 5 and 7
SMOOTHNESS_SPECS = {
    "smooth-conic": _spec("smooth-conic", [["x", "y", "z"]], ["x^2+y^2-z^2"]),
    "smooth-quadrics": _spec("smooth-quadrics", [["x", "y", "z", "w"]],
                             ["x^2+y^2+z^2+w^2", "x^2+2*y^2+3*z^2+4*w^2"]),
    "conic": _random_spec(101, [2], [((2,), 3)]),
    "cubic": _random_spec(102, [2], [((3,), 4)]),
    "p1xp1": _random_spec(103, [1, 1], [((2, 2), 4)]),
    "p1xp2": _random_spec(104, [1, 2], [((1, 2), 5)]),
    "two-quadrics": _random_spec(105, [3], [((2,), 3), ((2,), 3)]),
    "two-forms": _random_spec(106, [1, 2], [((1, 1), 3), ((1, 2), 4)]),
    "line-pair": _spec("line-pair", [["x", "y", "z"]], ["x^2-y^2"]),
    "cone": _spec("cone", [["x", "y", "z", "w"]], ["x*y-z^2"]),
    "cusp": _spec("cusp", [["x", "y", "z"]], ["y^2*z-x^3"]),
    "curve-and-plane": _spec("curve-and-plane", [["x", "y", "z", "w"]],
                             ["w", "y^2*z-x^3-x^2*z"]),
    "two-cones": _spec("two-cones", [["x", "y", "z", "w"]], ["x*y-z^2", "x^2-y*z"]),
    "fiber-square": _spec("fiber-square", [["s", "t"], ["a", "b"]], ["s*a^2-2*s*a*b+s*b^2"]),
}


@pytest.mark.parametrize("q", [5, 7, 25])
@pytest.mark.parametrize("name", SMOOTHNESS_SPECS)
def test_smoothness_scan_matches_local_chart_rank(name, q):
    spec = SMOOTHNESS_SPECS[name]
    assert smoothness_scan(spec, q) == _local_chart_scan(spec, q)


def test_smoothness_specs_include_singular_points():
    singular = {name for name, spec in SMOOTHNESS_SPECS.items()
                if smoothness_scan(spec, 7)}
    assert {"line-pair", "cone", "cusp", "curve-and-plane", "two-cones",
            "fiber-square"} <= singular
    assert not {"smooth-conic", "smooth-quadrics"} & singular


def test_smoothness_scan_charges_only_the_equations():
    # a conic over GF(7) is 57 points times 3 terms; its three partials
    # (nine terms with the conic) are not charged
    spec = _spec("conic", [["x", "y", "z"]], ["x^2+y^2-z^2"])
    assert smoothness_scan(spec, 7, budget=57 * 3) == []
    with pytest.raises(counting.CountBudgetError):
        smoothness_scan(spec, 7, budget=57 * 3 - 1)


def test_smoothness_scan_without_equations_finds_nothing():
    spec = _spec("plane", [["x", "y", "z"]], ["0"])
    assert smoothness_scan(spec, 5) == []


@pytest.mark.parametrize("q", [5, 7, 25])
@pytest.mark.parametrize("n", range(5))
def test_projective_rows_follow_the_enumeration(q, n):
    want = np.array(list(enumerate_projective(q, n)), dtype=np.int64).reshape(-1, n + 1)
    total = len(want)
    # the starts of each leading coordinate's run, their neighbours, and
    # cuts that cross several runs
    ends = list(accumulate(q ** (n - l) for l in range(n + 1)))
    cuts = sorted({0, 1, total // 3, total // 2, total - 1, total}
                  | {min(total, e + d) for e in ends for d in (-1, 0, 1)})
    for start, stop in zip(cuts, cuts[1:]):
        got = counting._projective_rows(q, n, np.arange(start, stop))
        assert got.dtype == np.int64
        assert np.array_equal(got, want[start:stop])
    # any ranks, in any order, repeated
    rank = np.random.default_rng(n).integers(0, total, 3 * total)
    assert np.array_equal(counting._projective_rows(q, n, rank), want[rank])
    assert counting._projective_rows(q, n, np.arange(0)).shape == (0, n + 1)


@pytest.mark.parametrize("dims", [[1, 0, 2], [2, 1], [0], [3]])
def test_product_rows_follow_the_product_enumeration(dims):
    want = np.array([sum(point, ()) for point in
                     product(*(enumerate_projective(5, n) for n in dims))],
                    dtype=np.int64).reshape(-1, sum(dims) + len(dims))
    index = np.random.default_rng(len(dims)).integers(0, len(want), 2 * len(want))
    assert np.array_equal(counting._product_rows(5, dims, index), want[index])
    assert np.array_equal(counting._product_rows(5, dims, np.arange(len(want))), want)
