"""The generic oracle against a per-point evaluator.

The reference below walks the product of projective spaces one point at a
time and evaluates every equation with ``FiniteField.add`` and
``FiniteField.mul`` (memoised), so it shares neither the table set nor the
numpy kernel with ``count_points_generic``, ``points_on_variety`` and
``smoothness_scan``.
"""

import random
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from cfz import counting
from cfz.counting import (CHUNK_CELLS, VarietySpec, count_points_generic, points_on_variety,
                          smoothness_scan)
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
    equations = [[(exps, c % field.char) for exps, c in mh.poly.sorted_terms()]
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


@pytest.mark.parametrize("cells", [1, 1000, CHUNK_CELLS])
@pytest.mark.parametrize("q", [5, 7, 25, 125])
@pytest.mark.parametrize("name", CASES)
def test_generic_oracle_matches_point_by_point(monkeypatch, name, q, cells):
    spec, want = _case(name, q)
    monkeypatch.setattr(counting, "CHUNK_CELLS", cells)
    assert count_points_generic(spec, q).count == len(want)
    assert points_on_variety(spec, q) == want


def test_many_terms_over_gf_125_in_float32():
    # 56 terms, as many as a general cubic in P^5 has, on P^1 x P^1, which
    # is small enough to check point by point: 56 * 3 digit products of at
    # most 4^2 each stay far below float32's 2^23
    q = 125
    spec = _random_spec(56, [1, 1], [((7, 6), 56)])
    assert counting._exact_dtype(5, 56 * 3) is np.float32
    assert count_points_generic(spec, q).count == len(_reference_points(spec, q))


def test_large_prime_in_float64():
    # z * (a - 2b)(a - 3b)...(a - 21b) on P^0 x P^1 at p = 1999: 21 terms
    # whose coefficients meet monomial values up to 1998 on the second
    # block, so a dot product reaches past 2^24, where float32 would round
    # it, and T * (p - 1)^2 >= 2^23 selects float64
    p, roots = 1999, range(2, 22)
    coeffs = [1]
    for r in roots:
        coeffs = [(x - r * y) % p for x, y in zip(coeffs + [0], [0] + coeffs)]
    poly = "+".join(f"{c}*z*a^{20 - i}*b^{i}" for i, c in enumerate(coeffs))
    spec = VarietySpec.from_dict({"name": "binary-form", "ambient": [0, 1],
                                  "vars": [["z"], ["a", "b"]], "polys": [poly]})
    assert len(spec.polys[0].poly.terms) == 21
    assert counting._exact_dtype(p, 21) is np.float64
    want = _reference_points(spec, p)
    assert sorted(want) == sorted((1, 1, pow(r, -1, p)) for r in roots)
    assert count_points_generic(spec, p).count == len(roots)
    assert points_on_variety(spec, p) == want


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
