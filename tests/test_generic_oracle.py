"""The generic oracle against a per-point evaluator.

The reference below walks the product of projective spaces one point at a
time and evaluates every equation with ``FiniteField.add`` and
``FiniteField.mul`` (memoised), so it shares neither the table set nor the
numpy kernel with ``count_points_generic`` and ``points_on_variety``.
"""

import random
from functools import lru_cache
from itertools import product

import pytest

from cfz import counting
from cfz.counting import CHUNK_CELLS, VarietySpec, count_points_generic, points_on_variety
from cfz.fields import enumerate_projective, field_of_order


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
    """The rational points over GF(q) as encoding tuples, one block per
    tuple, in the order of the product enumeration."""
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
            found.append(point)
    return found


# name: (dims, equations); a fold group holds at most p + 1 terms, so 12
# and 14 terms fold at p = 5 and 7
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
    got = [tuple(tuple(x.encoding for x in block) for block in pt)
           for pt in points_on_variety(spec, q)]
    assert got == want


def test_derived_tables_fit_in_mul(monkeypatch):
    # 56 terms, as many as a general cubic in P^5 has, on P^1 x P^1, which
    # is small enough to check point by point
    q = 125
    spec = _random_spec(56, [1, 1], [((7, 6), 56)])
    seen, real = [], counting._spread_tables

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(counting, "_spread_tables", spy)
    assert count_points_generic(spec, q).count == len(_reference_points(spec, q))
    [(g, spread_mul, fold)] = seen
    assert g < 56  # the sum folds between groups
    assert spread_mul.size <= q * q and fold.size <= q * q
