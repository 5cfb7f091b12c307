import random

import pytest

from cfz.fourfold import CUBIC, F_FORM, G_FORM
from cfz.polynomials import (InhomogeneousError, MultiHomPoly, Poly,
                             PolyParseError, parse_poly)

BLOCKS_22 = [["x", "y", "z"], ["u", "v", "w"]]


def test_parse_surface_equation():
    mh = parse_poly("x*u^2+y*v^2+z*w^2", BLOCKS_22)
    assert len(mh.poly.terms) == 3
    assert mh.multidegree == (1, 2)


def test_parse_cancellation_gives_zero():
    mh = parse_poly("x^2*u - x^2*u", BLOCKS_22)
    assert mh.poly.is_zero
    assert mh.multidegree is None
    assert mh.to_text() == "0"


def test_parse_inhomogeneous_rejected():
    with pytest.raises(InhomogeneousError) as e:
        parse_poly("x^2 + u", [["x"], ["u"]])
    assert "mismatched" in str(e.value)


def test_parse_unknown_variable():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x*t", BLOCKS_22)
    assert "t" in str(e.value)


def test_parse_coefficients_and_signs():
    mh = parse_poly("-2*x*u^2 + 3*y*v^2 - z*w^2", BLOCKS_22)
    by_exp = dict(mh.poly.terms)
    assert by_exp[(1, 0, 0, 2, 0, 0)] == -2
    assert by_exp[(0, 1, 0, 0, 2, 0)] == 3
    assert by_exp[(0, 0, 1, 0, 0, 2)] == -1


def test_parse_syntax_errors():
    for bad in ("", "x +", "x*^2", "x^", "2 2", "x^2 y", "5", "x*", "*x"):
        with pytest.raises(PolyParseError):
            parse_poly(bad, BLOCKS_22)


def test_canonical_text_round_trip():
    mh = parse_poly("z*w^2 - 7*x*u^2 + y*v^2", BLOCKS_22)
    again = parse_poly(mh.to_text(), BLOCKS_22)
    assert again == mh


def test_poly_ring_operations():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (p - p).is_zero


def test_poly_is_false_exactly_when_zero():
    for n in range(4):
        assert not Poly.zero(n)
        assert Poly.constant(n, -3)
    x = Poly.variable(2, 0)
    assert x and not x - x and x * x - x


def test_poly_substitute_and_evaluate():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * x + y
    # x -> x + y, y -> x*y
    q = p.substitute([x + y, x * y])
    assert q == x * x + 2 * x * y + y * y + x * y
    assert p.evaluate([3, 4]) == 13
    assert p.evaluate([3, 4], mod=5) == 3


def _substitute_term_by_term(poly, values):
    # reference: each term through Poly arithmetic, one Poly per partial sum
    nv = values[0].nvars if values else poly.nvars
    result = Poly.zero(nv)
    for exps, c in poly.terms.items():
        term = Poly.constant(nv, c)
        for i, e in enumerate(exps):
            if e:
                term = term * values[i] ** e
        result = result + term
    return result


def _random_poly(rng, nvars, nterms, max_exp, coeffs=range(-3, 4)):
    return Poly(nvars, {tuple(rng.randrange(max_exp + 1) for _ in range(nvars)):
                        rng.choice(coeffs) for _ in range(nterms)})


def test_substitute_matches_term_by_term_reference():
    rng = random.Random(9)
    cases = []
    for nvars, nv in ((1, 1), (2, 3), (3, 2), (4, 4)):
        for _ in range(6):
            poly = _random_poly(rng, nvars, rng.randrange(1, 6), 3)
            values = [_random_poly(rng, nv, rng.randrange(0, 4), 2) for _ in range(nvars)]
            cases.append((poly, values))
    three = [_random_poly(rng, 3, 3, 2) for _ in range(3)]
    cases += [(Poly.zero(3), three), (Poly.constant(3, 5), three),
              (Poly.constant(0, 7), [])]
    x, u, y, v, z, w = (Poly.variable(6, i) for i in range(6))
    images = [x * F_FORM, u * G_FORM, y * F_FORM, v * G_FORM, z * F_FORM, w * G_FORM]
    cases += [(CUBIC, images), (F_FORM, images), (G_FORM * G_FORM, images)]
    for poly, values in cases:
        got = poly.substitute(values)
        assert got == _substitute_term_by_term(poly, values)
        assert all(got.terms.values())
    assert Poly.zero(3).substitute(three).is_zero
    assert Poly.constant(3, 5).substitute(three) == Poly.constant(3, 5)
    assert CUBIC.substitute(images).is_zero
    assert not G_FORM.substitute(images).is_zero


def test_substitute_rejects_mixed_variable_sets():
    with pytest.raises(ValueError):
        Poly.variable(2, 0).substitute([Poly.variable(2, 0), Poly.variable(3, 0)])


def test_poly_derivative():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x ** 3 * y + 2 * y
    assert p.derivative(0) == 3 * x * x * y
    assert p.derivative(1) == x ** 3 + Poly.constant(2, 2)


def test_duplicate_variable_names_rejected():
    with pytest.raises(PolyParseError):
        parse_poly("x*u", [["x", "y"], ["u", "x"]])


def test_blocks_mismatch_in_multihom():
    with pytest.raises(ValueError):
        MultiHomPoly([["x"], ["u"]], Poly(3, {(1, 0, 0): 1}))
