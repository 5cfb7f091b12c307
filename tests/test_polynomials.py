import random

import pytest

from cfz.fourfold import CUBIC, F_FORM, G_FORM
from cfz.polynomials import (_TOKEN, InhomogeneousError, MultiHomPoly, Poly,
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


def _random_poly(rng, nvars, nterms, max_exp, coeffs=range(-3, 4)):
    return Poly(nvars, {tuple(rng.randrange(max_exp + 1) for _ in range(nvars)):
                        rng.choice(coeffs) for _ in range(nterms)})


def test_substitute_agrees_with_evaluation_at_random_points():
    # oracle: evaluating p.substitute(v) at x is evaluating p at the values
    # v_i(x), which expands nothing
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
        nv = values[0].nvars if values else poly.nvars
        assert got.nvars == nv
        for _ in range(8):
            x = [rng.randint(-50, 50) for _ in range(nv)]
            assert got.evaluate(x) == poly.evaluate([vi.evaluate(x) for vi in values])
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


def _reference_parse_poly(text, blocks):
    # reference: the token-flag parser that parse_poly replaced, kept
    # verbatim; its two flags track whether a term has begun (first) and
    # whether a '*' must come next (need_sep)
    blocks = tuple(tuple(b) for b in blocks)
    names = [v for b in blocks for v in b]
    index = {v: i for i, v in enumerate(names)}
    if len(index) != len(names):
        raise PolyParseError("duplicate variable names across blocks")
    if text.strip() == "0":
        return MultiHomPoly(blocks, Poly.zero(len(names)))
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise PolyParseError("empty polynomial text")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        t = peek()
        pos += 1
        return t

    terms = {}

    def parse_term(sign):
        coeff = sign
        exps = [0] * len(names)
        first = True
        need_sep = False
        while True:
            t = peek()
            if t is None or t in "+-":
                break
            if t == "*":
                take()
                if not need_sep:
                    raise PolyParseError("unexpected '*'")
                need_sep = False
                continue
            if need_sep:
                raise PolyParseError(f"missing '*' before {t!r}")
            take()
            if t.isdigit():
                if not first:
                    raise PolyParseError(
                        f"integer coefficient must lead the term, got {t!r}")
                coeff *= int(t)
            elif t == "^":
                raise PolyParseError("'^' without a variable")
            else:
                if t not in index:
                    raise PolyParseError(f"unknown variable {t!r}")
                e = 1
                if peek() == "^":
                    take()
                    nt = take()
                    if nt is None or not nt.isdigit():
                        raise PolyParseError(f"bad exponent after {t!r}")
                    e = int(nt)
                exps[index[t]] += e
            first = False
            need_sep = True
        if first:
            raise PolyParseError("empty term")
        if not need_sep:
            raise PolyParseError("dangling '*'")
        if not any(exps):
            raise PolyParseError("term without a variable")
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff

    sign = 1
    if peek() == "-":
        take()
        sign = -1
    elif peek() == "+":
        take()
    parse_term(sign)
    while peek() is not None:
        t = take()
        if t == "+":
            parse_term(1)
        elif t == "-":
            parse_term(-1)
        else:
            raise PolyParseError(f"expected '+' or '-', got {t!r}")

    return MultiHomPoly(blocks, Poly(len(names), terms))


# block layouts for the differential runs; the last repeats a name
PARSE_LAYOUTS = (BLOCKS_22, [["x", "y"]], [["a"], ["b", "c"], ["d", "x"]],
                 [["x", "y"], ["u", "x"]])
# tokens of every kind, run together or spaced apart: names in and out of
# the layouts, integers ("٣" is a decimal digit, "²" a digit that is not),
# the four operators, and other characters
PARSE_TOKENS = ("x", "y", "z", "u", "v", "w", "a", "b", "c", "d", "t", "x1",
                "0", "1", "2", "3", "10", "007", "٣", "²",
                "^", "*", "+", "-", "^", "*", "+", "-", "$", "é", "(")
PARSE_GAPS = ("", "", " ", "  ", "\t")


def _random_token_text(rng):
    return "".join(rng.choice(PARSE_TOKENS) + rng.choice(PARSE_GAPS)
                   for _ in range(rng.randrange(8)))


def _grammar_shaped_text(rng, blocks):
    # a polynomial of one multidegree in the grammar's free forms: signs,
    # coefficients, factors in any order, a variable split over repeated
    # factors, exponents 0 and 1 written out, spacing anywhere; now and
    # then a name outside the layout
    names = [v for b in blocks for v in b] + ["t"] * (rng.random() < 0.05)
    degree = [rng.randrange(3) for _ in blocks]
    gap = lambda: rng.choice(("", "", "", " ", "  ", "\t"))
    power = lambda v, e: f"{v}{gap()}^{gap()}{e}"
    text = rng.choice(("", "", "+", "-")) + gap()
    for i in range(rng.randrange(1, 5)):
        if i:
            text += gap() + rng.choice("+-") + gap()
        if rng.random() < 0.4:
            text += str(rng.randrange(12)) + gap() + "*" + gap()
        factors = [power(rng.choice(names), 0) for _ in range(rng.randrange(2))]
        for block, d in zip(blocks, degree):
            picks = [rng.choice(block) for _ in range(d)]
            for v in sorted(set(picks)):
                e = picks.count(v)
                if rng.random() < 0.5:
                    factors += [v] * e
                else:
                    factors.append(power(v, e) if e > 1 or rng.random() < 0.3 else v)
        rng.shuffle(factors)
        text += (gap() + "*" + gap()).join(factors or ["t"])
    return text


def _parse_outcome(parser, text, blocks):
    """What a parse gives: the terms, multidegree and canonical text, or
    the class of the error.  A bare ValueError from int() on a digit that
    is not decimal, such as '²', is the reference's crash where parse_poly
    refuses the text: both count as a PolyParseError."""
    try:
        mh = parser(text, blocks)
    except ValueError as e:
        return PolyParseError if type(e) is ValueError else type(e)
    return mh.poly.terms, mh.multidegree, mh.to_text()


def parse_mismatches(seed, n_random, n_shaped):
    """Texts, with their layout, on which parse_poly and the reference
    disagree: n_random token strings and n_shaped grammar-shaped
    polynomials per layout."""
    rng = random.Random(seed)
    bad = []
    for blocks in PARSE_LAYOUTS:
        texts = [_random_token_text(rng) for _ in range(n_random)]
        texts += [_grammar_shaped_text(rng, blocks) for _ in range(n_shaped)]
        bad += [(text, blocks) for text in texts
                if _parse_outcome(parse_poly, text, blocks)
                != _parse_outcome(_reference_parse_poly, text, blocks)]
    return bad


def test_parse_poly_matches_the_reference_parser():
    assert parse_mismatches(seed=22, n_random=5000, n_shaped=1250) == []


def test_parse_accepts_the_documented_language():
    ok = {"0": "0", " 0 ": "0", "+x*u": "x*u", "- x ^ 2 * u": "-x^2*u",
          "2*x*x*u - x^2*u": "x^2*u", "x^0*y*u": "y*u", "0*x*u": "0",
          "x^٣": "x^3", "007*x": "7*x"}
    for text, canonical in ok.items():
        assert parse_poly(text, BLOCKS_22).to_text() == canonical
    for bad in ("x*2", "2*3*x", "2 x", "x^0", "+0", "-", "x^²", "²*x", "x $ y"):
        with pytest.raises(PolyParseError):
            parse_poly(bad, BLOCKS_22)
