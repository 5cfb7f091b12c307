"""Sparse exact-coefficient multivariate polynomials and the
multihomogeneous layer used to define varieties in products of
projective spaces.

``Poly`` is the plain workhorse: a dict from exponent tuples to nonzero
integer coefficients.  ``MultiHomPoly`` adds a block structure over
named variables and enforces that every term has the same degree in
each block.

The text grammar accepted by ``parse_poly``:

    poly   := "0" | [sign] term (sign term)*
    sign   := "+" | "-"
    term   := [int "*"] factor ("*" factor)*
    factor := var ["^" int]

A token is a name [A-Za-z_][A-Za-z_0-9]*, an integer (decimal digits),
one of ^ * + -, or any other single non-space character; whitespace may
stand between any two.  A var is a token that is a variable name of the
blocks and neither an operator nor a string of digits.  A term needs a
var with a positive exponent ("5" and "x^0" are refused, "x^0*y" is y).
Repeated variables add their exponents and like terms add, so the text
may cancel to zero.
"""

import re


class PolyParseError(ValueError):
    """Malformed polynomial text or unknown variable."""


class InhomogeneousError(ValueError):
    """Terms with mismatched per-block degrees."""


class Poly:
    """Sparse polynomial in a fixed number of variables, exact coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        return cls(nvars, {tuple(exps): c})

    @classmethod
    def variable(cls, nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls.monomial(nvars, exps)

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("polynomials over different variable sets")
            return other
        return Poly.constant(self.nvars, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.nvars, out)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.nvars, out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.nvars, 1)
        for _ in range(e):
            result = result * self
        return result

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.nvars == self.nvars
                and other.terms == self.terms)

    def substitute(self, values):
        """Plug a Poly in for each variable; values has length nvars."""
        if len(values) != self.nvars:
            raise ValueError("substitution needs one polynomial per variable")
        nv = values[0].nvars if values else self.nvars
        if any(v.nvars != nv for v in values):
            raise ValueError("polynomials over different variable sets")
        out = Poly.zero(nv)
        for exps, c in self.terms.items():
            term = Poly.constant(nv, c)
            for v, e in zip(values, exps):
                if e:
                    term = term * v ** e
            out = out + term
        return out

    def derivative(self, i: int):
        out = {}
        for exps, c in self.terms.items():
            if exps[i]:
                e = list(exps)
                e[i] -= 1
                out[tuple(e)] = out.get(tuple(e), 0) + c * exps[i]
        return Poly(self.nvars, out)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        bits = [f"{c}*{e}" for e, c in self.sorted_terms()]
        return "Poly(" + " + ".join(bits) + ")"


class MultiHomPoly:
    """Polynomial on a product of projective spaces, homogeneous per block.

    blocks: tuple of variable-name tuples, one per factor; the underlying
    Poly runs over the concatenation of all blocks.  multidegree is None
    exactly for the zero polynomial.
    """

    __slots__ = ("blocks", "poly", "multidegree")

    def __init__(self, blocks, poly: Poly):
        blocks = tuple(tuple(b) for b in blocks)
        names = [v for b in blocks for v in b]
        if len(set(names)) != len(names):
            raise PolyParseError("duplicate variable names across blocks")
        if poly.nvars != len(names):
            raise ValueError("polynomial has the wrong number of variables")
        self.blocks = blocks
        self.poly = poly
        self.multidegree = self._check_homogeneous()

    def block_slices(self):
        out = []
        start = 0
        for b in self.blocks:
            out.append((start, start + len(b)))
            start += len(b)
        return out

    def _check_homogeneous(self):
        if self.poly.is_zero:
            return None
        slices = self.block_slices()
        exps = [e for e, _ in self.poly.sorted_terms()]
        degs = [tuple(sum(e[a:b]) for a, b in slices) for e in exps]
        bad = [self._term_text(e) for e, d in zip(exps, degs) if d != degs[0]]
        if bad:
            raise InhomogeneousError(
                "terms with mismatched block degrees: " + ", ".join(bad))
        return degs[0]

    @property
    def names(self):
        return tuple(v for b in self.blocks for v in b)

    def _term_text(self, exps, coeff=None):
        factors = []
        for name, e in zip(self.names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors) if factors else "1"
        if coeff is None or coeff == 1:
            return body
        if coeff == -1:
            return "-" + body
        return f"{coeff}*{body}"

    def to_text(self) -> str:
        """Canonical text form (sorted terms); parses back to the same object."""
        if self.poly.is_zero:
            return "0"
        parts = []
        for exps, c in self.poly.sorted_terms():
            t = self._term_text(exps, c)
            if parts and not t.startswith("-"):
                parts.append("+" + t)
            else:
                parts.append(t)
        return "".join(parts)

    def __eq__(self, other):
        return (isinstance(other, MultiHomPoly) and other.blocks == self.blocks
                and other.poly == self.poly)

    def __repr__(self):
        return f"MultiHomPoly({self.to_text()!r})"


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|[\^*+-]|\S")
_SIGNS = {"+": 1, "-": -1}


def parse_poly(text: str, blocks) -> MultiHomPoly:
    """Parse polynomial text, in the grammar of the module docstring, over
    the given variable blocks: a sequence of sequences of variable names,
    e.g. [["x","y","z"], ["u","v","w"]] for P^2 x P^2."""
    blocks = tuple(tuple(b) for b in blocks)
    names = [v for b in blocks for v in b]
    if text.strip() == "0":
        return MultiHomPoly(blocks, Poly.zero(len(names)))
    # a name that reads as an operator or an integer is never a var
    index = {v: i for i, v in enumerate(names) if v not in "^*+-" and not v.isdigit()}
    tokens = _TOKEN.findall(text)[::-1]  # the next token is the last
    terms = {}

    def skip(t):
        found = bool(tokens) and tokens[-1] == t
        if found:
            tokens.pop()
        return found

    def take(wanted, ok):
        if not tokens:
            raise PolyParseError(f"text ended where {wanted} was expected")
        t = tokens.pop()
        if not ok(t):
            raise PolyParseError(f"expected {wanted}, got {t!r}")
        return t

    def factor(exps):
        t = take("a known variable", index.__contains__)
        e = int(take(f"an exponent after {t!r}", str.isdecimal)) if skip("^") else 1
        exps[index[t]] += e

    def term(coeff):
        if tokens and tokens[-1].isdecimal():
            coeff *= int(tokens.pop())
            take("'*' after a coefficient", "*".__eq__)
        exps = [0] * len(names)
        factor(exps)
        while skip("*"):
            factor(exps)
        if not any(exps):
            raise PolyParseError("term without a variable")
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff

    term(_SIGNS[tokens.pop()] if tokens and tokens[-1] in _SIGNS else 1)
    while tokens:
        term(_SIGNS[take("'+' or '-'", _SIGNS.__contains__)])
    return MultiHomPoly(blocks, Poly(len(names), terms))
