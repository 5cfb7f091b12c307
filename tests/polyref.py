"""A reference evaluation of ``cfz.polynomials.Poly`` at integer points,
for the tests that check the library's polynomial arithmetic and
counts against it."""

import math


def evaluate(poly, values, mod=None):
    """poly at the integers ``values``, reduced mod ``mod`` when one is given."""
    if len(values) != poly.nvars:
        raise ValueError("evaluation needs one value per variable")
    total = sum(c * math.prod(x ** e for x, e in zip(values, exps))
                for exps, c in poly.terms.items())
    return total if mod is None else total % mod
