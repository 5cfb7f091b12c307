"""Trace bookkeeping and local Euler factors.

Counts over GF(p) and GF(p^2) are converted to Frobenius traces on the
middle cohomology, the degree-23 cohomology of the Hilbert square and of
the cubic fourfold are realized as exact count identities, and the local
factor list of the fourfold is assembled from the surface data:

    P0 = 1 - T
    P2 = 1 - pT
    P4 = (1 - p^2 T)^{m+} (1 + p^2 T)^{m-} (1 - p^2 T) (1 - p a_p T + e p^4 T^2)
    P6 = 1 - p^3 T
    P8 = 1 - p^4 T

with m+ + m- = 20 the rank of the algebraic part of H^2 of the surface,
m+ - m- the signed number of Frobenius-fixed algebraic classes, the lone
(1 - p^2 T) the class of the exceptional divisor, and the quadratic the
weight-3 CM form factor shifted by one Tate twist.  That form has
nebentypus chi_{-3}, so e = chi_{-3}(p) is +1 at primes 1 mod 3 and -1 at
the inert primes 2 mod 3, where a_p = 0 and the factor is 1 - p^4 T^2.
Everything is exact integer arithmetic; there are no floating-point
eigenvalues anywhere.

S, X and the Fermat cubic have good reduction at every prime but 3;
``local_factor_cm`` refuses 3, so no factor there is ever guessed.
"""

from collections import namedtuple
from typing import NamedTuple

from .fields import check_prime

K3_B2 = 22          # second Betti number of a K3 surface
NS_RANK = 20        # Picard rank of the singular surface S
FOURFOLD_B4 = 23    # middle Betti number of a cubic fourfold


class InconsistentCountError(ArithmeticError, ValueError):
    """A count or trace that the surface's cohomology cannot produce: the
    mathematics disagrees, as opposed to malformed input."""


class TraceRecord(NamedTuple):
    """Frobenius trace data extracted from a count N1 = #S(F_p)."""

    p: int
    t2: int          # trace on H^2: N1 - 1 - p^2
    residue: int     # (N1 - 1) mod p, the transcendental trace mod p


def trace_from_count(n1: int, p: int) -> TraceRecord:
    """Lefschetz: N1 = 1 + t2 + p^2 for a K3 surface, with |t2| <= 22p."""
    t2 = n1 - 1 - p * p
    if abs(t2) > K3_B2 * p:
        raise InconsistentCountError(
            f"impossible K3 count: |{t2}| > 22*{p} violates the Weil bound")
    return TraceRecord(p, t2, (n1 - 1) % p)


def residue_zero_check(p: int, n1: int) -> bool:
    """For inert primes the transcendental trace vanishes mod p."""
    if p % 3 != 2:
        raise ValueError(f"{p} is not 2 mod 3")
    return (n1 - 1) % p == 0


def hilbert_square_count(n1: int, n2: int, p: int) -> int:
    """#S^[2](F_p) = (N1^2 + N2)/2 + p*N1.

    The first summand counts Frobenius-stable unordered pairs of
    geometric points, the second replaces each diagonal point by the
    exceptional line.  N1^2 + N2 must be even; an odd value cannot come
    from Frobenius-stable pair counting.
    """
    if (n1 * n1 + n2) % 2 != 0:
        raise ValueError(f"N1^2 + N2 = {n1 * n1 + n2} is odd; inconsistent pair counts")
    return (n1 * n1 + n2) // 2 + p * n1


def fourfold_count_from_surface(n1: int, p: int) -> int:
    """#X(F_p) = 1 + p^2 + p^4 + p*N1 from the middle-cohomology decomposition."""
    return 1 + p * p + p ** 4 + p * n1


def algebraic_trace_split(t2: int, a_p: int, p: int) -> int:
    """Split the H^2 trace as t2 = t_alg + a_p; t_alg must be p times the
    number of fixed minus flipped classes of NS(S), an integer of absolute
    value at most 20 and of the parity of 20."""
    t_alg = t2 - a_p
    if t_alg % p != 0:
        raise InconsistentCountError(
            f"algebraic trace {t_alg} not divisible by p={p}; decomposition inconsistent")
    if abs(t_alg // p) > NS_RANK:
        raise InconsistentCountError(
            f"|t_alg/p| = {abs(t_alg // p)} exceeds the algebraic rank 20")
    if (t_alg // p) % 2:
        raise InconsistentCountError(
            f"t_alg/p = {t_alg // p} is odd, but NS(S) has even rank 20")
    return t_alg


class LocalFactor(namedtuple("LocalFactor", "p weight coeffs")):
    """Integer polynomial in T = p^{-s} with constant term 1."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # validates _replace too

    def __new__(cls, p, weight, coeffs):
        if not coeffs or coeffs[0] != 1:
            raise ValueError("local factor must have constant term 1")
        return super().__new__(cls, p, weight, coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def to_json(self) -> dict:
        return {"p": self.p, "weight": self.weight, "coeffs": list(self.coeffs)}


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _chi_minus3(p: int) -> int:
    """The nebentypus of the CM form at a good prime: +1 if p = 1 mod 3,
    -1 if p = 2 mod 3."""
    return 1 if p % 3 == 1 else -1


def local_factor_cm(a_p: int, p: int, tate_shift: int) -> LocalFactor:
    """Degree-2 factor of the CM form, 1 - a_p T + chi_{-3}(p) p^2 T^2, with
    each Tate shift multiplying the inverse roots by p."""
    check_prime(p)
    if p == 3:
        raise ValueError("bad prime 3")
    if abs(a_p) > 2 * p:
        raise ValueError(f"|a_p| = {abs(a_p)} violates the weight-3 bound 2p = {2 * p}")
    if tate_shift not in (0, 1):
        raise ValueError("tate_shift must be 0 or 1")
    s = p ** tate_shift
    return LocalFactor(p, 2 + 2 * tate_shift, (1, -a_p * s, _chi_minus3(p) * p * p * s * s))


class CohomologyDecomposition(namedtuple("CohomologyDecomposition", "group betti pieces")):
    """Labelled pieces (label, dimension, inverse-root description) of one
    cohomology group; dimensions must sum to the group's Betti number."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # validates _replace too

    def __new__(cls, group, betti, pieces):
        total = sum(dim for _, dim, _ in pieces)
        if total != betti:
            raise ValueError(f"{group}: piece dimensions sum to {total}, not {betti}")
        return super().__new__(cls, group, betti, pieces)


def fourfold_h4_decomposition(p: int, a_p: int, ns_fixed: int) -> CohomologyDecomposition:
    """The 23-dimensional middle cohomology of the fourfold: 20 algebraic
    surface classes with eigenvalue +-p^2, the exceptional class at p^2,
    and the Tate-twisted transcendental plane."""
    m_plus, m_minus = _ns_split(ns_fixed)
    return CohomologyDecomposition(
        "H4(X)", FOURFOLD_B4,
        (
            ("NS(S)(1) fixed", m_plus, f"eigenvalue {p * p}"),
            ("NS(S)(1) flipped", m_minus, f"eigenvalue {-p * p}"),
            ("Delta(1)", 1, f"eigenvalue {p * p}"),
            ("T(S)(1)", 2, _roots_label(local_factor_cm(a_p, p, 1))),
        ))


def hilbert_square_h2_decomposition(p: int, a_p: int, ns_fixed: int) -> CohomologyDecomposition:
    """The 23-dimensional H^2 of the Hilbert square: the 22 surface classes
    untwisted, plus the exceptional divisor class at eigenvalue p."""
    m_plus, m_minus = _ns_split(ns_fixed)
    return CohomologyDecomposition(
        "H2(S[2])", K3_B2 + 1,
        (
            ("NS(S) fixed", m_plus, f"eigenvalue {p}"),
            ("NS(S) flipped", m_minus, f"eigenvalue {-p}"),
            ("Delta", 1, f"eigenvalue {p}"),
            ("T(S)", 2, _roots_label(local_factor_cm(a_p, p, 0))),
        ))


def _roots_label(factor: LocalFactor) -> str:
    """'roots of 1 + 13 T + 49 T^2': each coefficient with its own sign,
    zero terms left out."""
    text = "roots of 1"
    for i, c in enumerate(factor.coeffs[1:], 1):
        if c:
            text += f" {'-' if c < 0 else '+'} {abs(c)} T" + (f"^{i}" if i > 1 else "")
    return text


def _ns_split(ns_fixed: int):
    if abs(ns_fixed) > NS_RANK or (NS_RANK + ns_fixed) % 2 != 0:
        raise ValueError(
            f"inconsistent ns_fixed {ns_fixed}: need |ns_fixed| <= 20 of the same parity as 20")
    m_plus = (NS_RANK + ns_fixed) // 2
    return m_plus, NS_RANK - m_plus


def assemble_fourfold_factors(p: int, a_p: int, ns_fixed: int):
    """Local factors P0, P2, P4, P6, P8 of the fourfold at a good prime."""
    m_plus, m_minus = _ns_split(ns_fixed)
    p2 = p * p
    quad = [1]
    for _ in range(m_plus + 1):  # fixed algebraic classes plus the exceptional class
        quad = _poly_mul(quad, [1, -p2])
    for _ in range(m_minus):
        quad = _poly_mul(quad, [1, p2])
    quad = _poly_mul(quad, list(local_factor_cm(a_p, p, 1).coeffs))
    return [
        LocalFactor(p, 0, (1, -1)),
        LocalFactor(p, 2, (1, -p)),
        LocalFactor(p, 4, tuple(quad)),
        LocalFactor(p, 6, (1, -p ** 3)),
        LocalFactor(p, 8, (1, -p ** 4)),
    ]


def power_sums(coeffs, k: int):
    """s_1, ..., s_k, s_j the sum of the j-th powers of the inverse roots
    of 1 + c_1 T + c_2 T^2 + ..., by Newton's identities:
    s_j = -j c_j - sum_{i < j} c_i s_{j-i}, with c_i = 0 past the degree."""
    c = list(coeffs) + [0] * k
    sums = []
    for j in range(1, k + 1):
        sums.append(-j * c[j] - sum(c[i] * sums[j - i - 1] for i in range(1, j)))
    return sums


def reconstruct_count(factors, k: int = 1) -> int:
    """Point count over GF(p^k) from the factor list: the alternating sum
    over weights of the k-th power sums of the inverse roots."""
    return sum((-1) ** f.weight * power_sums(f.coeffs, k)[-1] for f in factors)
