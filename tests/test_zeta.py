import random

import pytest

from cfz.cmforms import ap_base
from cfz.counting import builtin_variety, count_pairsum_convolution, count_S_fibered
from cfz.fields import field_of_order, is_prime
from cfz.zeta import (CohomologyDecomposition, LocalFactor,
                      algebraic_trace_split, assemble_fourfold_factors,
                      fourfold_count_from_surface, fourfold_h4_decomposition,
                      hilbert_square_count, hilbert_square_h2_decomposition,
                      local_factor_cm, power_sums, reconstruct_count,
                      residue_zero_check, trace_from_count,
                      InconsistentCountError)

TABLE = {7: 177, 13: 429, 19: 753, 31: 1536, 37: 2157}
RESIDUES = {7: 1, 13: 12, 19: 11, 31: 16, 37: 10}


def test_trace_from_count_table():
    for p, n1 in TABLE.items():
        tr = trace_from_count(n1, p)
        assert tr.t2 == n1 - 1 - p * p
        assert tr.residue == RESIDUES[p]
    assert trace_from_count(177, 7).t2 == 127


def test_trace_zero_input():
    tr = trace_from_count(1 + 0 + 11 * 11, 11)
    assert tr.t2 == 0 and tr.residue == 0


def test_trace_weil_bound_guard():
    with pytest.raises(ValueError):
        trace_from_count(1 + 23 * 7 + 49, 7)
    with pytest.raises(ValueError):
        trace_from_count(177, 6)


def test_residue_zero_at_inert_primes():
    for p in (5, 11, 17, 23, 29):
        n1 = count_S_fibered(p, 1).count
        assert residue_zero_check(p, n1)
    with pytest.raises(ValueError):
        residue_zero_check(7, 177)


def test_hilbert_square_symbolic_identity():
    # with N1 = 1 + t + p^2 and N2 = 1 + t' + p^4 the count equals the trace
    # over Betti numbers (1, 0, 23, 0, 276, 0, 23, 0, 1):
    # 1 + (t+p) + ((t+p)^2 + t' + p^2)/2 + p^2 (t+p) + p^4
    rng = random.Random(1)
    primes = [p for p in range(5, 98) if is_prime(p)]
    for _ in range(100):
        t = rng.randint(-60, 60)
        t2 = rng.randint(-600, 600)
        p = rng.choice(primes)
        n1 = 1 + t + p * p
        n2 = 1 + t2 + p ** 4
        if (n1 * n1 + n2) % 2:
            t2 += 1
            n2 += 1
        s = t + p
        expected = 1 + s + (s * s + t2 + p * p) // 2 + p * p * s + p ** 4
        assert hilbert_square_count(n1, n2, p) == expected


def test_hilbert_square_parity_guard():
    # an odd N1^2 + N2 cannot arise from Frobenius-stable pair counting
    with pytest.raises(ValueError):
        hilbert_square_count(1 + 49, 2 + 2401, 7)


def test_hilbert_square_orbit_oracle(s_over_49_count, s_over_49_points):
    n1 = count_S_fibered(7, 1).count
    n2 = s_over_49_count
    index = {pt: i for i, pt in enumerate(s_over_49_points)}
    assert len(index) == n2
    field = field_of_order(49)
    fixed = 0
    two_orbits = set()
    for i, pt in enumerate(s_over_49_points):
        image = tuple(field.pow(e, 7) for e in pt)
        j = index[image]
        if i == j:
            fixed += 1
        else:
            two_orbits.add((min(i, j), max(i, j)))
    assert fixed == n1
    stable_pairs = fixed + fixed * (fixed - 1) // 2 + len(two_orbits)
    assert hilbert_square_count(n1, n2, 7) == stable_pairs + 7 * n1


def test_fourfold_count_identity():
    assert fourfold_count_from_surface(177, 7) == 3690
    assert fourfold_count_from_surface(429, 13) == 34308
    for p in (5, 11):
        n1 = 1 + 0 + p * p
        assert fourfold_count_from_surface(n1, p) == 1 + p + p ** 2 + p ** 3 + p ** 4


def test_count_identities_check_nothing_about_p():
    # #X = 1 + p^2 + p^4 + p #S over GF(2) and GF(3) as well, and 2 is a
    # prime of good reduction, where f's factor is 1 - 4 T^2
    assert fourfold_count_from_surface(21, 2) == 63
    assert fourfold_count_from_surface(34, 3) == 193
    assert trace_from_count(21, 2).t2 == 16
    assert local_factor_cm(0, 2, 0) == LocalFactor(2, 2, (1, 0, -4))
    with pytest.raises(ValueError, match="bad prime 3"):
        local_factor_cm(0, 3, 0)


def test_fourfold_identity_against_convolution():
    X = builtin_variety("X")
    for p in (5, 7, 11, 13):
        n1 = count_S_fibered(p, 1).count
        assert fourfold_count_from_surface(n1, p) == count_pairsum_convolution(X, p).count


def test_algebraic_trace_split():
    assert algebraic_trace_split(127, -13, 7) == 140
    assert algebraic_trace_split(259, -1, 13) == 260
    assert algebraic_trace_split(-13, -13, 7) == 0
    for p, n1 in TABLE.items():
        t2 = trace_from_count(n1, p).t2
        assert algebraic_trace_split(t2, ap_base(p), p) == 20 * p
    with pytest.raises(ValueError):
        algebraic_trace_split(128, -13, 7)      # not divisible by 7
    with pytest.raises(ValueError):
        algebraic_trace_split(21 * 7, 0, 7)     # rank above 20
    with pytest.raises(InconsistentCountError, match="odd"):
        algebraic_trace_split(120, -13, 7)      # t_alg = 19 * 7: 19 classes fixed of 20


def test_local_factor_cm():
    assert local_factor_cm(-13, 7, 0).coeffs == (1, 13, 49)
    assert local_factor_cm(-13, 7, 1).coeffs == (1, 91, 2401)
    # the form has nebentypus chi_{-3}: at the inert prime 5 the factor is
    # 1 - p^2 T^2, and 1 - p^4 T^2 after the Tate shift
    assert local_factor_cm(0, 5, 0).coeffs == (1, 0, -25)
    assert local_factor_cm(0, 5, 1).coeffs == (1, 0, -625)
    with pytest.raises(ValueError):
        local_factor_cm(15, 7, 0)
    with pytest.raises(ValueError):
        local_factor_cm(1, 7, 2)


def test_local_factor_cm_root_size_via_coefficients():
    # inverse roots have absolute value p^(1+shift): at split primes the T^2
    # coefficient is its square and the discriminant is nonpositive (complex
    # conjugate roots); at inert primes the roots are +-p^(1+shift)
    for p in (5, 7, 11, 13, 19, 31, 37):
        a = ap_base(p)
        for shift in (0, 1):
            f = local_factor_cm(a, p, shift)
            if p % 3 == 1:
                assert f.coeffs[2] == p ** (2 + 2 * shift)
                assert f.coeffs[1] ** 2 - 4 * f.coeffs[2] <= 0
            else:
                assert f.coeffs == (1, 0, -p ** (2 + 2 * shift))


def test_local_factor_constant_term_guard():
    with pytest.raises(ValueError):
        LocalFactor(7, 0, (2, 1))


def test_assemble_factors_structure():
    factors = assemble_fourfold_factors(7, -13, 20)
    assert [f.weight for f in factors] == [0, 2, 4, 6, 8]
    assert [len(f.coeffs) - 1 for f in factors] == [1, 1, 23, 1, 1]
    assert all(f.coeffs[0] == 1 for f in factors)
    p4 = factors[2]
    assert p4.coeffs[1] == -(21 * 49 - 7 * 13)  # sum of inverse roots on H^4
    j = p4.to_json()
    assert j["weight"] == 4 and j["coeffs"][0] == 1


def test_assemble_reconstructs_counts():
    X = builtin_variety("X")
    for p in (7, 13):
        n1 = count_S_fibered(p, 1).count
        t2 = trace_from_count(n1, p).t2
        a = ap_base(p)
        ns = algebraic_trace_split(t2, a, p) // p
        got = reconstruct_count(assemble_fourfold_factors(p, a, ns))
        assert got == count_pairsum_convolution(X, p).count


def test_assemble_closed_form_zero_coefficient():
    for p in (7, 31):
        got = reconstruct_count(assemble_fourfold_factors(p, 0, 20))
        assert got == 1 + p + 21 * p * p + p ** 3 + p ** 4


def test_assemble_inert_prime_with_explicit_ns():
    # at p = 5 the transcendental trace is 0; the algebraic pattern is
    # supplied by the caller, here derived from the actual count
    p = 5
    n1 = count_S_fibered(p, 1).count
    t2 = trace_from_count(n1, p).t2
    assert t2 % p == 0
    ns = t2 // p
    got = reconstruct_count(assemble_fourfold_factors(p, 0, ns))
    assert got == count_pairsum_convolution(builtin_variety("X"), p).count


def test_assemble_rejects_inconsistent_ns():
    with pytest.raises(ValueError):
        assemble_fourfold_factors(7, -13, 21)   # parity
    with pytest.raises(ValueError):
        assemble_fourfold_factors(7, -13, 22)   # rank
    with pytest.raises(ValueError, match="6 is not prime"):
        assemble_fourfold_factors(6, -13, 20)
    with pytest.raises(ValueError, match="bad prime 3"):
        assemble_fourfold_factors(3, 0, 20)     # the one bad prime


def test_assemble_rejects_an_ap_past_the_weil_bound():
    # |a_p| <= 2p at weight 3, checked through the form's factor
    assemble_fourfold_factors(7, 14, 20)
    with pytest.raises(ValueError, match="weight-3 bound"):
        assemble_fourfold_factors(7, 15, 20)
    with pytest.raises(ValueError, match="inconsistent ns_fixed"):
        assemble_fourfold_factors(7, 15, 21)


def test_h4_decomposition_dimensions():
    dec = fourfold_h4_decomposition(7, -13, 20)
    assert sum(dim for _, dim, _ in dec.pieces) == 23
    dec2 = hilbert_square_h2_decomposition(7, -13, 20)
    assert sum(dim for _, dim, _ in dec2.pieces) == 23
    # the trace of the pieces reproduces the H^2 trace of the Hilbert square
    trace = 20 * 7 + 7 + (-13)
    assert trace == (177 - 1 - 49) + 7
    with pytest.raises(ValueError):
        CohomologyDecomposition("H4(X)", 23, (("a", 1, ""), ("b", 2, "")))


def test_decomposition_labels_follow_the_cm_factor():
    # a_p < 0, a_p = 0 at an inert prime, and a_p > 0
    for p, a, ns, h2, h4 in ((7, -13, 20, "1 + 13 T + 49 T^2", "1 + 91 T + 2401 T^2"),
                             (5, 0, 8, "1 - 25 T^2", "1 - 625 T^2"),
                             (19, 11, 20, "1 - 11 T + 361 T^2", "1 - 209 T + 130321 T^2")):
        assert hilbert_square_h2_decomposition(p, a, ns).pieces[-1][2] == "roots of " + h2
        assert fourfold_h4_decomposition(p, a, ns).pieces[-1][2] == "roots of " + h4
        sign = 1 if p % 3 == 1 else -1
        assert local_factor_cm(a, p, 1).coeffs == (1, -p * a, sign * p ** 4)


def test_power_sums_by_newton_identities():
    # (1 - 2T)(1 - 3T)(1 - 5T): s_j = 2^j + 3^j + 5^j past the degree too
    coeffs = (1, -10, 31, -30)
    assert power_sums(coeffs, 5) == [2 ** j + 3 ** j + 5 ** j for j in range(1, 6)]
    assert power_sums((1,), 3) == [0, 0, 0]
    fs = [LocalFactor(7, 0, (1, -1)), LocalFactor(7, 1, (1, -5, 6)),
          LocalFactor(7, 2, (1, -7))]
    assert reconstruct_count(fs, 2) == 1 - (2 ** 2 + 3 ** 2) + 49


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_fourfold_factors_reproduce_counts_over_gf_p2(p):
    # ns_fixed = t_alg / p from the count over GF(p); the factor list must
    # then also give #X(GF(p^2)) = 1 + q^2 + q^4 + q #S(GF(q)), q = p^2,
    # which checks the T^2 coefficients, where chi_{-3}(p) enters
    n1 = count_S_fibered(p, 1).count
    a = ap_base(p)
    ns = algebraic_trace_split(trace_from_count(n1, p).t2, a, p) // p
    factors = assemble_fourfold_factors(p, a, ns)
    q = p * p
    assert reconstruct_count(factors) == fourfold_count_from_surface(n1, p)
    assert reconstruct_count(factors, 2) == 1 + q ** 2 + q ** 4 + q * count_S_fibered(p, 2).count


def test_fourfold_factors_match_the_generic_count_over_gf_25(x_over_25_count):
    factors = assemble_fourfold_factors(5, 0, 8)
    assert reconstruct_count(factors, 2) == x_over_25_count
    assert reconstruct_count(factors, 2) == 420651


def test_reconstruct_count_alternates_on_odd_weights():
    # synthetic odd-weight factor subtracts its trace
    fs = [LocalFactor(7, 0, (1, -1)), LocalFactor(7, 1, (1, -3)), LocalFactor(7, 2, (1, -7))]
    assert reconstruct_count(fs) == 1 - 3 + 7
