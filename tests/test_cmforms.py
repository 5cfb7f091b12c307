import math
import random

import pytest

from cfz import cmforms
from cfz.cmforms import (CornacchiaSolution, EisensteinInt, IdentificationResult,
                         ap_base, ap_via_eisenstein, cornacchia_4p,
                         declared_embedding, eisenstein_factor, fermat_comparison,
                         identify_form, omega_embeddings)
from cfz.counting import count_S_fibered
from cfz.fields import is_prime

SPLIT_200 = [p for p in range(5, 201) if is_prime(p) and p % 3 == 1]
TABLE_RESIDUES = [(7, 1), (13, 12), (19, 11), (31, 16), (37, 10)]

ZERO, ONE, OMEGA = EisensteinInt(0, 0), EisensteinInt(1, 0), EisensteinInt(0, 1)


# ---------------------------------------------------------------------------
# reference: the candidate forms in Z[omega], reduced at an embedding

def chi9_exponent(n):
    """e with chi_9(n) = omega^e: the discrete log of n to the base 2 in
    the cyclic group (Z/9)^*, mod 3, so that chi_9(2) = omega."""
    return next(k for k in range(6) if pow(2, k, 9) == n % 9) % 3


def omega_power(e):
    out = ONE
    for _ in range(e % 3):
        out = out * OMEGA
    return out


def twisted_ap(p, twist_index):
    """Coefficient of the base form twisted by chi_9^twist_index, in Z[omega]."""
    return EisensteinInt(ap_base(p), 0) * omega_power(chi9_exponent(p) * twist_index)


def reduce_eisenstein(x, p, z):
    """Image of x under the embedding omega -> z into GF(p)."""
    return (x.a + x.b * z) % p


def reference_identify(residues):
    """Candidate matching as done in Z[omega]: reduce each twisted
    coefficient at every embedding, then break the conjugate tie by the
    declared embedding."""
    pairs = sorted(dict(residues).items())
    primes = tuple(p for p, _ in pairs)

    def survives(idx, embedding_of):
        for p, r in pairs:
            if p % 3 == 2:
                if r != 0:
                    return False
                continue
            coeff = twisted_ap(p, idx)
            if not any(reduce_eisenstein(coeff, p, z) == r for z in embedding_of(p)):
                return False
        return True

    matches = [idx for idx in (0, 1, 2) if survives(idx, omega_embeddings)]
    embeddings = {p: declared_embedding(p) for p in primes if p % 3 == 1}
    if len(matches) == 1:
        return IdentificationResult(matches[0], "unique", primes, embeddings)
    if set(matches) == {1, 2}:
        declared = [idx for idx in (1, 2) if survives(idx, lambda p: [declared_embedding(p)])]
        if len(declared) == 1:
            return IdentificationResult(
                declared[0], "unique", primes, embeddings,
                note="twists 1 and 2 separated by the declared embedding convention")
        return IdentificationResult(None, "ambiguous", primes, embeddings,
                                    note="conjugate twists indistinguishable")
    if matches:
        return IdentificationResult(None, "ambiguous", primes, embeddings,
                                    note="ambiguous, supply more primes")
    return IdentificationResult(None, "no_match", primes, embeddings)


def test_eisenstein_ring_axioms_small():
    vals = [EisensteinInt(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    for x in vals:
        assert x + (-x) == ZERO
        assert x * ONE == x
        assert x + ZERO == x
        assert x.conjugate().conjugate() == x
    rng = random.Random(2)
    for _ in range(500):
        x, y, z = (rng.choice(vals) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_omega_is_a_cube_root():
    assert OMEGA * OMEGA * OMEGA == ONE
    assert OMEGA * OMEGA + OMEGA + ONE == ZERO
    assert OMEGA.norm() == 1
    assert OMEGA.conjugate() == OMEGA * OMEGA


def test_cornacchia_known_solutions():
    assert (cornacchia_4p(7).L, cornacchia_4p(7).M) == (1, 1)
    assert (cornacchia_4p(31).L, cornacchia_4p(31).M) == (4, 2)
    assert (cornacchia_4p(37).L, cornacchia_4p(37).M) == (11, 1)


def test_cornacchia_solution_unique_up_to_sign():
    for p in SPLIT_200:
        sols = [(l, m)
                for m in range(1, math.isqrt(4 * p // 27) + 1)
                for l in range(1, math.isqrt(4 * p) + 1)
                if l * l + 27 * m * m == 4 * p]
        assert len(sols) == 1
        sol = cornacchia_4p(p)
        assert (sol.L, sol.M) == sols[0]


def test_cornacchia_guards():
    with pytest.raises(ValueError):
        cornacchia_4p(5)
    with pytest.raises(ValueError):
        cornacchia_4p(3)
    with pytest.raises(ValueError):
        cornacchia_4p(15)
    with pytest.raises(ValueError):
        CornacchiaSolution(7, 2, 1)


def test_ap_base_values():
    assert ap_base(7) == -13
    assert ap_base(13) == -1
    assert ap_base(19) == 11
    assert ap_base(31) == -46
    assert ap_base(37) == 47
    assert ap_base(5) == 0
    assert ap_base(11) == 0
    # 2 is inert in Q(sqrt(-3)) like 5 and 11, so a_2 = 0; at 3, which
    # divides the level, there is no Cornacchia representation
    assert ap_base(2) == 0
    with pytest.raises(ValueError, match="3 is not 1 mod 3"):
        ap_base(3)


def test_dual_oracle_agreement_up_to_200():
    for p in SPLIT_200:
        assert ap_via_eisenstein(p) == ap_base(p)


def test_ring_route_does_not_call_the_cornacchia_route(monkeypatch):
    monkeypatch.setattr(cmforms, "ap_base", lambda p: pytest.fail("ap_base called"))
    monkeypatch.setattr(cmforms, "cornacchia_4p", lambda p: pytest.fail("cornacchia called"))
    assert [ap_via_eisenstein(p) for p in (7, 13, 19, 31, 37)] == [-13, -1, 11, -46, 47]


def test_eisenstein_factor_is_primary_prime():
    for p in (7, 13, 19, 31, 37, 61, 103):
        pi = eisenstein_factor(p)
        assert pi.norm() == p
        assert pi.is_primary()
        assert (pi * pi.conjugate()) == EisensteinInt(p, 0)


def test_hasse_bound():
    for p in range(5, 201):
        if is_prime(p):
            assert abs(ap_base(p)) <= 2 * p


def test_congruence_law_against_counts():
    for p, r in TABLE_RESIDUES:
        n1 = count_S_fibered(p, 1).count
        assert (n1 - 1) % p == r
        assert ap_base(p) % p == r
    for p in (5, 11, 17, 23, 29):
        n1 = count_S_fibered(p, 1).count
        assert (n1 - 1) % p == 0


def test_cubic_character_table():
    # the library's exponent table is the character chi_9(2) = omega,
    # whose exponent is the discrete log to the base 2, mod 3
    table = cmforms._EXPONENT_MOD_9
    units = [1, 2, 4, 5, 7, 8]
    assert sorted(table) == units
    assert table[2] == 1 and table[4] == 2 and table[8] == 0
    for a in units:
        assert table[a] == chi9_exponent(a)
        for b in units:
            assert table[a * b % 9] == (table[a] + table[b]) % 3


def test_twisted_ap():
    # the reference route's candidate coefficients in Z[omega]
    assert twisted_ap(7, 0) == EisensteinInt(-13, 0)
    assert twisted_ap(7, 1) == EisensteinInt(0, -13)   # -13 * omega
    assert twisted_ap(7, 2) == EisensteinInt(0, -13).conjugate()
    for p in [q for q in SPLIT_200 if q <= 100]:
        assert twisted_ap(p, 0).is_rational
        assert twisted_ap(p, 1).conjugate() == twisted_ap(p, 2)


def test_omega_embeddings():
    assert omega_embeddings(7) == [2, 4]
    assert omega_embeddings(13) == [3, 9]
    assert omega_embeddings(5) == []
    assert declared_embedding(7) == 2
    assert reduce_eisenstein(EisensteinInt(0, -13), 7, 2) == 2
    for p in SPLIT_200:
        assert all((z * z + z + 1) % p == 0 for z in omega_embeddings(p))


def trial_omega_embeddings(p):
    """Reference: the roots of z^2 + z + 1 mod p, by trial over GF(p)."""
    return sorted(z for z in range(2, p) if (z * z + z + 1) % p == 0)


def test_omega_embeddings_match_the_trial_scan():
    for p in range(5, 2000):
        if is_prime(p):
            assert omega_embeddings(p) == (trial_omega_embeddings(p) if p % 3 == 1 else [])
    roots = omega_embeddings(1000003)
    assert len(set(roots)) == 2 and all((z * z + z + 1) % 1000003 == 0 for z in roots)


def test_identify_base_form_from_table():
    result = identify_form(TABLE_RESIDUES)
    assert result.match == 0 and result.status == "unique"
    j = result.to_json()
    assert j["match"] == 0 and j["checked_primes"] == [7, 13, 19, 31, 37]


def test_identify_order_invariance_and_inert_stability():
    shuffled = list(reversed(TABLE_RESIDUES))
    assert identify_form(shuffled).match == 0
    padded = TABLE_RESIDUES + [(5, 0), (11, 0), (17, 0)]
    assert identify_form(padded).match == 0


def test_identify_inert_only_is_ambiguous():
    result = identify_form([(5, 0), (11, 0)])
    assert result.match is None and result.status == "ambiguous"


def test_identify_no_match():
    # residue 3 at p = 7 fits none of the three candidates
    result = identify_form([(7, 3)])
    assert result.match is None and result.status == "no_match"


def test_identify_round_trips_twists_under_declared_embedding():
    for idx in (1, 2):
        residues = []
        for p in (7, 13, 19):
            z = declared_embedding(p)
            residues.append((p, reduce_eisenstein(twisted_ap(p, idx), p, z)))
        result = identify_form(residues)
        assert result.match == idx, (idx, residues, result)
        assert result == reference_identify(residues)


def test_identify_input_validation():
    with pytest.raises(ValueError):
        identify_form([(3, 0)])
    with pytest.raises(ValueError):
        identify_form([(7, 9)])
    with pytest.raises(ValueError, match="no residues given"):
        identify_form([])
    with pytest.raises(ValueError, match="two residues, 1 and 2, given for p = 7"):
        identify_form([(7, 1), (13, 12), (7, 2)])
    # a repeated pair is one residue, not a contradiction
    assert identify_form([(7, 1), (7, 1)]) == identify_form([(7, 1)])


def test_fermat_comparison():
    assert fermat_comparison(7)
    assert fermat_comparison(13)
    with pytest.raises(ValueError):
        fermat_comparison(5)


GOOD_PRIMES = [p for p in range(5, 80) if is_prime(p)]
TIE_BROKEN = "twists 1 and 2 separated by the declared embedding convention"
OUTCOMES = {
    (0, "unique", ""), (1, "unique", TIE_BROKEN), (2, "unique", TIE_BROKEN),
    (None, "ambiguous", "conjugate twists indistinguishable"),
    (None, "ambiguous", "ambiguous, supply more primes"), (None, "no_match", ""),
}


def _seeded_residues(rng):
    """Residues of one candidate under random embeddings at random primes,
    some of them perturbed; or inert primes only; or primes = 1 mod 9 only,
    where chi_9 is trivial and all three candidates agree."""
    shape = rng.random()
    if shape < 0.1:
        primes = rng.sample([p for p in GOOD_PRIMES if p % 3 == 2], rng.randint(1, 3))
    elif shape < 0.2:
        primes = rng.sample([19, 37, 73], rng.randint(1, 3))
    else:
        primes = rng.sample(GOOD_PRIMES, rng.randint(1, 5))
    idx = rng.randrange(3)
    same_embedding = rng.random() < 0.5
    residues = []
    for p in primes:
        if p % 3 == 2:
            r = 0
        else:
            roots = omega_embeddings(p)
            z = roots[0] if same_embedding else rng.choice(roots)
            r = reduce_eisenstein(twisted_ap(p, idx), p, z)
        if rng.random() < 0.1:
            r = rng.randrange(p)
        residues.append((p, r))
    return residues


def test_identify_matches_the_reference_route_on_seeded_residues():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(1500):
        residues = _seeded_residues(rng)
        result = identify_form(residues)
        assert result == reference_identify(residues), residues
        seen.add((result.match, result.status, result.note))
    assert seen == OUTCOMES
