import math
import random

import pytest

from cfz.cmforms import (CHI, CornacchiaSolution,
                         EisensteinInt, OMEGA, ap_base, ap_via_eisenstein,
                         cornacchia_4p, declared_embedding, eisenstein_factor,
                         fermat_comparison, identify_form, omega_embeddings,
                         reduce_eisenstein, twisted_ap)
from cfz.counting import count_S_fibered
from cfz.fields import is_prime

SPLIT_200 = [p for p in range(5, 201) if is_prime(p) and p % 3 == 1]
TABLE_RESIDUES = [(7, 1), (13, 12), (19, 11), (31, 16), (37, 10)]


def test_eisenstein_ring_axioms_small():
    vals = [EisensteinInt(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    for x in vals:
        assert x + (-x) == 0
        assert x * 1 == x
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
    assert OMEGA * OMEGA * OMEGA == 1
    assert OMEGA * OMEGA + OMEGA + 1 == 0
    assert OMEGA.norm() == 1


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
    with pytest.raises(ValueError):
        ap_base(3)
    with pytest.raises(ValueError):
        ap_base(2)


def test_dual_oracle_agreement_up_to_200():
    for p in SPLIT_200:
        assert ap_via_eisenstein(p) == ap_base(p)


def test_eisenstein_factor_is_primary_prime():
    for p in (7, 13, 19, 31, 37, 61, 103):
        pi = eisenstein_factor(p)
        assert pi.norm() == p
        assert pi.is_primary()
        assert (pi * pi.conjugate()) == p


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
    assert CHI(2) == OMEGA
    assert CHI(7) == OMEGA
    assert CHI(4) == OMEGA * OMEGA
    assert CHI(8) == 1
    units = [1, 2, 4, 5, 7, 8]
    for a in units:
        for b in units:
            assert CHI(a * b) == CHI(a) * CHI(b)
        assert CHI(a) * CHI(a) * CHI(a) == 1
    with pytest.raises(ValueError):
        CHI(6)


def test_twisted_ap():
    assert twisted_ap(7, 0) == -13
    assert twisted_ap(7, 1) == EisensteinInt(0, -13)   # -13 * omega
    assert twisted_ap(7, 2) == EisensteinInt(0, -13).conjugate()
    for p in [q for q in SPLIT_200 if q <= 100]:
        assert twisted_ap(p, 1).conjugate() == twisted_ap(p, 2)
    with pytest.raises(ValueError):
        twisted_ap(7, 3)


def test_omega_embeddings():
    assert omega_embeddings(7) == [2, 4]
    assert omega_embeddings(13) == [3, 9]
    assert omega_embeddings(5) == []
    assert declared_embedding(7) == 2
    assert reduce_eisenstein(EisensteinInt(0, -13), 7, 2) == 2


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


def test_newform_descriptor_family():
    from cfz.cmforms import CANDIDATE_FORMS, NewformDescriptor
    assert len(CANDIDATE_FORMS) == 3
    assert all(f.weight == 3 for f in CANDIDATE_FORMS)
    for p in (7, 13, 19):
        assert CANDIDATE_FORMS[0].coefficient(p).is_rational
        assert (CANDIDATE_FORMS[1].coefficient(p).conjugate()
                == CANDIDATE_FORMS[2].coefficient(p))
    with pytest.raises(ValueError):
        NewformDescriptor(3)
