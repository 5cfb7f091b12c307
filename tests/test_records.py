"""The exported records: immutable named tuples whose equality, hashing,
JSON form, defaults and validation are those of their fields."""

import pytest

from cfz.cmforms import (CornacchiaSolution, IdentificationResult, NewformDescriptor,
                         twisted_ap)
from cfz.counting import CountRecord
from cfz.fourfold import GroupReport, MapIdentityReport, identity_map
from cfz.grassmann import LemmaReport
from cfz.lattice import GramMatrix2
from cfz.zeta import CohomologyDecomposition, LocalFactor, TraceRecord

# each record built from the same fields twice; the dict field of an
# IdentificationResult makes it the one unhashable record
RECORDS = {
    "CountRecord": lambda: CountRecord("S", 7, 1, 177, "fibered"),
    "GramMatrix2": lambda: GramMatrix2(4, 10),
    "TraceRecord": lambda: TraceRecord(7, 127, 1),
    "MapIdentityReport": lambda: MapIdentityReport(True, ()),
    "GroupReport": lambda: GroupReport(1, (identity_map().normalized(),)),
    "LemmaReport": lambda: LemmaReport(1, 3, 2, 1, ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
                                       (("alpha", 35),)),
    "IdentificationResult": lambda: IdentificationResult(0, "unique", (7, 13), {7: 2, 13: 3}),
    "CornacchiaSolution": lambda: CornacchiaSolution(7, 1, 1),
    "NewformDescriptor": lambda: NewformDescriptor(1),
    "LocalFactor": lambda: LocalFactor(7, 2, (1, 13, 49)),
    "CohomologyDecomposition": lambda: CohomologyDecomposition(
        "H", 3, (("a", 1, "x"), ("b", 2, "y"))),
}
UNHASHABLE = {"IdentificationResult"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable(name):
    rec = RECORDS[name]()
    first = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, first, getattr(rec, first))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a == b and a is not b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_the_tuple_of_its_fields(name):
    rec = RECORDS[name]()
    values = tuple(getattr(rec, f) for f in rec._fields)
    assert rec == values and tuple(rec) == values
    assert type(rec).__name__ == name
    assert repr(rec).startswith(name + "(" + rec._fields[0] + "=")


@pytest.mark.parametrize("name, expected", [
    ("CountRecord", {"name": "S", "p": 7, "k": 1, "count": 177, "method": "fibered"}),
    ("LemmaReport", {"k": 1, "n": 3, "q": 2, "max_dim": 1,
                     "witness_basis": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]],
                     "families": [{"type": "alpha", "count": 35}]}),
    ("IdentificationResult", {"match": 0, "checked_primes": [7, 13],
                              "embedding_choices": {"13": 3, "7": 2}}),
    ("LocalFactor", {"p": 7, "weight": 2, "coeffs": [1, 13, 49]}),
])
def test_to_json(name, expected):
    assert RECORDS[name]().to_json() == expected


def test_defaults_methods_and_properties():
    assert TraceRecord(7, 127, 1).t_alg is None
    assert NewformDescriptor(1).weight == 3
    assert NewformDescriptor(twist_index=2, weight=3) == NewformDescriptor(2)
    assert LemmaReport(1, 3, 2, 1, ()).families == ()
    assert IdentificationResult(None, "no_match", (7,), {}).note == ""
    # no shared default: every caller passes its own embedding choices
    with pytest.raises(TypeError):
        IdentificationResult(None, "no_match", (7,))
    g = GramMatrix2(4, 10)
    assert g.h2h2 == 3 and g.rows() == ((3, 4), (4, 10))
    assert LocalFactor(7, 2, (1, 13, 49)).degree == 2
    assert NewformDescriptor(2).coefficient(7) == twisted_ap(7, 2)


def test_validation_runs_on_keyword_construction():
    with pytest.raises(ValueError, match="not a solution"):
        CornacchiaSolution(p=7, L=2, M=1)
    with pytest.raises(ValueError, match="twist_index must be 0, 1 or 2, got 3"):
        NewformDescriptor(twist_index=3)
    with pytest.raises(ValueError, match="constant term 1"):
        LocalFactor(p=7, weight=2, coeffs=())
    with pytest.raises(ValueError, match="H: piece dimensions sum to 1, not 3"):
        CohomologyDecomposition(group="H", betti=3, pieces=(("a", 1, "x"),))


@pytest.mark.parametrize("name, fields, error", [
    ("CornacchiaSolution", {"L": 2}, "not a solution"),
    ("NewformDescriptor", {"twist_index": 3}, "twist_index must be 0, 1 or 2"),
    ("LocalFactor", {"coeffs": (2,)}, "constant term 1"),
    ("CohomologyDecomposition", {"betti": 4}, "piece dimensions sum to 3, not 4"),
])
def test_validation_runs_on_make_and_replace(name, fields, error):
    # namedtuple's own _make, which _replace calls, skips __new__
    rec = RECORDS[name]()
    values = [fields.get(f, v) for f, v in zip(rec._fields, rec)]
    with pytest.raises(ValueError, match=error):
        rec._replace(**fields)
    with pytest.raises(ValueError, match=error):
        type(rec)._make(values)
    assert rec._replace() == rec and type(rec)._make(tuple(rec)) == rec
