import builtins
import hashlib
import json

import pytest

from cfz.cache import CountCache
from cfz.counting import (CountRecord, VarietySpec, builtin_variety, count_S_fibered,
                          count_variety)

S = builtin_variety("S")
S_SHA = S.sha()
GOOD = {"sha": S_SHA, "name": "S", "p": 7, "k": 1, "count": 177, "method": "fibered"}


def write_lines(path, rows):
    path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n"
                            for r in rows))


def lines_of(path):
    return path.read_text().splitlines()


@pytest.mark.parametrize("change", [
    {"name": None}, {"sha": 7}, {"method": 3}, {"method": "oracle"},
    {"p": True}, {"p": "7"}, {"k": 0}, {"k": 1.0}, {"count": -1}, {"count": False},
    {"count": 177.0}, {"count": "177"},
], ids=lambda change: ",".join(f"{key}={value!r}" for key, value in change.items()))
def test_malformed_record_is_skipped(tmp_path, change):
    bad = {key: value for key, value in {**GOOD, **change}.items() if value is not None}
    path = tmp_path / "c.jsonl"
    write_lines(path, [bad, json.dumps(GOOD)[:-5], [S_SHA, 7, 1, 177]])
    assert CountCache(path).get(S_SHA, 7, 1) is None
    write_lines(path, [bad, GOOD])
    assert CountCache(path).get(S_SHA, 7, 1) == CountRecord("S", 7, 1, 177, "fibered")


def test_first_record_wins_and_put_is_seen(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [GOOD, {**GOOD, "count": 178}])
    cache = CountCache(path)
    assert cache.get(S_SHA, 7, 1).count == 177
    assert cache.get(S_SHA, 13, 1) is None
    rec = CountRecord("S", 13, 1, 429, "fibered")
    cache.put(S_SHA, rec)
    assert cache.get(S_SHA, 13, 1) == rec
    assert len(lines_of(path)) == 3
    assert CountCache(path).get(S_SHA, 13, 1) == rec


def test_explicit_method_is_honoured_on_a_hit(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [GOOD])
    cache = CountCache(path)
    assert count_variety(S, 7, cache=cache).method == "fibered"
    assert count_variety(S, 7, method="auto", cache=cache).method == "fibered"
    rec = count_variety(S, 7, method="generic", cache=cache)
    assert (rec.method, rec.count) == ("generic", 177)
    # the first record of a key is the one every lookup reads, so an
    # appended generic line could never be served: none is written
    assert len(lines_of(path)) == 1


def test_count_above_the_ambient_space_is_recomputed(tmp_path):
    path = tmp_path / "c.jsonl"
    # S under another name is a custom variety, bounded by its ambient space
    # alone: P^2 x P^2 has 57^2 = 3249 points over GF(7)
    T = VarietySpec.from_dict({**S.to_dict(), "name": "T"})
    good = {**GOOD, "sha": T.sha(), "name": "T"}
    write_lines(path, [{**good, "count": 3250}])
    rec = count_variety(T, 7, cache=CountCache(path))
    assert (rec.method, rec.count) == ("generic", 177)
    assert [json.loads(line)["count"] for line in lines_of(path)] == [3250]
    write_lines(path, [{**good, "count": 3249}])
    assert count_variety(T, 7, cache=CountCache(path)).count == 3249


def test_builtin_count_outside_the_weil_bound_is_recomputed(tmp_path):
    path = tmp_path / "c.jsonl"
    # over GF(7) a K3 surface has |N - 1 - 49| <= 22 * 7 = 154: 400 fits in
    # the ambient space but not in the bound, 178 fits in both
    write_lines(path, [{**GOOD, "count": 400}])
    rec = count_variety(S, 7, cache=CountCache(path))
    assert (rec.method, rec.count) == ("fibered", 177)
    assert [json.loads(line)["count"] for line in lines_of(path)] == [400]
    write_lines(path, [{**GOOD, "count": 178}])
    assert count_variety(S, 7, cache=CountCache(path)).count == 178


def test_lookups_read_the_file_once(tmp_path, monkeypatch):
    primes = [p for p in range(5, 80) if all(p % d for d in range(2, p))]
    assert len(primes) == 20
    rows = []
    for i in range(1980):
        sha = hashlib.sha256(b"other %d" % i).hexdigest()
        rows.append({"sha": sha, "name": f"V{i}", "p": 5, "k": 1, "count": 31,
                     "method": "generic"})
    for j, p in enumerate(primes):
        rec = count_S_fibered(p, 1)
        rows.insert(j * 99, {"sha": S_SHA, **rec.to_json()})
    path = tmp_path / "c.jsonl"
    write_lines(path, rows)
    assert len(lines_of(path)) == 2000

    opened, decoded = [], []
    real_open, real_loads = builtins.open, json.loads

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file) == str(path) and "r" in mode:
            opened.append(file)
        return real_open(file, mode, *args, **kwargs)

    def counting_loads(s, *args, **kwargs):
        decoded.append(s)
        return real_loads(s, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(json, "loads", counting_loads)
    cache = CountCache(path)
    counts = [count_variety(S, p, cache=cache) for p in primes]
    monkeypatch.undo()
    assert [rec.method for rec in counts] == ["fibered"] * 20
    assert len(opened) == 1
    assert len(decoded) <= 20
    assert len(lines_of(path)) == 2000
