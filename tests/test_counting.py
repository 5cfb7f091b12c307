import json
import os
import tracemalloc
from itertools import product

import pytest

from cfz.cache import CountCache
from cfz import counting
from cfz.counting import (CHUNK_CELLS, ConvolutionStructureError, CountBudgetError,
                          VarietySpec, _s_fiber_count,
                          builtin_variety, count_fermat_cubic,
                          count_pairsum_convolution, count_points_generic,
                          count_S_fibered, count_variety,
                          group_value_histogram, pairsum_groups,
                          points_on_variety, smoothness_scan)
from cfz.fields import enumerate_projective, field_of_order, field_tables, is_prime

S = builtin_variety("S")
X = builtin_variety("X")
FERMAT = builtin_variety("fermat")

# golden counts of the surface, cross-checked below against the generic oracle
S_COUNTS = {7: 177, 13: 429, 19: 753, 31: 1536, 37: 2157}


def test_surface_count_table():
    for p, expected in S_COUNTS.items():
        assert count_S_fibered(p, 1).count == expected


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_surface_fibered_matches_generic(p):
    assert count_S_fibered(p, 1).count == count_points_generic(S, p).count


def test_surface_extension_fibered_matches_generic(s_over_49_count):
    assert count_S_fibered(7, 2).count == s_over_49_count
    assert s_over_49_count == 3453  # golden, frozen from the generic oracle


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_fourfold_convolution_matches_generic(p):
    assert count_pairsum_convolution(X, p).count == count_points_generic(X, p).count


@pytest.mark.parametrize("p", [7, 13])
def test_fermat_convolution_matches_generic(p):
    assert count_fermat_cubic(p).count == count_points_generic(FERMAT, p).count


def test_fourfold_counts_known():
    assert count_pairsum_convolution(X, 7).count == 3690
    assert count_pairsum_convolution(X, 13).count == 34308
    assert count_fermat_cubic(7).count == 3690


def test_empty_system_counts_whole_space():
    spec = VarietySpec.from_dict(
        {"name": "P2", "ambient": [2], "vars": [["x", "y", "z"]], "polys": []})
    assert count_points_generic(spec, 7).count == 57
    spec0 = VarietySpec.from_dict(
        {"name": "P2z", "ambient": [2], "vars": [["x", "y", "z"]], "polys": ["0"]})
    assert count_points_generic(spec0, 7).count == 57


# slice sizes for the generic oracle: one cell per slice, ragged slices,
# and the default; a slice is never less than one row of block 0
CHUNKS = [1, 1000, CHUNK_CELLS]


@pytest.mark.parametrize("cells", CHUNKS)
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_generic_slices_match_fibered(monkeypatch, p, cells):
    monkeypatch.setattr(counting, "CHUNK_CELLS", cells)
    assert count_points_generic(S, p).count == count_S_fibered(p, 1).count


@pytest.mark.parametrize("cells", [1000, 4099, CHUNK_CELLS])
def test_generic_slices_single_block(monkeypatch, cells):
    # X and the Fermat cubic live in one P^5: block 0 is the whole space
    monkeypatch.setattr(counting, "CHUNK_CELLS", cells)
    assert count_points_generic(X, 7).count == count_pairsum_convolution(X, 7).count
    assert count_points_generic(FERMAT, 7).count == count_fermat_cubic(7).count


@pytest.mark.parametrize("cells", CHUNKS)
def test_generic_slices_without_equations(monkeypatch, cells):
    monkeypatch.setattr(counting, "CHUNK_CELLS", cells)
    spec = VarietySpec.from_dict({"name": "P1xP2", "ambient": [1, 2],
                                  "vars": [["a", "b"], ["x", "y", "z"]], "polys": ["0"]})
    assert count_points_generic(spec, 7).count == 8 * 57
    assert len(points_on_variety(spec, 5)) == 6 * 31


def test_points_keep_their_order_across_slices(monkeypatch):
    whole = [points_on_variety(S, q) for q in (7, 25)]
    monkeypatch.setattr(counting, "CHUNK_CELLS", 500)
    assert [points_on_variety(S, q) for q in (7, 25)] == whole


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_generic_oracle_memory_is_bounded():
    # the whole 2451 x 2451 grid of S over GF(49) would take ~144 MiB of
    # int64 arrays; slices of CHUNK_CELLS cells keep the peak to a few MiB
    field_tables(field_of_order(49))
    assert _peak_mib(lambda: count_points_generic(S, 49)) < 16
    assert _peak_mib(lambda: points_on_variety(S, 49)) < 16


def test_prime_sweep_keeps_one_table_set():
    # mul and add hold one pointer per entry: 2 * 8 * q^2 bytes per table set
    one_set = 2 * 8 * 1019 ** 2
    tracemalloc.start()
    try:
        for p in (1009, 1013, 1019):
            count_S_fibered(p, 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert one_set / 2 < held < 1.5 * one_set
    assert peak < 1.5 * one_set


def _fibers(q, pts):
    tables = field_tables(field_of_order(q))
    return sum(_s_fiber_count(pt, tables) for pt in pts)


def _oracle(q):
    # the per-fiber count over the whole base, no character sum
    return _fibers(q, enumerate_projective(q, 2))


@pytest.mark.parametrize("p", [p for p in range(5, 100) if is_prime(p)])
def test_character_sum_matches_fiber_oracle(p):
    # p = 1 and p = 3 mod 4 both occur, so chi(-1) takes both signs
    assert count_S_fibered(p, 1).count == _oracle(p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_character_sum_matches_fiber_oracle_over_gf_p2(p):
    assert count_S_fibered(p, 2).count == _oracle(p * p)


@pytest.mark.parametrize("p, k", [(7, 1), (11, 1), (13, 1), (5, 2)])
def test_exact_fibers_are_the_zeros_of_the_discriminant(monkeypatch, p, k):
    # _s_fiber_count runs once on each base point with
    # xyz(x^3 + y^3 + z^3) = 0, and nowhere else
    q = p ** k
    mul, add = field_tables(field_of_order(q))[:2]
    calls = []

    def counted(pt, tables):
        calls.append(pt)
        return _s_fiber_count(pt, tables)

    def c(x, y, z):
        cubes = add[add[mul[mul[x][x]][x]][mul[mul[y][y]][y]]][mul[mul[z][z]][z]]
        return mul[mul[mul[x][y]][z]][cubes]

    monkeypatch.setattr(counting, "_s_fiber_count", counted)
    count_S_fibered(p, k)
    zeros = [pt for pt in enumerate_projective(q, 2) if c(*pt) == 0]
    assert sorted(calls) == sorted(zeros)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("p", [5, 7])
def test_fibered_count_over_cubic_extensions(p):
    q = p ** 3
    n = count_S_fibered(p, 3).count
    assert n == _oracle(q)
    assert abs(n - 1 - q * q) <= 22 * q
    assert count_variety(S, p, k=3).method == "fibered"


def test_degenerate_fibers_contribute_whole_lines():
    # above each coordinate point of the base the first equation vanishes
    # identically on the fiber line, contributing q + 1
    coord_pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for q in (7, 25):
        assert _fibers(q, coord_pts) == 3 * (q + 1)


def test_fibered_partition_independence():
    for p, k in ((11, 1), (5, 2)):
        fibers = list(enumerate_projective(p ** k, 2))
        total = count_S_fibered(p, k).count
        halves = _fibers(p ** k, fibers[:60]) + _fibers(p ** k, fibers[60:])
        interleave = _fibers(p ** k, fibers[::2]) + _fibers(p ** k, fibers[1::2])
        assert halves == total == interleave


def test_histogram_conservation():
    _, groups = pairsum_groups(X)
    assert len(groups) == 3
    for p in (5, 7, 13):
        for var_idx, terms in groups:
            assert sum(group_value_histogram(terms, var_idx, p)) == p ** len(var_idx)
    _, fgroups = pairsum_groups(FERMAT)
    assert len(fgroups) == 6
    for var_idx, terms in fgroups:
        assert sum(group_value_histogram(terms, var_idx, 5)) == 5


def test_single_pair_histogram_total():
    spec = VarietySpec.from_dict(
        {"name": "g", "ambient": [1], "vars": [["a", "b"]], "polys": ["a*b^2-a^2*b"]})
    _, groups = pairsum_groups(spec)
    (var_idx, terms), = groups
    assert sum(group_value_histogram(terms, var_idx, 5)) == 25


def test_homogeneity_bridge_affine_vs_projective():
    # for a homogeneous single-block system the affine cone count is
    # 1 + (p-1) * projective count
    spec = VarietySpec.from_dict(
        {"name": "cubic-curve", "ambient": [2], "vars": [["x", "y", "z"]],
         "polys": ["x^3+2*y^3+z^3-3*x*y*z"]})
    mh = spec.polys[0]
    for p in (5, 7, 11):
        affine = sum(
            1 for vals in product(range(p), repeat=3)
            if mh.poly.evaluate(list(vals), mod=p) == 0)
        proj = count_points_generic(spec, p).count
        assert (affine - 1) % (p - 1) == 0
        assert (affine - 1) // (p - 1) == proj


def test_weil_bound_for_surface_counts():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        n1 = count_S_fibered(p, 1).count
        assert abs(n1 - 1 - p * p) <= 22 * p


def test_reference_counts_pass_the_cache_weil_bound():
    # exact counts of the benchmark's reference table, each cross-checked by
    # a second counter: the bound a cache hit must meet admits every one
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    for name in ("S", "X", "fermat"):
        sha = builtin_variety(name).sha()
        for k, counts in reference[name].items():
            for p, n in counts.items():
                assert counting._fits_weil_bound(sha, n, int(p) ** int(k)), (name, k, p, n)
    assert sorted(reference["S"]) == ["1", "2"]


def test_budget_refusal_names_size():
    with pytest.raises(CountBudgetError) as e:
        count_points_generic(S, 7, budget=100)
    msg = str(e.value)
    assert "budget 100" in msg and str(57 * 57 * 6) in msg


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("CFZ_BUDGET", "100")
    with pytest.raises(CountBudgetError):
        count_points_generic(S, 7)


def test_convolution_structure_errors():
    with pytest.raises(ConvolutionStructureError):
        count_pairsum_convolution(S, 7)  # two blocks
    two_eqs = VarietySpec.from_dict(
        {"name": "two", "ambient": [3], "vars": [["a", "b", "c", "d"]],
         "polys": ["a^2-b^2", "c^2-d^2"]})
    with pytest.raises(ConvolutionStructureError):
        count_pairsum_convolution(two_eqs, 7)
    triple = VarietySpec.from_dict(
        {"name": "triple", "ambient": [2], "vars": [["a", "b", "c"]],
         "polys": ["a*b*c"]})
    with pytest.raises(ConvolutionStructureError) as e:
        count_pairsum_convolution(triple, 7)
    assert "size 3" in str(e.value)


def test_convolution_with_inactive_variable():
    # cone over a plane conic inside P^3: one variable never appears
    spec = VarietySpec.from_dict(
        {"name": "cone", "ambient": [3], "vars": [["a", "b", "c", "d"]],
         "polys": ["a^2-b*c"]})
    for p in (5, 7):
        assert (count_pairsum_convolution(spec, p).count
                == count_points_generic(spec, p).count)


def test_bad_characteristic_rejected():
    with pytest.raises(ValueError):
        count_pairsum_convolution(X, 3)
    with pytest.raises(Exception):
        count_points_generic(S, 3)


def test_points_on_variety_satisfy_equations():
    pts = points_on_variety(S, 7)
    assert len(pts) == 177
    for pt in pts:
        for mh in S.polys:
            assert mh.poly.evaluate(pt, mod=7) == 0
        # canonical normalization: leading coordinate of each block is 1
        for blk in (pt[:3], pt[3:]):
            assert next(e for e in blk if e) == 1


def test_smoothness_scan_clean_for_surface():
    for q in (5, 7, 25):
        assert smoothness_scan(S, q) == []


def test_smoothness_scan_detects_nodal_curve():
    nodal = VarietySpec.from_dict(
        {"name": "nodal", "ambient": [2], "vars": [["x", "y", "z"]],
         "polys": ["y^2*z-x^3-x^2*z"]})
    for q in (7, 25, 49):
        assert smoothness_scan(nodal, q) == [(0, 0, 1)]
        assert len(points_on_variety(nodal, q)) == q  # a rational nodal cubic


def test_variety_file_round_trip(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(S.to_dict()))
    again = VarietySpec.from_file(path)
    assert again.to_dict() == S.to_dict()
    assert again.sha() == S.sha()


def test_variety_ambient_mismatch():
    with pytest.raises(ValueError):
        VarietySpec.from_dict(
            {"name": "bad", "ambient": [3], "vars": [["x", "y", "z"]], "polys": []})


def test_count_variety_dispatch_and_cache(tmp_path):
    cache = CountCache(tmp_path / "c.jsonl")
    rec = count_variety(S, 7, cache=cache)
    assert rec.method == "fibered" and rec.count == 177
    again = count_variety(S, 7, cache=cache)
    assert again == rec
    # cache file has exactly one record for the key
    lines = (tmp_path / "c.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1
    assert count_variety(X, 7).method == "convolution"
    with pytest.raises(CountBudgetError):
        count_variety(X, 7, k=2)  # P^5 over GF(49) is past the default budget
    cone = VarietySpec.from_dict(
        {"name": "cone", "ambient": [3], "vars": [["a", "b", "c", "d"]],
         "polys": ["a^2-b*c"]})
    assert count_variety(cone, 5, k=2).method == "generic"
    assert count_variety(S, 7, method="generic").count == 177
    with pytest.raises(ValueError):
        count_variety(X, 7, method="fibered")


def test_builtin_unknown_name():
    with pytest.raises(KeyError):
        builtin_variety("nope")
