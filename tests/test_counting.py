import inspect
import json
import math
import operator
import os
import tracemalloc
from itertools import product

import numpy as np
import pytest

from cfz.cache import CountCache
from cfz import counting
from cfz.counting import (ConvolutionStructureError, CountBudgetError,
                          VarietySpec, builtin_variety, count_fermat_cubic,
                          count_pairsum_convolution, count_points_generic,
                          count_S_fibered, count_variety,
                          group_value_histogram, pairsum_groups,
                          points_on_variety, smoothness_scan)
from cfz.fields import (FieldError, enumerate_projective, field_of_order, field_tables,
                        is_prime, quadratic_root_count)
from polyref import evaluate

S = builtin_variety("S")
X = builtin_variety("X")
FERMAT = builtin_variety("fermat")
# groups whose terms mix powers of both variables, constants in the last
# one, and coefficients that vanish mod p
MIXED = VarietySpec.from_dict(
    {"name": "mixed", "ambient": [4], "vars": [["a", "b", "c", "d", "e"]],
     "polys": ["3*a^3+a^2*b-7*b^3+14*a*b^2+c^2*d+5*c^3-d^3+e^3"]})
# a cone over a plane conic inside P^3: one variable never appears
CONE = VarietySpec.from_dict(
    {"name": "cone", "ambient": [3], "vars": [["a", "b", "c", "d"]],
     "polys": ["a^2-b*c"]})
# degree 4, so e = gcd(4, q - 1) = 4 at q = 1 mod 4
QUARTIC = VarietySpec.from_dict(
    {"name": "quartic", "ambient": [3], "vars": [["a", "b", "c", "d"]],
     "polys": ["a^4+2*a*b^3-b^4+3*c^2*d^2+d^4"]})

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


def test_surface_cubic_extension_fibered_matches_generic():
    # 248M cells of S over GF(125) times 6 terms exceed the default budget
    n = count_S_fibered(5, 3).count
    assert n == count_points_generic(S, 125, budget=2 * 10 ** 9).count == 16626


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


# tile sizes for the generic oracle: one cell per tile, so a tile is less
# than one row of the grid, ragged tiles, and tiles of 2^17 cells, four
# times the default, which every other test runs at
CHUNKS = [1, 1000, 1 << 17]


@pytest.mark.parametrize("cells", CHUNKS)
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_generic_slices_match_fibered(monkeypatch, p, cells):
    monkeypatch.setattr(counting, "CHUNK_CELLS", cells)
    assert count_points_generic(S, p).count == count_S_fibered(p, 1).count


@pytest.mark.parametrize("cells", [1000, 4099, 1 << 17])
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


def _traced_mib(fn):
    """fn's result, and the peak and the held traced memory of the call in
    MiB, the result still held."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak / 2 ** 20, held / 2 ** 20
    finally:
        tracemalloc.stop()


def test_generic_oracle_memory_is_bounded():
    # the whole 2451 x 2451 grid of S over GF(49) would take ~144 MiB of
    # int64 arrays; tiles of CHUNK_CELLS entries keep the peak near 0.6 MiB
    # (0.60 to 0.63 MiB measured)
    count_points_generic(S, 7)  # numpy loaded outside the traced calls
    field_tables(field_of_order(49))
    assert _traced_mib(lambda: count_points_generic(S, 49))[1] < 0.75
    assert _traced_mib(lambda: points_on_variety(S, 49))[1] < 0.75


# one 7-term hypersurface of bidegree (1,3) in P^1 x P^4, with the blocks in
# either order
BIDEGREE_13 = "s*a^3+t*b^3+2*s*c^3+3*t*d^3+s*e^3+t*a*b*c+5*s*c*d*e"
BLOCKS_13 = {"P1xP4": [["s", "t"], ["a", "b", "c", "d", "e"]],
             "P4xP1": [["a", "b", "c", "d", "e"], ["s", "t"]]}
# the traced peak of a generic count of it, whatever q and the block order
# (0.54 to 0.86 MiB measured over GF(23) and GF(31))
TILE_PEAK_MIB = 1.25


@pytest.mark.parametrize("q, n", [(23, 304866), (31, 982112)])
@pytest.mark.parametrize("order", sorted(BLOCKS_13))
def test_generic_oracle_memory_is_bounded_in_every_block_order(order, q, n):
    blocks = BLOCKS_13[order]
    spec = VarietySpec.from_dict({"name": order, "ambient": [len(b) - 1 for b in blocks],
                                  "vars": blocks, "polys": [BIDEGREE_13]})
    count_points_generic(S, 7)  # numpy loaded outside the traced calls
    field_tables(field_of_order(q))
    record, peak, _ = _traced_mib(lambda: count_points_generic(spec, q))
    assert record.count == n and peak < TILE_PEAK_MIB
    # beyond the list of points it returns, points_on_variety holds the
    # sorted flat index of each point, 8 bytes, and one tile
    points, peak, held = _traced_mib(lambda: points_on_variety(spec, q))
    assert len(points) == n and peak - held - 8 * n / 2 ** 20 < TILE_PEAK_MIB


def test_fibered_counter_memory_is_linear():
    # four lists of about q entries: 0.4 MiB traced at p = 4001, where
    # q x q list tables took 249 MiB
    record, peak, _ = _traced_mib(lambda: count_S_fibered(4001))
    assert record.count == 16040010 and peak < 16


@pytest.mark.parametrize("p, n", [(20011, 400812864), (20021, 401000610)])
def test_fibered_counts_at_large_primes(p, n):
    # frozen from the counter that visited every fiber with c = 0 one by
    # one; 20011 = 1 mod 3 splits, and 20021 = 2 mod 3 is inert, where
    # N = 1 + p^2 + 8p
    assert count_S_fibered(p).count == n
    assert (n == 1 + p * p + 8 * p) == (p % 3 == 2)


def _s_fiber_count(xyz, tables) -> int:
    """Points of S above one base point [x:y:z]: zeros of the first equation
    on the line cut by the second.  Encodings in, the field's table set."""
    mul, add, neg = tables.mul, tables.add, tables.neg

    def inv(a):  # g^(-log a)
        return tables.powers[-tables.log[a] % len(tables.powers)]

    x, y, z = xyz
    c0, c1, c2 = mul(x, x), mul(y, y), mul(z, z)
    # two points spanning the line c0*u + c1*v + c2*w = 0
    if c0:
        s = inv(c0)
        b1, b2 = (neg(mul(c1, s)), 1, 0), (neg(mul(c2, s)), 0, 1)
    elif c1:
        b1, b2 = (1, 0, 0), (0, neg(mul(c2, inv(c1))), 1)
    else:
        b1, b2 = (1, 0, 0), (0, 1, 0)

    def form(u, v):  # polar form of x*u^2 + y*v^2 + z*w^2
        return add(add(mul(x, mul(u[0], v[0])), mul(y, mul(u[1], v[1]))),
                   mul(z, mul(u[2], v[2])))

    # the restriction is qa*U^2 + 2*cross*UV + qc*V^2
    return quadratic_root_count(form(b1, b1), mul(2, form(b1, b2)), form(b2, b2), tables)


def _fibers(q, pts):
    tables = field_tables(field_of_order(q))
    return sum(_s_fiber_count(pt, tables) for pt in pts)


def _oracle(q):
    # the per-fiber count over the whole base, no character sum
    return _fibers(q, enumerate_projective(q, 2))


def _list_table_count(p, k):
    """The fibered count as it was summed over q x q list tables: the
    character sum row by row, chi(y) sum_z chi(z) chi(1 + y^3 + z^3), and
    the exact fibers on xyz(x^3 + y^3 + z^3) = 0 through cube roots."""
    q = p ** k
    field = field_of_order(q)
    powers, log = (np.array(t) for t in field_tables(field)[:2])
    mul = powers[(log[:, None] + log) % (q - 1)]
    mul[0] = mul[:, 0] = 0
    mul = mul.tolist()
    digits = np.arange(q)[:, None] // p ** np.arange(k) % p
    add = ((digits[:, None] + digits[None]) % p @ p ** np.arange(k)).tolist()
    neg = [row.index(0) for row in add]
    chi = field_tables(field).chi
    cube = [mul[mul[z][z]][z] for z in range(q)]
    cube_roots = {}
    for z in range(1, q):
        cube_roots.setdefault(cube[z], []).append(z)
    degenerate = [(0, 0, 1)] + [(0, 1, z) for z in range(q)] + [(1, 0, z) for z in range(q)]
    char_sum = 0
    for y in range(1, q):
        row = add[add[1][cube[y]]]  # 1 + y^3 + (.)
        degenerate.append((1, y, 0))
        degenerate += [(1, y, z) for z in cube_roots.get(neg[row[0]], ())]
        char_sum += chi[y] * sum(map(operator.mul, chi,
                                     map(chi.__getitem__, map(row.__getitem__, cube))))
    generic = q * q - (len(degenerate) - q - 1)
    return generic + chi[neg[1]] * char_sum + _fibers(q, degenerate)


@pytest.mark.parametrize("p, k", [(p, 1) for p in range(5, 400) if is_prime(p)]
                         + [(p, 2) for p in range(5, 24) if is_prime(p)] + [(5, 3), (7, 3)])
def test_classes_match_the_list_table_sum(p, k):
    assert count_S_fibered(p, k).count == _list_table_count(p, k)


@pytest.mark.parametrize("p", [p for p in range(5, 100) if is_prime(p)])
def test_character_sum_matches_fiber_oracle(p):
    # p = 1 and p = 3 mod 4 both occur, so chi(-1) takes both signs
    assert count_S_fibered(p, 1).count == _oracle(p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_character_sum_matches_fiber_oracle_over_gf_p2(p):
    assert count_S_fibered(p, 2).count == _oracle(p * p)


@pytest.mark.parametrize("p, k", [(7, 1), (11, 1), (13, 1), (5, 2), (7, 2)])
def test_exact_fibers_are_the_zeros_of_the_discriminant(p, k):
    # the fiber above a base point with c = xyz(x^3 + y^3 + z^3) != 0 has
    # 1 + chi(-c) points; one with c = 0 has q + 1 points at the 3 coordinate
    # points and at the 3 gcd(3, q - 1) points with one coordinate 0 and
    # the cubes of the other two summing to 0, and 1 point everywhere else
    q = p ** k
    tables = field_tables(field_of_order(q))
    mul, add, neg = tables.mul, tables.add, tables.neg

    def cube(a):
        return mul(mul(a, a), a)

    whole_lines, predicted = [], []
    for pt in enumerate_projective(q, 2):
        x, y, z = pt
        cubes = add(add(cube(x), cube(y)), cube(z))
        if pt.count(0) == 2 or (pt.count(0) == 1 and cubes == 0):
            predicted.append(pt)
        c = mul(mul(mul(x, y), z), cubes)
        n = _s_fiber_count(pt, tables)
        if c:
            assert n == 1 + tables.chi[neg(c)]
        elif n != 1:
            assert n == q + 1
            whole_lines.append(pt)
    assert len(predicted) == 3 + 3 * math.gcd(3, q - 1)
    assert whole_lines == predicted


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


def _pow_loop_histogram(terms, var_idx, p):
    """Reference: evaluate the group's form at every affine assignment with
    one ``pow`` per variable and term."""
    hist = [0] * p
    for assign in product(range(p), repeat=len(var_idx)):
        val = 0
        for exps, c in terms:
            t = c
            for pos, i in enumerate(var_idx):
                t *= pow(assign[pos], exps[i], p) if exps[i] else 1
            val += t
        hist[val % p] += 1
    return hist


@pytest.mark.parametrize("p", [5, 7, 13, 31])
@pytest.mark.parametrize("spec", [X, FERMAT], ids=["X", "fermat"])
def test_row_histograms_match_the_pow_loop(spec, p):
    _, groups = pairsum_groups(spec)
    for var_idx, terms in groups:
        assert group_value_histogram(terms, var_idx, p) == \
            _pow_loop_histogram(terms, var_idx, p)


def test_row_histograms_of_mixed_groups_match_the_pow_loop():
    _, groups = pairsum_groups(MIXED)
    assert sorted(len(v) for v, _ in groups) == [1, 2, 2]
    for p in (5, 7, 13):
        for var_idx, terms in groups:
            assert group_value_histogram(terms, var_idx, p) == \
                _pow_loop_histogram(terms, var_idx, p)


def _row_histogram(terms, var_idx, p):
    """Reference: the value histogram of a group mod p, a row at a time over
    the group's last variable, from power lists built once."""
    *outer, last = var_idx
    powers = {}

    def power_list(e):
        if e not in powers:
            powers[e] = [pow(x, e, p) for x in range(p)]
        return powers[e]

    hist = [0] * p
    for assign in product(range(p), repeat=len(outer)):
        coeffs = {}
        for exps, c in terms:
            for x, i in zip(assign, outer):
                c *= power_list(exps[i])[x]
            coeffs[exps[last]] = coeffs.get(exps[last], 0) + c
        row = [0] * p
        for e, c in coeffs.items():
            c %= p
            if c:
                row = [r + c * y for r, y in zip(row, power_list(e))]
        for v in row:
            hist[v % p] += 1
    return hist


def _convolve_mod(a, b, p):
    out = [0] * p
    for s in range(p):
        acc = 0
        for v in range(p):
            acc += a[v] * b[(s - v) % p]
        out[s] = acc
    return out


def _row_reference_count(spec, p):
    """Reference: #spec(GF(p)) by the O(p^2) convolution of the row
    histograms, mod p."""
    _, groups = pairsum_groups(spec)
    result = None
    for var_idx, terms in groups:
        hist = _row_histogram(terms, var_idx, p)
        result = hist if result is None else _convolve_mod(result, hist, p)
    free = len(spec.blocks[0]) - sum(len(v) for v, _ in groups)
    return (result[0] * p ** free - 1) // (p - 1)


def _table_histogram(terms, var_idx, q):
    """Reference: the value histogram of a group over GF(q), the form
    evaluated from the field tables at every affine assignment, each
    power x^e read as g^(e log x)."""
    field = field_of_order(q)
    tables = field_tables(field)
    powers, log = tables.powers, tables.log

    def power(x, e):
        return powers[e * log[x] % (q - 1)] if x else int(e == 0)

    hist = [0] * q
    for assign in product(range(q), repeat=len(var_idx)):
        value = 0
        for exps, c in terms:
            t = c % field.p
            for x, i in zip(assign, var_idx):
                t = tables.mul(t, power(x, exps[i]))
            value = tables.add(value, t)
        hist[value] += 1
    return hist


@pytest.mark.parametrize("spec", [X, FERMAT, MIXED, CONE], ids=lambda s: s.name)
def test_convolution_equals_the_row_reference(spec):
    for p in range(5, 201):
        if is_prime(p):
            assert count_pairsum_convolution(spec, p).count == _row_reference_count(spec, p), p


@pytest.mark.parametrize("spec, q", [(X, 25), (FERMAT, 25), (MIXED, 25), (CONE, 25),
                                     (QUARTIC, 25), (MIXED, 49), (CONE, 49), (QUARTIC, 49)],
                         ids=lambda v: getattr(v, "name", v))
def test_convolution_equals_generic_over_extensions(spec, q, request):
    field = field_of_order(q)
    got = count_pairsum_convolution(spec, field.p, field.k)
    assert (got.p, got.k) == (field.p, field.k)
    expected = (request.getfixturevalue("x_over_25_count") if spec is X
                else count_points_generic(spec, q).count)
    assert got.count == expected


@pytest.mark.parametrize("q", [25, 49, 125])
@pytest.mark.parametrize("spec", [X, FERMAT, MIXED, QUARTIC], ids=lambda s: s.name)
def test_histograms_over_extensions_match_table_evaluation(spec, q):
    for var_idx, terms in pairsum_groups(spec)[1]:
        assert group_value_histogram(terms, var_idx, q) == _table_histogram(terms, var_idx, q)


@pytest.mark.parametrize("p, k", [(7, 2), (11, 2), (5, 3)])
def test_fourfold_identity_over_extensions(p, k):
    q = p ** k
    assert (count_pairsum_convolution(X, p, k).count
            == 1 + q ** 2 + q ** 4 + q * count_S_fibered(p, k).count)


@pytest.mark.parametrize("p, count", [(1009, 1037537376480), (4001, 256320288104013)])
def test_fourfold_counts_at_large_primes(p, count):
    # both equal 1 + p^2 + p^4 + p #S(GF(p)) with the fibered #S
    assert count_pairsum_convolution(X, p).count == count
    assert count == 1 + p ** 2 + p ** 4 + p * count_S_fibered(p).count


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
            if evaluate(mh.poly, list(vals), mod=p) == 0)
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
        for k, counts in reference[name].items():
            for p, n in counts.items():
                assert counting._fits_weil_bound(name, n, int(p) ** int(k)), (name, k, p, n)
    assert sorted(reference["S"]) == ["1", "2"]
    # the bound does refuse: S has |N - 1 - 49| <= 154 over GF(7)
    assert not counting._fits_weil_bound("S", 1 + 49 + 155, 7)
    assert counting._fits_weil_bound(None, 1 + 49 + 155, 7)


def test_builtin_sha_constants_hash_the_canonical_json():
    import hashlib
    assert sorted(counting._BUILTIN_SHA) == sorted(counting._BUILTIN_SOURCES)
    for name, sha in counting._BUILTIN_SHA.items():
        canon = json.dumps(builtin_variety(name).to_dict(), sort_keys=True,
                           separators=(",", ":"))
        assert sha == hashlib.sha256(canon.encode()).hexdigest(), name
        assert builtin_variety(name).sha() == sha


def test_variety_file_with_a_builtin_spec_is_that_builtin(tmp_path):
    # the builtin's exact spec, read from a file with other polynomial text:
    # same cache key, same counter under auto, same Weil-bound check
    src = {**counting._BUILTIN_SOURCES["S"], "polys": ["z*w^2+y*v^2+x*u^2",
                                                       "x^2*u+z^2*w+y^2*v"]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(src))
    spec = VarietySpec.from_file(path)
    assert spec.sha() == counting._BUILTIN_SHA["S"] == S.sha()
    assert count_variety(spec, 7).method == "fibered"
    cache = CountCache(str(tmp_path / "c.jsonl"))
    cache.put(S.sha(), counting.CountRecord("S", 7, 1, 400, "fibered"))
    assert count_variety(spec, 7, cache=cache).count == 177
    # another name is another variety: hashed, and counted by the generic oracle
    other = VarietySpec.from_dict({**src, "name": "T"})
    assert counting._builtin_name(other) is None
    assert other.sha() not in counting._BUILTIN_SHA.values()
    assert count_variety(other, 7).method == "generic"


def test_fibered_counter_is_charged_its_base_points(monkeypatch):
    # the budget charges the generic oracle alone: S over GF(11), with its
    # 133 base points, counts under any budget, and the field-order cap is
    # the one refusal, made before any table is built
    assert list(inspect.signature(count_S_fibered).parameters) == ["p", "k"]
    assert count_variety(S, 11, budget=1) == count_S_fibered(11)
    monkeypatch.setattr(counting, "field_tables", lambda field: pytest.fail("table built"))
    with pytest.raises(FieldError, match="^field order 9765625 exceeds the cap 2\\^20"):
        count_S_fibered(5, 10)
    with pytest.raises(FieldError, match="cap"):
        count_variety(S, 1048583, budget=10 ** 30)


def test_fibered_counter_refuses_a_prime_power(tmp_path):
    # 25 would otherwise count S over GF(25) under the label p = 25, and
    # count_variety would cache that count under the key (sha, 25, 1)
    cache = CountCache(tmp_path / "c.jsonl")
    with pytest.raises(FieldError, match="25 is not prime"):
        count_S_fibered(25)
    with pytest.raises(FieldError, match="25 is not prime"):
        count_variety(S, 25, cache=cache)
    assert not (tmp_path / "c.jsonl").exists()


def test_count_variety_refuses_a_prime_power_on_every_path(tmp_path):
    # the generic oracle counts over GF(q) for any prime power q, so without
    # a check of its own count_variety would return the GF(25) count under
    # the key p = 25, and would serve a cached record of that key
    triple = VarietySpec.from_dict(
        {"name": "triple", "ambient": [2], "vars": [["a", "b", "c"]],
         "polys": ["a*b*c"]})
    with pytest.raises(FieldError, match="25 is not prime"):
        count_variety(S, 25, method="generic")
    with pytest.raises(FieldError, match="25 is not prime"):
        count_variety(triple, 25)
    path = tmp_path / "c.jsonl"
    cache = CountCache(str(path))
    cache.put(S.sha(), counting.CountRecord("S", 25, 1, 1176, "generic"))
    for method in ("auto", "generic"):
        with pytest.raises(FieldError, match="25 is not prime"):
            count_variety(S, 25, method=method, cache=cache)
    assert len(path.read_text().splitlines()) == 1


def test_convolution_counter_is_charged_its_group_assignments(monkeypatch):
    # the budget charges the generic oracle alone: X over GF(7) and GF(49),
    # with 3 q^2 group assignments, counts under any budget, and the
    # field-order cap is the one refusal, made before any table is built
    assert list(inspect.signature(count_pairsum_convolution).parameters) == ["spec", "p", "k"]
    assert count_variety(X, 7, budget=1) == count_pairsum_convolution(X, 7)
    assert count_variety(X, 7, 2, budget=1) == count_pairsum_convolution(X, 7, 2)
    monkeypatch.setattr(counting, "field_tables", lambda field: pytest.fail("table built"))
    with pytest.raises(FieldError, match="^field order 1048583 exceeds the cap 2\\^20"):
        count_pairsum_convolution(X, 1048583)
    with pytest.raises(FieldError, match="cap"):
        count_variety(X, 1031, 2, budget=10 ** 30)


def test_budget_refusal_names_size():
    with pytest.raises(CountBudgetError) as e:
        count_points_generic(S, 7, budget=100)
    msg = str(e.value)
    assert "budget 100" in msg and str(57 * 57 * 6) in msg


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
    for p in (5, 7):
        assert (count_pairsum_convolution(CONE, p).count
                == count_points_generic(CONE, p).count)


def test_bad_characteristic_rejected():
    # the fibered counter's quadratic character needs odd q: over GF(2^k)
    # it would count 20, 66 and 114 where S has 21, 105 and 129 points
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match=f"needs odd q, got {2 ** k}"):
            count_S_fibered(2, k)
    # a prime power is no characteristic, for either structured counter
    with pytest.raises(FieldError, match="25 is not prime"):
        count_S_fibered(25)
    with pytest.raises(FieldError, match="25 is not prime"):
        count_pairsum_convolution(X, 25)


# counts over GF(2^k), k <= 4, and GF(3^k), k <= 2, from the generic oracle
SMALL_CHAR_COUNTS = {
    "S": {(2, 1): 21, (2, 2): 105, (2, 3): 129, (2, 4): 609, (3, 1): 34, (3, 2): 154},
    "X": {(2, 1): 63, (2, 2): 693, (2, 3): 5193, (2, 4): 75537, (3, 1): 193, (3, 2): 8029},
    "fermat": {(2, 1): 31, (2, 2): 693, (2, 3): 4681, (2, 4): 75537, (3, 1): 121,
               (3, 2): 7381},
}


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
def test_counts_in_characteristic_2_and_3(p, k):
    # fields take every prime: the generic oracle counts all three builtins,
    # the convolution counter agrees with it on X and the Fermat cubic (with
    # -1 = 1 in characteristic 2), and the fibered counter on S at p = 3
    for name, counts in SMALL_CHAR_COUNTS.items():
        spec = builtin_variety(name)
        assert count_points_generic(spec, p ** k).count == counts[p, k], name
        if name != "S":
            assert count_pairsum_convolution(spec, p, k).count == counts[p, k], name
    if p == 3:
        assert count_S_fibered(3, k).count == SMALL_CHAR_COUNTS["S"][3, k]
    # auto sends S at p = 2, which the fibered counter refuses, to the generic oracle
    rec = count_variety(S, p, k)
    assert (rec.count, rec.method) == (SMALL_CHAR_COUNTS["S"][p, k],
                                       "generic" if p == 2 else "fibered")


def test_fibered_counter_over_gf27():
    assert count_S_fibered(3, 3).count == count_points_generic(S, 27).count == 946


def test_points_on_variety_satisfy_equations():
    pts = points_on_variety(S, 7)
    assert len(pts) == 177
    for pt in pts:
        for mh in S.polys:
            assert evaluate(mh.poly, pt, mod=7) == 0
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
    # pair-sum varieties take the convolution counter at every k
    rec = count_variety(X, 7, k=2)
    assert rec.method == "convolution" and (rec.p, rec.k) == (7, 2)
    assert rec.count == 1 + 49 ** 2 + 49 ** 4 + 49 * count_S_fibered(7, 2).count
    rec = count_variety(CONE, 5, k=2)
    assert rec.method == "convolution"
    assert rec.count == count_points_generic(CONE, 25).count
    assert count_variety(S, 7, method="generic").count == 177
    # auto picks the fibered and convolution counters; no caller can
    for method in ("fibered", "convolution"):
        with pytest.raises(ValueError, match="unknown method"):
            count_variety(X, 7, method=method)


def test_builtin_unknown_name():
    with pytest.raises(KeyError):
        builtin_variety("nope")
