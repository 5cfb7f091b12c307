import json
import os
import subprocess
import sys

import pytest

BASE_ENV = {k: v for k, v in os.environ.items() if k != "CFZ_CACHE"}
CAP_MESSAGE = "exceeds the cap 2^20 = 1048576 on the field tables"


def run_cli(*args, cache=None):
    env = dict(BASE_ENV)
    env["CFZ_CACHE"] = str(cache) if cache else os.devnull
    return subprocess.run([sys.executable, "-m", "cfz", *args],
                          capture_output=True, text=True, env=env)


def test_count_builtin_surface(tmp_path):
    r = run_cli("count", "--variety", "builtin:S", "--primes", "7", "--ext", "1",
                cache=tmp_path / "c.jsonl")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"p": 7, "k": 1, "count": 177}


def test_count_surface_over_gf_125():
    r = run_cli("count", "--variety", "builtin:S", "--ext", "3", "--primes", "5", "--no-cache")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"p": 5, "k": 3, "count": 16626}


@pytest.mark.parametrize("args", [["--ext", "0"], ["--ext", "-1"]])
def test_count_rejects_bad_extension(args):
    r = run_cli("count", "--variety", "builtin:X", "--primes", "7", "--no-cache", *args)
    assert r.returncode == 2
    assert r.stdout == ""


def test_count_convolution_over_gf_25():
    # the generic count of X over GF(25), from the convolution counter
    # that auto picks for X
    r = run_cli("count", "--variety", "builtin:X", "--primes", "5", "--ext", "2",
                "--no-cache")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"p": 5, "k": 2, "count": 420651}


def test_count_fermat():
    r = run_cli("count", "--variety", "builtin:fermat", "--primes", "7", "--no-cache")
    assert r.returncode == 0
    assert json.loads(r.stdout)["count"] == 3690


def test_count_rejects_non_prime():
    r = run_cli("count", "--variety", "builtin:S", "--primes", "4")
    assert r.returncode == 2
    assert "4 is not prime" in r.stderr


def test_count_tsv_format(tmp_path):
    r = run_cli("count", "--variety", "builtin:S", "--primes", "7,13",
                "--format", "tsv", cache=tmp_path / "c.jsonl")
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "name\tp\tk\tcount"
    assert lines[1] == "S\t7\t1\t177"
    assert lines[2] == "S\t13\t1\t429"


def test_count_variety_file(tmp_path):
    spec = {"name": "conic", "ambient": [2], "vars": [["x", "y", "z"]],
            "polys": ["x^2+y^2-z^2"]}
    path = tmp_path / "conic.json"
    path.write_text(json.dumps(spec))
    r = run_cli("count", "--variety", str(path), "--primes", "5", "--no-cache")
    assert r.returncode == 0
    assert json.loads(r.stdout)["count"] == 6  # smooth conic is a P^1


def test_count_budget_exceeded(tmp_path):
    r = run_cli("count", "--variety", "builtin:S", "--primes", "7",
                "--method", "generic", "--budget", "10", "--no-cache")
    assert r.returncode == 2
    assert "exceed" in r.stderr


def test_count_fibered_budget_exceeded():
    # the budget charges the generic oracle alone: the fibered counter
    # counts S over GF(11), 133 base points, under a budget of 100
    r = run_cli("count", "--variety", "builtin:S", "--primes", "11", "--budget", "100",
                "--no-cache")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"p": 11, "k": 1, "count": 1 + 11 * 11 + 8 * 11}


def test_count_convolution_budget_exceeded():
    # nor the convolution counter, whose histograms cover 3 * 1009^2
    # group assignments
    r = run_cli("count", "--variety", "builtin:X", "--primes", "1009", "--budget", "10",
                "--no-cache")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"p": 1009, "k": 1, "count": 1037537376480}


def _fourfold_from_surface(n, q):
    return 1 + q ** 2 + q ** 4 + q * n


def test_structured_counts_at_large_q():
    # #S(GF(20011)) = 400812864, pinned in test_counting
    r = run_cli("count", "--variety", "builtin:X", "--primes", "20011", "--no-cache")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["count"] == _fourfold_from_surface(400812864, 20011)
    # X over GF(137^2) against S through the fourfold identity
    rows = {}
    for name in ("S", "X"):
        r = run_cli("count", "--variety", f"builtin:{name}", "--ext", "2", "--primes", "137",
                    "--no-cache")
        assert r.returncode == 0, r.stderr
        rows[name] = json.loads(r.stdout)
    assert rows["X"]["k"] == 2
    assert rows["X"]["count"] == _fourfold_from_surface(rows["S"]["count"], 137 ** 2)
    r = run_cli("trace-table", "--primes", "40009", "--no-cache")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["match"] is True


@pytest.mark.parametrize("args", [("builtin:S", "--ext", "10", "--primes", "5"),
                                  ("builtin:X", "--primes", "1048583")])
def test_count_past_the_field_order_cap_is_refused(args):
    variety, *rest = args
    r = run_cli("count", "--variety", variety, *rest, "--no-cache")
    assert r.returncode == 2
    assert r.stdout == ""
    assert CAP_MESSAGE in r.stderr


def test_an_over_cap_prime_is_refused_before_anything_is_counted(monkeypatch, capsys):
    # the refusal names the least over-cap order, as counting in ascending
    # order did, and comes before any range is enumerated or counted
    from cfz import cli, counting

    def counter(*args, **kwargs):
        pytest.fail("a counter ran")

    for name in ("count_variety", "count_S_fibered", "count_pairsum_convolution",
                 "count_points_generic", "count_fermat_cubic"):
        monkeypatch.setattr(counting, name, counter)
    for line, q in (("count --variety builtin:S --primes 1048573,1048583 --no-cache", 1048583),
                    ("count --variety builtin:S --primes 5..2000000 --no-cache", 1048583),
                    ("trace-table --primes 2000003,1048583..1048600,7 --no-cache", 1048583),
                    ("verify --suite counts --primes 5..2000000", 1048583),
                    ("count --variety builtin:X --ext 2 --primes 7,5..2000 --no-cache", 1031 ** 2)):
        assert cli.main(line.split()) == 2
        assert capsys.readouterr() == ("", f"error: field order {q} {CAP_MESSAGE}\n")
    # a range's upper end over the cap is no refusal when no prime lies past it
    assert cli._parse_primes("1048572..1048577") == [1048573]


def _good_primes_by_trial_division(text):
    from cfz.fields import is_prime
    spans = [(int(lo), int(hi or lo)) for lo, _, hi in
             (token.partition("..") for token in text.split(","))]
    return sorted({n for lo, hi in spans for n in range(max(lo, 5), hi + 1) if is_prime(n)})


@pytest.mark.parametrize("text, k", [
    ("5..200", 1), ("1048570..1048577", 1), ("0..30,29,7", 1), ("1000..1024,5", 2),
    ("90..101", 3), ("5..16", 5), ("13", 5)])
def test_the_sieve_lists_the_good_primes(text, k):
    # 101^3 and 16^5 = 2^20 are under the cap, so the sieve must reach
    # the exact k-th root of the cap
    from cfz import cli
    assert cli._parse_primes(text, k) == _good_primes_by_trial_division(text)


def test_the_sieve_keeps_the_refusals():
    from cfz import cli
    from cfz.fields import FieldError
    with pytest.raises(cli.UsageError, match="no usable primes given"):
        cli._parse_primes("0..4", 9)
    with pytest.raises(FieldError, match=f"field order {5 ** 9} "):
        cli._parse_primes("2..7", 9)
    with pytest.raises(FieldError, match=f"field order {17 ** 5} "):
        cli._parse_primes("5..17", 5)


def test_a_long_range_is_sieved_not_trial_divided(monkeypatch):
    from cfz import cli, fields
    calls = []
    real = fields.is_prime
    monkeypatch.setattr(fields, "is_prime", lambda n: calls.append(n) or real(n))
    primes = cli._parse_primes("5..1048575")
    assert len(primes) == 82023 and primes[-1] == 1048573
    assert len(calls) < 1000


def test_count_convolution_within_default_budget():
    r = run_cli("count", "--variety", "builtin:X", "--primes", "5..200", "--no-cache")
    assert r.returncode == 0, r.stderr
    rows = [json.loads(line) for line in r.stdout.splitlines()]
    assert [row["p"] for row in rows] == [p for p in range(5, 201)
                                         if p > 1 and all(p % d for d in range(2, p))]
    assert rows[-1] == {"p": 199, "k": 1, "count": 1576896498}


@pytest.mark.parametrize("spec", [
    {"name": "T", "polys": ["x"]},
    [{"name": "T", "vars": [["x", "y"]], "polys": ["x"]}],
    {"name": 5, "vars": [["x", "y"]], "polys": ["x"]},
    {"name": "T", "vars": [["x", "y"]], "polys": "xy"},
    {"name": "T", "vars": ["xy"], "polys": ["x"]},
    {"name": "T", "vars": [["x", 1]], "polys": ["x"]},
    {"name": "T", "vars": [], "polys": []},
    {"name": "T", "vars": [["x", "y"], []], "polys": []},
    {"name": "T", "vars": [["x", "y"]], "polys": ["x", 2]},
    {"name": "T", "ambient": 1, "vars": [["x", "y"]], "polys": ["x"]},
], ids=["no-vars", "top-level-list", "name-not-string", "polys-string", "block-string",
        "variable-not-string", "no-blocks", "empty-block", "poly-not-string",
        "ambient-not-list"])
def test_malformed_variety_file_exits_2(tmp_path, spec):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(spec))
    r = run_cli("count", "--variety", str(path), "--primes", "5", "--no-cache")
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


def test_trace_table_golden():
    r = run_cli("trace-table", "--primes", "7,13,19,31,37", "--format", "tsv",
                "--no-cache")
    assert r.returncode == 0
    assert r.stdout == (
        "p\tN1\tresidue\tap_predicted\tmatch\n"
        "7\t177\t1\t-13\ttrue\n"
        "13\t429\t12\t-1\ttrue\n"
        "19\t753\t11\t11\ttrue\n"
        "31\t1536\t16\t-46\ttrue\n"
        "37\t2157\t10\t47\ttrue\n")


def test_trace_table_inert_primes():
    r = run_cli("trace-table", "--primes", "5,11", "--format", "json", "--no-cache")
    rows = [json.loads(line) for line in r.stdout.strip().splitlines()]
    assert [row["residue"] for row in rows] == [0, 0]
    assert [row["ap_predicted"] for row in rows] == [0, 0]
    assert all(row["match"] for row in rows)


def test_trace_table_bad_prime():
    r = run_cli("trace-table", "--primes", "3")
    assert r.returncode == 2
    assert "bad prime" in r.stderr


def test_identify_range():
    r = run_cli("identify", "--primes", "7..40", "--no-cache")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["match"] == 0
    assert report["status"] == "unique"
    assert report["checked_primes"] == [7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_identify_inert_only_ambiguous():
    r = run_cli("identify", "--primes", "5,11", "--no-cache")
    assert r.returncode == 1
    assert json.loads(r.stdout)["match"] is None


def test_identify_residue_override(tmp_path):
    path = tmp_path / "residues.json"
    path.write_text(json.dumps([[7, 2]]))
    r = run_cli("identify", "--residues", str(path))
    assert r.returncode == 0
    assert json.loads(r.stdout)["match"] == 1


def _divides(quotient_coeffs, product_coeffs):
    # exact polynomial division check over the integers
    rem = list(product_coeffs)
    div = list(quotient_coeffs)
    out_deg = len(rem) - len(div)
    if out_deg < 0:
        return False
    for i in range(out_deg, -1, -1):
        c = rem[i + len(div) - 1]
        if c % div[-1]:
            return False
        f = c // div[-1]
        for j, d in enumerate(div):
            rem[i + j] -= f * d
    return all(c == 0 for c in rem)


def test_zeta_at_7():
    r = run_cli("zeta", "--prime", "7", "--no-cache")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["count_reconstructed"] == 3690
    assert report["count_direct"] == 3690
    assert report["match"] is True
    p4 = next(f for f in report["factors"] if f["weight"] == 4)
    assert _divides((1, 91, 2401), p4["coeffs"])
    assert len(p4["coeffs"]) == 24
    weights = [f["weight"] for f in report["factors"]]
    assert weights == [0, 2, 4, 6, 8]


def test_zeta_at_13():
    r = run_cli("zeta", "--prime", "13", "--no-cache")
    report = json.loads(r.stdout)
    assert report["count_reconstructed"] == 34308 and report["match"]


def test_zeta_inert_requires_explicit_ns():
    r = run_cli("zeta", "--prime", "5", "--no-cache")
    assert r.returncode == 2
    assert "ns-fixed" in r.stderr
    # N1(5) = 66, so t2 = 40 = 5 * 8 with a vanishing transcendental trace
    r = run_cli("zeta", "--prime", "5", "--ns-fixed", "8", "--no-cache")
    assert r.returncode == 0
    assert json.loads(r.stdout)["match"] is True
    r = run_cli("zeta", "--prime", "5", "--ns-fixed", "4", "--no-cache")
    assert r.returncode == 1  # consistent input shape, wrong eigenvalue pattern


def test_zeta_inert_refuses_before_it_counts(tmp_path):
    # the refusal comes before S is counted, so nothing reaches the cache
    cache = tmp_path / "c.jsonl"
    cache.write_text("")
    r = run_cli("zeta", "--prime", "5", "--cache", str(cache))
    assert r.returncode == 2
    assert r.stderr.strip().endswith(
        "p = 5 is 2 mod 3: the algebraic eigenvalue pattern is not "
        "determined by counts; pass --ns-fixed explicitly")
    assert r.stdout == "" and cache.read_text() == ""


def test_lattice_command():
    r = run_cli("lattice", "--h2t", "4", "--tt", "10")
    assert json.loads(r.stdout) == {
        "admissible": True, "discriminant": 14, "h2h2": 3, "h2t": 4,
        "k3_degree_n": 2, "tt": 10}
    r = run_cli("lattice", "--d", "20")
    out = json.loads(r.stdout)
    assert out["admissible"] and out["k3_degree_n"] is None


@pytest.mark.parametrize("args", [["--d", "14", "--h2t", "1", "--tt", "2"],
                                  ["--h2t", "4", "--tt", "10", "--d", "14"],
                                  ["--d", "14", "--h2t", "1"], []])
def test_lattice_rejects_conflicting_or_missing_input(args):
    r = run_cli("lattice", *args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ")


def test_only_the_process_entry_freezes_the_heap(capsys, monkeypatch):
    # run() freezes the heap so the interpreter's collection at exit has
    # nothing to traverse; main(), which callers may run many times in one
    # process, does not
    import gc

    from cfz import cli

    assert cli.main(["lattice", "--d", "14"]) == 0
    assert gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["cfz", "lattice", "--d", "20"])
    try:
        assert cli.run() == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["discriminant"] == 20
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"),
              encoding="utf-8") as fh:
        assert 'cfz = "cfz.cli:run"' in fh.read().splitlines()


def test_pluecker_command():
    r = run_cli("pluecker", "--k", "1", "--n", "4", "--q", "2")
    out = json.loads(r.stdout)
    assert out["max_dim"] == 3
    assert out["families"] == [{"count": 31, "type": "pencil-through-fixed-plane"}]


def test_pluecker_searches_lines_in_p6():
    # Gr(1, 6)(GF(2)) is 2667 points in P^20; 2k < n - 1, so the answer is
    # n - k, attained by the pencils of lines through a point
    r = run_cli("pluecker", "--k", "1", "--n", "6", "--q", "2")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["max_dim"] == 5
    assert out["families"] == [{"count": 127, "type": "pencil-through-fixed-plane"}]


def test_pluecker_refuses_past_5000_points():
    r = run_cli("pluecker", "--k", "2", "--n", "5", "--q", "3")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == ("error: Gr(2,5)(GF(3)) has 33880 points in P^19; "
                        "beyond the search budget\n")


def test_verify_suites_pass():
    r = run_cli("verify", "--suite", "identities", "--primes", "7,13")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["passed"] is True
    r = run_cli("verify", "--suite", "automorphisms")
    report = json.loads(r.stdout)
    orders = {c["name"]: c["detail"].get("order")
              for s in report["suites"] for c in s["checks"]}
    assert orders["automorphisms-one-pair"] == 6
    assert orders["automorphisms-three-pairs"] == 216


def test_verify_pluecker_suite():
    r = run_cli("verify", "--suite", "pluecker")
    assert r.returncode == 0


def test_output_determinism_and_cache_transparency(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cold = run_cli("count", "--variety", "builtin:S", "--primes", "7,13", cache=cache)
    warm = run_cli("count", "--variety", "builtin:S", "--primes", "7,13", cache=cache)
    nocache = run_cli("count", "--variety", "builtin:S", "--primes", "7,13",
                      "--no-cache", cache=cache)
    assert cold.stdout == warm.stdout == nocache.stdout
    assert cache.exists()
    a = run_cli("identify", "--primes", "7..40", "--no-cache")
    b = run_cli("identify", "--primes", "7..40", "--no-cache")
    assert a.stdout == b.stdout


def test_usage_error_exit_code():
    r = run_cli("count", "--variety", "builtin:nope", "--primes", "7")
    assert r.returncode == 2
    r = run_cli("nonsense")
    assert r.returncode == 2


def test_identify_residues_file(tmp_path):
    path = tmp_path / "residues.json"
    path.write_text(json.dumps([[7, 1], [13, 12], [19, 11], [31, 16], [37, 10]]))
    r = run_cli("identify", "--residues", str(path))
    assert r.returncode == 0
    assert json.loads(r.stdout)["match"] == 0


@pytest.mark.parametrize("residues, message", [
    ([], "no residues given"),
    ([[7, 1], [13, 12], [7, 2]], "two residues, 1 and 2, given for p = 7"),
    ({"7": 1}, "expected a JSON list [[p, r], ...]"),
], ids=["empty-file", "file-conflict", "file-object"])
def test_identify_rejects_dropped_or_contradictory_input(tmp_path, residues, message):
    # each of these was once ignored, overridden silently, or reported as
    # a mathematical result
    path = tmp_path / "residues.json"
    path.write_text(json.dumps(residues))
    r = run_cli("identify", "--residues", str(path))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.endswith(message + "\n")
    assert r.stderr.count("\n") == 1


@pytest.mark.parametrize("residues", [[[7, 2.5]], [[7, True]], [["7", 2]], [[7.0, 2]]],
                         ids=["float-residue", "bool-residue", "string-prime", "float-prime"])
def test_identify_rejects_entries_that_are_not_integers(tmp_path, residues):
    # int() once read these as [[7, 2]] and identified the form from them
    path = tmp_path / "residues.json"
    path.write_text(json.dumps(residues))
    r = run_cli("identify", "--residues", str(path))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: {path}: expected a JSON list [[p, r], ...]\n"


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("args", [
    ["count", "--variety", "builtin:S", "--primes", "7", "--method", "fibered"],
    ["count", "--variety", "builtin:X", "--primes", "7", "--method", "convolution"],
    ["identify", "--primes", "7", "--residue-override", "7:2"],
    ["identify", "--primes", "7", "--residues",
     os.path.join(GOLDEN, "identify-twist1-residues.json")],
    ["verify", "--suite", "pluecker", "--no-cache"],
    ["verify", "--suite", "pluecker", "--cache", "c.jsonl"],
], ids=["method-fibered", "method-convolution", "residue-override", "primes-and-residues",
        "verify-no-cache", "verify-cache"])
def test_options_the_code_decides_are_usage_errors(args, capsys):
    # auto picks the counter, residues come from a file or from counts,
    # and verify's suites read no cache
    from cfz import cli
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage: cfz" in err


@pytest.mark.parametrize("name, args", [
    ("zeta-7", ["zeta", "--prime", "7"]),
    ("identify-7-40", ["identify", "--primes", "7..40"]),
    ("count-S-ext2-5-7", ["count", "--variety", "builtin:S", "--ext", "2",
                          "--primes", "5,7"]),
    ("count-X-5-31", ["count", "--variety", "builtin:X", "--primes", "5..31"]),
    ("verify-counts-5-13", ["verify", "--suite", "counts", "--primes", "5..13"]),
    ("verify-automorphisms", ["verify", "--suite", "automorphisms"]),
    ("count-S-ext2-5-7-generic", ["count", "--variety", "builtin:S", "--ext", "2",
                                  "--primes", "5,7", "--method", "generic"]),
    ("trace-table-5-200", ["trace-table", "--primes", "5..200"]),
    ("verify-forms-5-13", ["verify", "--suite", "forms", "--primes", "5..13"]),
    ("identify-5-80", ["identify", "--primes", "5..80"]),
    # twist-1 residues under the declared embedding: the tie-break path
    ("identify-twist1", ["identify", "--residues",
                         os.path.join(GOLDEN, "identify-twist1-residues.json")]),
])
def test_golden_stdout(name, args):
    # byte-for-byte stdout of the commands, frozen from an earlier release;
    # verify takes no cache flag, since its suites call the counters directly
    r = run_cli(*args, *(["--no-cache"] if args[0] != "verify" else []))
    assert r.returncode == 0, r.stderr
    with open(os.path.join(GOLDEN, name + ".out"), encoding="utf-8", newline="") as fh:
        assert r.stdout == fh.read()


@pytest.mark.parametrize("k, n, q", [(1, 3, 3), (2, 4, 2), (1, 4, 3), (2, 5, 2)])
def test_pluecker_golden_stdout(k, n, q):
    # together these cover both family labels, frozen from the search that
    # grew cliques from every point
    r = run_cli("pluecker", "--k", str(k), "--n", str(n), "--q", str(q))
    assert r.returncode == 0, r.stderr
    with open(os.path.join(GOLDEN, f"pluecker-{k}-{n}-{q}.out"), encoding="utf-8",
              newline="") as fh:
        assert r.stdout == fh.read()


@pytest.mark.parametrize("q", [0, 1, 4, 9])
def test_pluecker_rejects_non_prime_q(q):
    r = run_cli("pluecker", "--k", "1", "--n", "3", "--q", str(q))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: {q} is not prime\n"


def test_verify_check_names_are_unique():
    # the fourfold identity is checked once, in the counts suite
    r = run_cli("verify", "--suite", "all", "--primes", "5..13")
    assert r.returncode == 0, r.stderr
    names = [c["name"] for s in json.loads(r.stdout)["suites"] for c in s["checks"]]
    assert len(names) == len(set(names))
    assert "fourfold-identity-p7" in names
    assert "fourfold-count-p7" not in names


def test_inconsistent_cached_count_exits_1(tmp_path):
    # a cache line claiming 178 points for S at p = 7 (the true count is 177)
    # makes the algebraic trace 141 indivisible by 7: the mathematics
    # disagrees, which is exit 1, not a usage error
    from cfz.counting import builtin_variety
    cache = tmp_path / "c.jsonl"
    cache.write_text(json.dumps({"sha": builtin_variety("S").sha(), "name": "S", "p": 7,
                                 "k": 1, "count": 178, "method": "fibered"}) + "\n")
    r = run_cli("zeta", "--prime", "7", "--cache", str(cache))
    assert r.returncode == 1
    assert "not divisible" in r.stderr
    # a malformed --ns-fixed is still bad input
    r = run_cli("zeta", "--prime", "7", "--ns-fixed", "7", "--no-cache")
    assert r.returncode == 2


def test_cached_count_of_the_wrong_parity_exits_1(tmp_path):
    # 170 points for S at p = 7 (the true count is 177) lies inside the Weil
    # bound and gives t_alg = 19 * 7, but the fixed and flipped classes of
    # NS(S) sum to 20, so their difference is even: the mathematics
    # disagrees, though no --ns-fixed was given
    from cfz.counting import builtin_variety
    cache = tmp_path / "c.jsonl"
    cache.write_text(json.dumps({"sha": builtin_variety("S").sha(), "name": "S", "p": 7,
                                 "k": 1, "count": 170, "method": "fibered"}) + "\n")
    r = run_cli("zeta", "--prime", "7", "--cache", str(cache))
    assert (r.returncode, r.stdout) == (1, "")
    assert "odd" in r.stderr


def test_cached_count_breaking_the_weil_bound_is_recomputed(tmp_path):
    # 400 fits in the 3249 points of P^2 x P^2 over GF(7), but a K3 surface
    # has |N - 1 - 49| <= 22 * 7 = 154
    from cfz.counting import builtin_variety
    cache = tmp_path / "c.jsonl"
    cache.write_text(json.dumps({"sha": builtin_variety("S").sha(), "name": "S", "p": 7,
                                 "k": 1, "count": 400, "method": "fibered"}) + "\n")
    r = run_cli("count", "--variety", "builtin:S", "--primes", "7", cache=cache)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"p": 7, "k": 1, "count": 177}
    assert len(cache.read_text().splitlines()) == 1


def test_format_only_on_count_and_trace_table():
    for cmd in (["zeta", "--prime", "7"], ["identify", "--primes", "7"],
                ["verify", "--suite", "forms"]):
        r = run_cli(*cmd, "--format", "tsv")
        assert r.returncode == 2, cmd
        assert "--format" in r.stderr


def test_import_builds_no_tables():
    code = ("import cfz.cli, cfz.fields; "
            "print(cfz.fields.field_tables.cache_info().currsize)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=BASE_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "0"


NUMPY_PROBE = """
import contextlib, io, json, sys
import cfz, cfz.cli
seen = [["import", 0, "numpy" in sys.modules]]
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cfz.cli.main(line.split())
    seen.append([line, code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_numpy_loads_only_for_numpy_kernels(tmp_path):
    # lookups, the lattice, the fibered and convolution counters and the
    # Grassmannian search run without numpy; the generic oracle needs it
    from cfz.counting import builtin_variety
    cache = tmp_path / "c.jsonl"
    cache.write_text(json.dumps({"sha": builtin_variety("S").sha(), "name": "S", "p": 7,
                                 "k": 1, "count": 177, "method": "fibered"}) + "\n")
    lines = ["lattice --d 14", "count --variety builtin:X --primes 5..31",
             "count --variety builtin:S --primes 7", "zeta --prime 7",
             "trace-table --primes 5..13 --no-cache",
             "count --variety builtin:S --ext 2 --primes 5 --no-cache",
             "count --variety builtin:X --ext 2 --primes 5 --no-cache",
             "pluecker --k 1 --n 3 --q 2", "verify --suite pluecker",
             "count --variety builtin:S --primes 7 --method generic --no-cache"]
    r = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *lines], capture_output=True,
                       text=True, env={**BASE_ENV, "CFZ_CACHE": str(cache)})
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [["import", 0, False]] + [
        [line, 0, line == lines[-1]] for line in lines]


MODULE_PROBE = """
import contextlib, io, json, sys, types
import cfz.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cfz.cli.main(sys.argv[1:])
# a submodule not yet read is still the lazy placeholder, not a plain module
print(json.dumps([code, sorted(name[4:] for name, m in sys.modules.items()
                               if name.startswith("cfz.") and type(m) is types.ModuleType)]))
"""


@pytest.mark.parametrize("line, exit_code, loaded, not_loaded", [
    ("lattice --d 14", 0, {"cli", "lattice"}, None),
    ("lattice --h2t 1", 2, {"cli"}, None),
    ("pluecker --k 1 --n 3 --q 2", 0, {"cli", "fields", "grassmann", "linalg"}, None),
    ("count --variety builtin:S --primes 7 --no-cache", 0, None,
     {"cmforms", "fourfold", "grassmann", "lattice"}),
    ("verify --suite automorphisms", 0, None, {"cmforms", "grassmann"}),
    # identify_form on given residues counts nothing
    ("identify --residues " + os.path.abspath(
        os.path.join(GOLDEN, "identify-twist1-residues.json")), 0,
     {"cli", "cmforms", "fields"}, None),
], ids=["lattice", "usage-error", "pluecker", "count", "verify-automorphisms",
        "identify-residues"])
def test_a_command_runs_only_the_cfz_modules_it_uses(line, exit_code, loaded, not_loaded):
    # one fresh process per command, since a module once run stays loaded
    r = subprocess.run([sys.executable, "-c", MODULE_PROBE, *line.split()],
                       capture_output=True, text=True, env=BASE_ENV)
    assert r.returncode == 0, r.stderr
    code, ran = json.loads(r.stdout)
    assert code == exit_code
    if loaded is not None:
        assert set(ran) == loaded
    if not_loaded is not None:
        assert not set(ran) & not_loaded, ran


IMPORT_PROBE = """
import contextlib, io, json, sys
import cfz, cfz.cli
LAZY = ("dataclasses", "inspect", "fractions", "hashlib", "_hashlib")
seen = [["import", 0, [m for m in LAZY if m in sys.modules]]]
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cfz.cli.main(line.split())
    seen.append([line, code, [m for m in LAZY if m in sys.modules]])
print(json.dumps(seen))
"""


def test_start_up_imports_no_dataclasses_fractions_or_hashlib(tmp_path):
    # records are named tuples; a builtin's cache key is a constant, so hashlib
    # (and OpenSSL's _hashlib) loads only when a custom variety meets the cache,
    # and no command loads fractions
    from cfz.counting import builtin_variety
    cache = tmp_path / "c.jsonl"
    cache.write_text(json.dumps({"sha": builtin_variety("S").sha(), "name": "S", "p": 7,
                                 "k": 1, "count": 177, "method": "fibered"}) + "\n")
    conic = tmp_path / "conic.json"
    conic.write_text(json.dumps({"name": "conic", "vars": [["x", "y", "z"]],
                                 "polys": ["x^2+y^2-z^2"]}))
    lines = ["lattice --d 14", "count --variety builtin:S --primes 7",
             "verify --suite forms --primes 7", "verify --suite automorphisms",
             f"count --variety {conic} --primes 5 --no-cache",
             f"count --variety {conic} --primes 5"]
    r = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *lines], capture_output=True,
                       text=True, env={**BASE_ENV, "CFZ_CACHE": str(cache)})
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [
        ["import", 0, []], [lines[0], 0, []], [lines[1], 0, []], [lines[2], 0, []],
        [lines[3], 0, []], [lines[4], 0, []], [lines[5], 0, ["hashlib", "_hashlib"]]]


def test_builtin_commands_never_load_hashlib(tmp_path):
    # each command runs twice: the first fills the cache, the second hits it
    lines = ["trace-table --primes 5..13", "identify --primes 7..40", "zeta --prime 7",
             "count --variety builtin:S --primes 7", "count --variety builtin:X --primes 7"]
    r = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *lines, *lines],
                       capture_output=True, text=True,
                       env={**BASE_ENV, "CFZ_CACHE": str(tmp_path / "c.jsonl")})
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [["import", 0, []]] + [[line, 0, []] for line in lines * 2]
    assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 11  # S at 5..37, X at 7


@pytest.mark.parametrize("bad", [
    {"name": None}, {"count": "abc"}, {"count": -5}, "array",
], ids=["no-name", "count-abc", "count-negative", "array-line"])
def test_malformed_cache_record_is_never_served(tmp_path, bad):
    # each line once crashed a lookup or was served as the count of S at p = 7
    from cfz.counting import builtin_variety
    sha = builtin_variety("S").sha()
    good = {"sha": sha, "name": "S", "p": 7, "k": 1, "count": 177, "method": "fibered"}
    if bad == "array":
        lines = [[1, 2], [sha, 7, 1, 178]]
    else:
        lines = [{key: value for key, value in {**good, **bad}.items() if value is not None}]
    cache = tmp_path / "c.jsonl"
    cache.write_text("".join(json.dumps(line) + "\n" for line in lines))
    r = run_cli("count", "--variety", "builtin:S", "--primes", "7", cache=cache)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"p": 7, "k": 1, "count": 177}
    assert json.loads(cache.read_text().splitlines()[-1]) == good
    r = run_cli("zeta", "--prime", "7", cache=cache)
    assert r.returncode == 0, r.stderr
    assert r.stdout == run_cli("zeta", "--prime", "7", "--no-cache").stdout


def test_a_cache_line_that_is_not_utf8_is_skipped(tmp_path):
    # such a line once stopped every lookup of the file with a decode error
    from cfz.counting import builtin_variety
    sha = builtin_variety("S").sha().encode()
    garbage = [b"\xff\xfe garbage", b'{"sha": "' + sha + b'", "name": "\xff"}']
    cache = tmp_path / "c.jsonl"
    cache.write_bytes(b"".join(line + b"\n" for line in garbage))
    r = run_cli("count", "--variety", "builtin:S", "--primes", "7", "--cache", str(cache))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"p": 7, "k": 1, "count": 177}
    *kept, appended = cache.read_bytes().splitlines()
    assert kept == garbage
    assert json.loads(appended) == {"sha": sha.decode(), "name": "S", "p": 7, "k": 1,
                                    "count": 177, "method": "fibered"}


def test_rejected_cache_hit_is_not_appended(tmp_path):
    # the first record of a key is the one every lookup reads, so a count
    # recomputed after rejecting it (here: another method asked for) is
    # not appended: it could never be served
    from cfz.counting import builtin_variety
    cache = tmp_path / "c.jsonl"
    cache.write_text(json.dumps({"sha": builtin_variety("S").sha(), "name": "S", "p": 7,
                                 "k": 1, "count": 177, "method": "fibered"}) + "\n")
    before = cache.read_text()
    for _ in range(3):
        r = run_cli("count", "--variety", "builtin:S", "--primes", "7",
                    "--method", "generic", cache=cache)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == {"p": 7, "k": 1, "count": 177}
    assert cache.read_text() == before


def test_hilbert_square_check_uses_the_orbit_oracle():
    r = run_cli("verify", "--suite", "identities", "--primes", "7")
    assert r.returncode == 0, r.stderr
    checks = {c["name"]: c for s in json.loads(r.stdout)["suites"] for c in s["checks"]}
    check = checks["hilbert-square-7"]
    assert check["passed"]
    assert check["detail"] == {"N1": 177, "N2": 3453, "count": 18630,
                               "frobenius_fixed": 177, "conjugate_pairs": 1638}


def test_identities_suite_runs_the_orbit_oracle_at_5_and_7():
    r = run_cli("verify", "--suite", "identities")
    assert r.returncode == 0, r.stderr
    (suite,) = json.loads(r.stdout)["suites"]
    assert [c["name"] for c in suite["checks"]] == ["hilbert-square-5", "hilbert-square-7"]
    assert suite["checks"][0]["detail"] == {"N1": 66, "N2": 1176, "count": 3096,
                                            "frobenius_fixed": 66, "conjugate_pairs": 555}


def test_hilbert_square_check_fails_on_a_wrong_point_set(monkeypatch):
    # a point set that is not closed under Frobenius, or whose fixed points
    # are not the rational points, fails the check whatever N2 it implies
    from cfz import cli, counting
    real = counting.points_on_variety
    for perturb in (lambda pts: pts[:-1], lambda pts: pts + pts[:1]):
        monkeypatch.setattr(counting, "points_on_variety",
                            lambda spec, q, perturb=perturb: perturb(real(spec, q)))
        name, passed, _ = cli._hilbert_square_orbit_check(7)
        assert name == "hilbert-square-7" and not passed


def test_forms_suite_reports_a_wrong_ring_route(monkeypatch, capsys):
    # a non-primary associate of the Eisenstein prime gives the ring route a
    # wrong a_p; the suite reports the failed comparison instead of stopping
    from cfz import cli, cmforms
    from cfz.fields import is_prime
    real = cmforms.eisenstein_factor
    omega = cmforms.EisensteinInt(0, 1)
    monkeypatch.setattr(cmforms, "eisenstein_factor", lambda p: -real(p) * omega)
    code = cli.main(["verify", "--suite", "forms", "--primes", "5..13"])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    checks = {c["name"]: c["passed"] for s in report["suites"] for c in s["checks"]}
    assert checks["dual-oracle-split-primes-200"] is False
    assert all(passed for name, passed in checks.items()
               if name != "dual-oracle-split-primes-200")
    # the detail names every split prime below 200 where the routes
    # disagree, with both values
    (detail,) = [c["detail"] for s in report["suites"] for c in s["checks"]
                 if c["name"] == "dual-oracle-split-primes-200"]
    split = [p for p in range(5, 201) if is_prime(p) and p % 3 == 1]
    want = [{"p": p, "ap_via_eisenstein": cmforms.ap_via_eisenstein(p),
             "ap_base": cmforms.ap_base(p)} for p in split]
    want = [d for d in want if d["ap_via_eisenstein"] != d["ap_base"]]
    assert want and detail == {"disagree": want}


def test_forms_suite_reports_a_count_mismatch(monkeypatch, capsys):
    # the Fermat and pair-sum counts disagreeing is the mathematics
    # disagreeing: a failed check with both counts, and exit 1
    from cfz import cli, counting
    real = counting.count_fermat_cubic
    monkeypatch.setattr(counting, "count_fermat_cubic",
                        lambda p: real(p)._replace(count=real(p).count + 1))
    code = cli.main(["verify", "--suite", "forms", "--primes", "7"])
    assert code == 1
    checks = {c["name"]: c for s in json.loads(capsys.readouterr().out)["suites"]
              for c in s["checks"]}
    assert checks["fermat-comparison-p7"]["passed"] is False
    assert checks["fermat-comparison-p7"]["detail"] == {
        "error": "p = 7: Fermat count 3691 != pair-sum count 3690"}


def test_forms_suite_lets_a_program_fault_through(monkeypatch):
    # a fault in a counter is not a failed check
    from cfz import cli, counting

    def broken(p):
        raise RuntimeError("counter fault")

    monkeypatch.setattr(counting, "count_fermat_cubic", broken)
    with pytest.raises(RuntimeError, match="counter fault"):
        cli.main(["verify", "--suite", "forms", "--primes", "7"])
