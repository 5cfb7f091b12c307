"""Command-line front end: counts, trace tables, form identification,
local factor assembly, and the verification suites.

Output is deterministic: records are sorted by prime, JSON keys are
sorted, and the cache never changes bytes.  Exit codes: 0 success,
1 verification failure (including any ArithmeticError: counts the
mathematics rules out), 2 usage or parse error.
"""

import argparse
import json
import math
import sys
from itertools import product

from . import _lazy

# bound once here; each module's code runs when a command first reads it
cmforms = _lazy("cmforms")
count_cache = _lazy("cache")
counting = _lazy("counting")
fields = _lazy("fields")
fourfold = _lazy("fourfold")
grassmann = _lazy("grassmann")
lattice = _lazy("lattice")
zeta = _lazy("zeta")


class UsageError(Exception):
    pass


def _check_prime(p):
    """p if the commands serve it, as every prime p >= 5: 3 is the bad prime
    of S and X, and no command has the Euler factor at 2 (ROADMAP item 12)."""
    fields.check_prime(p)
    if p < 5:
        raise UsageError(f"bad prime {p}: characteristic 2 and 3 are excluded")
    return p


def _parse_primes(text: str, k: int = 1):
    """The primes p >= 5 of a comma list of primes and a..b ranges.

    A prime p with GF(p^k) over the field-order cap is refused before any
    range is enumerated; the refusal names the least such p^k, where
    counting the primes in ascending order would have stopped.  Below the
    cap, the ranges are read off a sieve up to the largest n with n^k
    under the cap, or up to the largest range end if that is smaller."""
    spans = []
    for token in text.split(","):
        lo, dots, hi = token.strip().partition("..")
        if dots:
            spans.append((int(lo), int(hi)))
        elif lo:
            _check_prime(int(lo))
            spans.append((int(lo), int(lo)))
    # the largest n with n^k under the cap: the float root can be one off
    root = int(fields.MAX_FIELD_ORDER ** (1 / k)) + 1
    while root ** k > fields.MAX_FIELD_ORDER:
        root -= 1
    # the first prime of each span with p^k over the cap
    over = [next((n for n in range(max(lo, root + 1, 5), hi + 1) if fields.is_prime(n)),
                 None) for lo, hi in spans]
    fields.check_field_order(min(filter(None, over), default=1) ** k)
    top = max(4, min(max((hi for _, hi in spans), default=0), root))
    sieve = bytearray([1]) * (top + 1)
    for n in range(2, math.isqrt(top) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, top + 1, n)))
    # only n >= 5 is read off the sieve (_check_prime)
    primes = {n for lo, hi in spans for n in range(max(lo, 5), min(hi, top) + 1) if sieve[n]}
    if not primes:
        raise UsageError("no usable primes given")
    return sorted(primes)


def _load_variety(selector: str):
    # no return annotation: evaluating counting.VarietySpec would load the
    # counting stack when cli is imported
    if selector.startswith("builtin:"):
        name = selector.split(":", 1)[1]
        try:
            return counting.builtin_variety(name)
        except KeyError as e:
            raise UsageError(str(e)) from None
    return counting.VarietySpec.from_file(selector)


def _emit_json(obj):
    print(json.dumps(obj, sort_keys=True))


def cmd_count(args):
    if args.ext < 1:
        raise UsageError(f"--ext must be at least 1, got {args.ext}")
    spec = _load_variety(args.variety)
    cache = None if args.no_cache else count_cache.CountCache(args.cache)
    rows = [counting.count_variety(spec, p, k=args.ext, method=args.method,
                                   budget=args.budget, cache=cache)
            for p in _parse_primes(args.primes, args.ext)]
    if args.format == "json":
        for rec in rows:
            _emit_json({"p": rec.p, "k": rec.k, "count": rec.count})
    else:
        print("name\tp\tk\tcount")
        for rec in rows:
            print(f"{rec.name}\t{rec.p}\t{rec.k}\t{rec.count}")
    return 0


def cmd_trace_table(args):
    cache = None if args.no_cache else count_cache.CountCache(args.cache)
    spec = counting.builtin_variety("S")
    rows = []
    all_match = True
    for p in _parse_primes(args.primes):
        n1 = counting.count_variety(spec, p, cache=cache).count
        tr = zeta.trace_from_count(n1, p)
        ap = cmforms.ap_base(p)
        match = ap % p == tr.residue
        all_match &= match
        rows.append((p, n1, tr.residue, ap, match))
    if args.format == "json":
        for p, n1, res, ap, match in rows:
            _emit_json({"p": p, "N1": n1, "residue": res,
                        "ap_predicted": ap, "match": match})
    else:
        print("p\tN1\tresidue\tap_predicted\tmatch")
        for p, n1, res, ap, match in rows:
            print(f"{p}\t{n1}\t{res}\t{ap}\t{str(match).lower()}")
    return 0 if all_match else 1


def _load_residues(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    # integers only: bool is an int subclass, and int() would truncate 2.5
    if isinstance(data, list) and all(isinstance(x, list) and len(x) == 2
                                      and all(type(v) is int for v in x) for x in data):
        return [(_check_prime(p), r) for p, r in data]
    raise UsageError(f"{path}: expected a JSON list [[p, r], ...]")


def cmd_identify(args):
    if args.residues:
        residues = _load_residues(args.residues)
    else:
        cache = None if args.no_cache else count_cache.CountCache(args.cache)
        spec = counting.builtin_variety("S")
        residues = [(p, (counting.count_variety(spec, p, cache=cache).count - 1) % p)
                    for p in _parse_primes(args.primes)]
    result = cmforms.identify_form(residues)
    report = result.to_json()
    report["status"] = result.status
    report["residues"] = [[p, r] for p, r in sorted(residues)]
    _emit_json(report)
    return 0 if result.status == "unique" else 1


def cmd_zeta(args):
    p = _check_prime(args.prime)
    if args.ns_fixed is None and p % 3 != 1:
        raise UsageError(
            f"p = {p} is 2 mod 3: the algebraic eigenvalue pattern is not "
            "determined by counts; pass --ns-fixed explicitly")
    cache = None if args.no_cache else count_cache.CountCache(args.cache)
    spec = counting.builtin_variety("S")
    n1 = counting.count_variety(spec, p, cache=cache).count
    tr = zeta.trace_from_count(n1, p)
    ap = cmforms.ap_base(p)
    if args.ns_fixed is not None:
        ns_fixed = args.ns_fixed
    else:
        ns_fixed = zeta.algebraic_trace_split(tr.t2, ap, p) // p
    factors = zeta.assemble_fourfold_factors(p, ap, ns_fixed)
    reconstructed = zeta.reconstruct_count(factors)
    direct = counting.count_pairsum_convolution(counting.builtin_variety("X"), p).count
    _emit_json({
        "p": p, "N1": n1, "a_p": ap, "ns_fixed": ns_fixed,
        "factors": [f.to_json() for f in factors],
        "count_reconstructed": reconstructed,
        "count_direct": direct,
        "match": reconstructed == direct,
    })
    return 0 if reconstructed == direct else 1


def cmd_lattice(args):
    out = {}
    if args.h2t is not None or args.tt is not None:
        if args.h2t is None or args.tt is None:
            raise UsageError("--h2t and --tt must be given together")
        if args.d is not None:
            raise UsageError("give either --h2t/--tt or --d, not both")
        g = lattice.GramMatrix2(args.h2t, args.tt)
        d = lattice.discriminant(g)
        out.update({"h2h2": g.h2h2, "h2t": g.h2T, "tt": g.TT, "discriminant": d})
    elif args.d is not None:
        d = args.d
        out["discriminant"] = d
    else:
        raise UsageError("give either --h2t/--tt or --d")
    out["admissible"] = lattice.special_admissible(out["discriminant"])
    out["k3_degree_n"] = lattice.associated_k3_degree(out["discriminant"])
    _emit_json(out)
    return 0


def cmd_pluecker(args):
    try:
        report = grassmann.max_linear_subspace_dim(args.k, args.n, args.q)
    except grassmann.SearchBudgetError as e:
        raise UsageError(str(e)) from None
    _emit_json(report.to_json())
    return 0


# ---------------------------------------------------------------------------
# verification suites

# #S(GF(p)) at split primes: paper data, not computed here
KNOWN_S_COUNTS = {7: 177, 13: 429, 19: 753, 31: 1536, 37: 2157}


def _suite_counts(primes):
    checks = []
    fib = {p: counting.count_S_fibered(p, 1).count for p in primes}
    for p in primes:
        if p in KNOWN_S_COUNTS:
            checks.append((f"surface-count-table-p{p}", fib[p] == KNOWN_S_COUNTS[p],
                           {"count": fib[p], "expected": KNOWN_S_COUNTS[p]}))
    S = counting.builtin_variety("S")
    for p in [q for q in primes if q <= 13]:
        gen = counting.count_points_generic(S, p).count
        checks.append((f"surface-fibered-vs-generic-p{p}", gen == fib[p],
                       {"generic": gen, "fibered": fib[p]}))
    X = counting.builtin_variety("X")
    for p in primes:
        conv = counting.count_pairsum_convolution(X, p).count
        pred = zeta.fourfold_count_from_surface(fib[p], p)
        checks.append((f"fourfold-identity-p{p}", conv == pred,
                       {"convolution": conv, "from_surface": pred}))
    fermat7 = counting.count_fermat_cubic(7).count
    checks.append(("fermat-count-7", fermat7 == 3690, {"count": fermat7}))
    for p in [q for q in primes if q <= 13]:
        sing = counting.smoothness_scan(S, p)
        checks.append((f"smoothness-partial-p{p}", not sing,
                       {"singular_rational_points": len(sing),
                        "note": "rational points only; partial evidence"}))
    return checks


def _suite_identities(_primes):
    return [_hilbert_square_orbit_check(5), _hilbert_square_orbit_check(7)]


def _hilbert_square_orbit_check(p):
    """Hilb^2 S over GF(p) from the Frobenius orbits of S(GF(p^2)): a
    GF(p)-point is an unordered pair of rational points, a conjugate pair,
    or a rational point with one of its p + 1 tangent directions.  The
    count (N1^2 + N2)/2 + p N1 is the number of these exactly when every
    point is fixed or in one conjugate pair and the fixed points are the
    rational points the fibered counter counts, which is what is checked."""
    n1 = counting.count_S_fibered(p, 1).count
    pts = counting.points_on_variety(counting.builtin_variety("S"), p * p)
    field = fields.field_of_order(p * p)
    frobenius = [field.pow(e, p) for e in range(field.order)]
    index = {pt: i for i, pt in enumerate(pts)}
    fixed = conjugate_pairs = 0
    for i, pt in enumerate(pts):
        j = index.get(tuple(frobenius[e] for e in pt), -1)
        fixed += i == j
        conjugate_pairs += i < j
    # these orbits also make N1^2 + N2 even, as the formula needs
    orbits_ok = fixed + 2 * conjugate_pairs == len(pts) and fixed == n1
    hs = zeta.hilbert_square_count(n1, len(pts), p) if orbits_ok else None
    return (f"hilbert-square-{p}", orbits_ok,
            {"N1": n1, "N2": len(pts), "count": hs, "frobenius_fixed": fixed,
             "conjugate_pairs": conjugate_pairs})


def _suite_forms(primes):
    checks = []
    # each split prime where the ring route and the Cornacchia route disagree
    disagree = [{"p": p, "ap_via_eisenstein": ring, "ap_base": base}
                for p in range(5, 201) if fields.is_prime(p) and p % 3 == 1
                for ring, base in [(cmforms.ap_via_eisenstein(p), cmforms.ap_base(p))]
                if ring != base]
    checks.append(("dual-oracle-split-primes-200", not disagree,
                   {"disagree": disagree} if disagree else {}))
    residues = []
    for p in primes:
        n1 = counting.count_S_fibered(p, 1).count
        if p % 3 == 2:
            checks.append((f"residue-zero-p{p}", zeta.residue_zero_check(p, n1), {"N1": n1}))
        residues.append((p, (n1 - 1) % p))
    result = cmforms.identify_form(residues)
    checks.append(("identify-base-form", result.match == 0 and result.status == "unique",
                   result.to_json()))
    for p in [q for q in primes if q % 3 == 1]:
        try:
            checks.append((f"fermat-comparison-p{p}", cmforms.fermat_comparison(p), {}))
        except cmforms.CountMismatchError as e:  # surfaces both counts
            checks.append((f"fermat-comparison-p{p}", False, {"error": str(e)}))
    return checks


def _suite_pluecker(_primes):
    checks = []
    r = grassmann.max_linear_subspace_dim(1, 4, 2)
    checks.append(("grassmann-max-subspace-1-4-2",
                   r.max_dim == 3 and dict(r.families) == {"pencil-through-fixed-plane": 31},
                   r.to_json()))
    r = grassmann.max_linear_subspace_dim(1, 3, 2)
    two = dict(r.families)
    checks.append(("grassmann-two-plane-families-1-3-2",
                   r.max_dim == 2 and set(two) == {"pencil-through-fixed-plane",
                                                   "inside-fixed-plane"},
                   r.to_json()))
    n13 = len(grassmann.pluecker_relations(1, 3))
    n14 = len(grassmann.pluecker_relations(1, 4))
    checks.append(("pluecker-relation-counts", (n13, n14) == (1, 5),
                   {"gr_1_3": n13, "gr_1_4": n14}))
    ok = True
    rels = grassmann.pluecker_relations(1, 3)
    for q in (2, 3):
        pts = set(grassmann.grassmannian_points(1, 3, q))
        for coords in product(range(q), repeat=6):
            if not any(coords):
                continue
            sat = all(grassmann.evaluate_relation(rel, coords, q) == 0 for rel in rels)
            member = grassmann.canonical_coords(coords, q) in pts
            ok &= sat == member
    checks.append(("pluecker-two-sided-1-3", ok, {"fields": [2, 3]}))
    return checks


def _suite_automorphisms(_primes):
    checks = []
    residual = fourfold.pfaffian_map_substitution()
    checks.append(("pfaffian-map-identity", residual.is_zero,
                   {"residual_terms": len(residual.terms)}))
    swap, shear = fourfold.pair_swap_generator, fourfold.pair_shear_generator
    one = len(fourfold.automorphism_subgroup([swap(0), shear(0)]))
    checks.append(("automorphisms-one-pair", one == 6, {"order": one}))
    gens = [f(i) for i in range(3) for f in (swap, shear)]
    three = len(fourfold.automorphism_subgroup(gens))
    checks.append(("automorphisms-three-pairs", three == 216, {"order": three}))
    ident = len(fourfold.automorphism_subgroup([fourfold.identity_map()]))
    checks.append(("automorphisms-identity", ident == 1, {"order": ident}))
    return checks


SUITES = {
    "counts": _suite_counts,
    "identities": _suite_identities,
    "forms": _suite_forms,
    "pluecker": _suite_pluecker,
    "automorphisms": _suite_automorphisms,
}


def cmd_verify(args):
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    if any(n not in SUITES for n in names):
        raise UsageError(f"unknown suite {args.suite!r}; have {sorted(SUITES) + ['all']}")
    primes = _parse_primes(args.primes)
    report = {"suites": [], "passed": True}
    for name in names:
        checks = SUITES[name](primes)
        entry = {
            "suite": name,
            "checks": [{"name": n, "passed": bool(okk), "detail": detail}
                       for n, okk, detail in checks],
            "passed": all(okk for _, okk, _ in checks),
        }
        report["suites"].append(entry)
        report["passed"] &= entry["passed"]
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if report["passed"] else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cfz",
        description="point counts, Frobenius traces and local zeta factors "
                    "for a special cubic fourfold and its K3 surface")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--cache", default=None, help="cache path (default CFZ_CACHE)")
        sp.add_argument("--no-cache", action="store_true", help="disable the count cache")

    def add_format(sp):
        sp.add_argument("--format", choices=("tsv", "json"), default="json")

    sp = sub.add_parser("count", help="count points of a variety")
    sp.add_argument("--variety", required=True, help="builtin:NAME or a JSON file path")
    sp.add_argument("--primes", required=True, help="comma list and/or a..b ranges")
    sp.add_argument("--ext", type=int, default=1,
                    help="extension degree k >= 1 (count over GF(p^k))")
    sp.add_argument("--method", default="auto", choices=("auto", "generic"))
    sp.add_argument("--budget", type=int, default=None,
                    help="generic oracle's evaluation budget (default 1e9)")
    add_common(sp)
    add_format(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("trace-table", help="surface counts, residues and form coefficients")
    sp.add_argument("--primes", required=True)
    add_common(sp)
    add_format(sp)
    sp.set_defaults(func=cmd_trace_table)

    sp = sub.add_parser("identify", help="identify the form from count residues")
    given = sp.add_mutually_exclusive_group()
    given.add_argument("--primes", default="7..40")
    given.add_argument("--residues", default=None, metavar="FILE",
                       help="JSON file with a list of [p, r] pairs; skips counting")
    add_common(sp)
    sp.set_defaults(func=cmd_identify)

    sp = sub.add_parser("zeta", help="local factor list at one prime")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--ns-fixed", type=int, default=None,
                    help="signed number of Frobenius-fixed algebraic classes")
    add_common(sp)
    sp.set_defaults(func=cmd_zeta)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", default="all",
                    choices=tuple(sorted(SUITES)) + ("all",))
    sp.add_argument("--primes", default="7,13")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("lattice", help="discriminant and admissibility arithmetic")
    sp.add_argument("--h2t", type=int, default=None)
    sp.add_argument("--tt", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.set_defaults(func=cmd_lattice)

    sp = sub.add_parser("pluecker", help="exhaustive maximal-subspace search in Gr(k,n)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(func=cmd_pluecker)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ArithmeticError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # a clause of its own, so that a usage error does not load counting
    except counting.CountBudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry point (``python -m cfz`` and the ``cfz`` script):
    ``main``, then ``gc.freeze()``, so that the garbage collection the
    interpreter runs at exit has nothing to traverse.  cfz has no
    finalizers that collection could run, and the cache is written
    through ``os.write`` before ``main`` returns.  ``main`` itself does not
    freeze, so a process may call it many times."""
    import gc

    rc = main()
    gc.freeze()
    return rc


if __name__ == "__main__":
    sys.exit(run())
