"""The benchmark workloads and the checks of every command's output.

Each workload is a fixed list of cfz commands, run one after another in a
fresh child process each (a closed loop with one client).  The seed only
shapes the inputs: the disguised varieties, the cache filler and, on
surface-ladder, which split primes zeta runs at.  Every output is compared
with the exact counts in reference.json (see make_reference.py).
"""

import json
import os
import shutil
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, List, Optional

from inputs import DISGUISES, write_cache_filler, write_variety

NOOP = ["lattice", "--d", "14"]
NOOP_OUTPUT = {"admissible": True, "discriminant": 14, "k3_degree_n": 2}


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def primes_in(lo, hi):
    return [p for p in range(max(lo, 5), hi + 1) if is_prime(p)]


@dataclass
class Command:
    argv: List[str]
    check: Callable[[str], Optional[str]]   # stdout -> error message or None


@dataclass
class Plan:
    commands: List[Command]
    reset: Callable[[], None]     # put the cache in its start state before a pass


# ---------------------------------------------------------------------------
# output checks; each returns None when the output is right

def _json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def check_noop(out):
    return None if _json_lines(out) == [NOOP_OUTPUT] else f"lattice printed {out!r}"


def check_counts(ref, kind, k, primes):
    want = [(p, k, ref[kind][str(k)][str(p)]) for p in primes]

    def check(out):
        got = [(r["p"], r["k"], r["count"]) for r in _json_lines(out)]
        bad = [(g, w) for g, w in zip_longest(got, want) if g != w]
        return f"{kind} k={k}: got {bad[0][0]}, reference {bad[0][1]}" if bad else None
    return check


def check_trace_table(ref, primes):
    def check(out):
        rows = _json_lines(out)
        if [r["p"] for r in rows] != primes:
            return f"trace-table primes {[r['p'] for r in rows]}"
        for r in rows:
            p = r["p"]
            n1 = ref["S"]["1"][str(p)]
            want = {"p": p, "N1": n1, "residue": (n1 - 1) % p,
                    "ap_predicted": ref["a_p"][str(p)], "match": True}
            if r != want:
                return f"trace-table row {r}, reference {want}"
        return None
    return check


def check_identify(ref, primes):
    residues = [[p, (ref["S"]["1"][str(p)] - 1) % p] for p in primes]

    def check(out):
        rows = _json_lines(out)
        if len(rows) != 1:
            return f"identify printed {len(rows)} lines"
        r = rows[0]
        if r["residues"] != residues or r["status"] != "unique" or r["match"] != 0:
            return f"identify: status {r['status']}, match {r['match']}"
        return None
    return check


def check_zeta(ref, p):
    """Only split primes: at p = 2 mod 3 the factor list is known to be wrong."""
    if p % 3 != 1:
        raise ValueError(f"zeta output is only checked at split primes, not {p}")

    def check(out):
        rows = _json_lines(out)
        if len(rows) != 1:
            return f"zeta printed {len(rows)} lines"
        r = rows[0]
        want = {"p": p, "N1": ref["S"]["1"][str(p)], "a_p": ref["a_p"][str(p)],
                "count_direct": ref["X"]["1"][str(p)],
                "count_reconstructed": ref["X"]["1"][str(p)], "match": True}
        got = {key: r.get(key) for key in want}
        return None if got == want else f"zeta {got}, reference {want}"
    return check


def check_verify(out):
    report = json.loads(out)
    if report.get("passed") is not True:
        failed = [c["name"] for s in report["suites"] for c in s["checks"]
                  if not c["passed"]]
        return f"verify failed checks {failed}"
    return None


def _range(lo, hi):
    return f"{lo}..{hi}"


def _count(variety, lo, hi, *extra):
    return ["count", "--variety", variety, "--primes", _range(lo, hi), *extra]


# ---------------------------------------------------------------------------
# workloads

SURFACE_PRIMES = (5, 80)
EXT2_PRIMES = (5, 7)    # GF(25), GF(49): the sizes the generic oracle cross-checks


def surface_ladder(rng, work, ref):
    cache = os.path.join(work, "cache.jsonl")
    c = ["--cache", cache]
    primes = primes_in(*SURFACE_PRIMES)
    zeta_primes = sorted(rng.sample([p for p in primes if p % 3 == 1], 2))
    ext2 = ",".join(map(str, EXT2_PRIMES))
    cmds = [
        Command(["trace-table", "--primes", _range(*SURFACE_PRIMES)] + c,
                check_trace_table(ref, primes)),
        Command(["count", "--variety", "builtin:S", "--ext", "2", "--primes", ext2] + c,
                check_counts(ref, "S", 2, list(EXT2_PRIMES))),
        Command(["identify", "--primes", _range(*SURFACE_PRIMES)] + c,
                check_identify(ref, primes)),
    ] + [Command(["zeta", "--prime", str(p)] + c, check_zeta(ref, p)) for p in zeta_primes]

    def reset():
        if os.path.exists(cache):
            os.remove(cache)
    return Plan(cmds, reset)


ORACLE_DISGUISED_S = (31, 47)
ORACLE_VERIFY = "5..13"


def oracle_verify(rng, work, ref):
    ds = write_variety(os.path.join(work, "s.json"), DISGUISES["S"](rng, "S-disguised"))
    nc = ["--no-cache"]
    ext2 = ",".join(map(str, EXT2_PRIMES))
    cmds = [
        Command(["count", "--variety", "builtin:S", "--ext", "2", "--primes", ext2,
                 "--method", "generic"] + nc,
                check_counts(ref, "S", 2, list(EXT2_PRIMES))),
        Command(_count(ds, *ORACLE_DISGUISED_S, *nc),
                check_counts(ref, "S", 1, primes_in(*ORACLE_DISGUISED_S))),
        Command(["verify", "--suite", "all", "--primes", ORACLE_VERIFY], check_verify),
    ]
    return Plan(cmds, lambda: None)


WARM_S = (5, 80)
WARM_X = (5, 200)
WARM_MISSES = (5, 23)
WARM_ZETA = 7
FILLER_LINES = 10000


def cache_warm(rng, work, ref):
    cache = os.path.join(work, "cache.jsonl")
    filler = os.path.join(work, "filler.jsonl")
    c = ["--cache", cache]
    s_primes, x_primes = primes_in(*WARM_S), primes_in(*WARM_X)
    real = [("S", p, 1) for p in s_primes] + [("X", p, 1) for p in x_primes]
    write_cache_filler(filler, rng, ref, FILLER_LINES, real)
    dx = write_variety(os.path.join(work, "x.json"), DISGUISES["X"](rng, "X-disguised"))
    cmds = [
        Command(["trace-table", "--primes", _range(*WARM_S)] + c,
                check_trace_table(ref, s_primes)),
        Command(["identify", "--primes", _range(*WARM_S)] + c, check_identify(ref, s_primes)),
        Command(_count("builtin:X", *WARM_X, *c), check_counts(ref, "X", 1, x_primes)),
        Command(["zeta", "--prime", str(WARM_ZETA)] + c, check_zeta(ref, WARM_ZETA)),
        Command(_count(dx, *WARM_MISSES, *c),
                check_counts(ref, "X", 1, primes_in(*WARM_MISSES))),
    ]
    return Plan(cmds, lambda: shutil.copyfile(filler, cache))


@dataclass
class Workload:
    build: Callable
    why: str


# Why each workload: the layer it stresses, and the layer it bypasses.
WORKLOADS = {
    "surface-ladder": Workload(surface_ladder,
        "fibered S counter over GF(p) and GF(p^2), split and inert primes, from an "
        "empty cache; bypasses the generic oracle; convolution only in two zeta checks"),
    "oracle-verify": Workload(oracle_verify,
        "numpy generic oracle, field tables, parser, Grassmannian and automorphism "
        "checks; drives peak memory; bypasses the cache"),
    "cache-warm": Workload(cache_warm,
        "lookups and appends on a 10^4-line count cache; bypasses every counter "
        "except a few small convolutions"),
}
