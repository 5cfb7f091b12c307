"""Rebuild bench/reference.json: exact counts for every built-in
(variety, p, k) the benchmark workloads touch, each confirmed once by a
second method.

    PYTHONPATH=src python3 bench/make_reference.py

Second methods:
  S, k = 1   fibered counter; generic oracle for p <= 47, and for every p
             the fourfold identity #X = 1 + p^2 + p^4 + p*N1 against the
             convolution count of X
  S, k = 2   fibered counter against the generic oracle over GF(p^2)
  X          convolution counter against the same identity
  fermat     convolution counter; equal to X at p = 1 mod 3, and at
             p = 2 mod 3 cubing is a bijection, so the count is that of a
             hyperplane, 1 + p + p^2 + p^3 + p^4
  a_p        Cornacchia route against the Eisenstein route at split primes;
             0 at inert primes; a_p = N1 - 1 mod p at every prime
The a_p congruence is the program's own trace-table check, kept here as a
consistency check of the table, not as a second method.
Takes a few minutes on two cores; the fibered counts near p = 300 dominate.
"""

import json
import os
import sys

from cfz.cmforms import ap_base, ap_via_eisenstein
from cfz.counting import (builtin_variety, count_pairsum_convolution,
                          count_points_generic, count_S_fibered)
from cfz.fields import is_prime

MAX_P = 300
GENERIC_S_MAX_P = 47
EXT2_PRIMES = (5, 7)
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def main() -> int:
    primes = [p for p in range(5, MAX_P + 1) if is_prime(p)]
    S, X, F = (builtin_variety(n) for n in ("S", "X", "fermat"))
    ref = {"S": {"1": {}, "2": {}}, "X": {"1": {}}, "fermat": {"1": {}}, "a_p": {}}
    for p in primes:
        n1 = count_S_fibered(p, 1).count
        x = count_pairsum_convolution(X, p).count
        f = count_pairsum_convolution(F, p).count
        ap = ap_base(p)
        if x != 1 + p ** 2 + p ** 4 + p * n1:
            raise SystemExit(f"p={p}: #X={x} disagrees with #S={n1}")
        if p <= GENERIC_S_MAX_P and count_points_generic(S, p).count != n1:
            raise SystemExit(f"p={p}: fibered and generic #S disagree")
        expected_f = x if p % 3 == 1 else sum(p ** i for i in range(5))
        if f != expected_f:
            raise SystemExit(f"p={p}: fermat count {f}, expected {expected_f}")
        if p % 3 == 1 and ap_via_eisenstein(p) != ap:
            raise SystemExit(f"p={p}: the two a_p routes disagree")
        if p % 3 == 2 and ap != 0:
            raise SystemExit(f"p={p}: a_p = {ap} at an inert prime")
        if (n1 - 1 - ap) % p:
            raise SystemExit(f"p={p}: N1 - 1 = {n1 - 1} is not a_p = {ap} mod p")
        ref["S"]["1"][str(p)] = n1
        ref["X"]["1"][str(p)] = x
        ref["fermat"]["1"][str(p)] = f
        ref["a_p"][str(p)] = ap
        print(p, n1, x, f, ap, file=sys.stderr, flush=True)
    for p in EXT2_PRIMES:
        n2 = count_S_fibered(p, 2).count
        if count_points_generic(S, p * p).count != n2:
            raise SystemExit(f"p={p}: fibered and generic #S(GF(p^2)) disagree")
        ref["S"]["2"][str(p)] = n2
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
