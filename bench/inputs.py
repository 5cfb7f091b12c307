"""Seeded inputs: disguised copies of the built-in varieties, and the
count-cache filler of the cache-warm workload.

A disguised copy is isomorphic to its built-in over every GF(p), p >= 5, so
its counts are the built-in's reference counts and seeded inputs stay
checkable.  Its variables are renamed, so it never shares the built-in's
cache key, and it reaches the program only as a variety file.

The filler is written through the cache's own API, so the file is always in
the cache's current format.
"""

import json
import os

# variable names the disguises draw from; none is a built-in's name
NAMES = [c + str(i) for c in "abcdefghjkmnpqrst" for i in range(10)]

# integer cubes that are units mod every prime p >= 5
UNIT_CUBES = [s * a ** 3 for a in (1, 2, 3, 4, 6) for s in (1, -1)]


def _poly(terms, rng):
    terms = list(terms)
    rng.shuffle(terms)
    text = terms[0]
    for t in terms[1:]:
        text += t if t.startswith("-") else "+" + t
    return text


def disguised_S(rng, name):
    """S with renamed variables, one permutation applied to both blocks
    (keeping the pairing of x with u, y with v, z with w), and the blocks
    swapped.  Swapping exchanges the two equations, so the system is the
    same up to relabelling."""
    names = rng.sample(NAMES, 6)
    a, b = names[:3], names[3:]
    perm = rng.sample(range(3), 3)
    first = [b[i] for i in perm]
    second = [a[i] for i in perm]
    polys = [_poly([f"{a[i]}*{b[i]}^2" for i in range(3)], rng),
             _poly([f"{a[i]}^2*{b[i]}" for i in range(3)], rng)]
    rng.shuffle(polys)
    return {"name": name, "ambient": [2, 2], "vars": [first, second], "polys": polys}


def disguised_X(rng, name):
    """X = sum over three pairs (s, t) of s*t^2 - s^2*t, with renamed
    variables, the pairs permuted and the variables inside some pairs
    swapped.  Swapping negates that pair's form, which the substitution
    (s, t) -> (-s, -t) undoes."""
    names = rng.sample(NAMES, 6)
    pairs = [names[0:2], names[2:4], names[4:6]]
    rng.shuffle(pairs)
    terms = []
    for s, t in pairs:
        if rng.random() < 0.5:
            s, t = t, s
        terms += [f"{s}*{t}^2", f"-{s}^2*{t}"]
    return {"name": name, "ambient": [5], "vars": [[v for pr in pairs for v in pr]],
            "polys": [_poly(terms, rng)]}


def disguised_fermat(rng, name):
    """The Fermat cubic with renamed variables and unit-cube coefficients
    c = a^3, undone by scaling each variable by a."""
    names = rng.sample(NAMES, 6)
    terms = []
    for v in names:
        c = rng.choice(UNIT_CUBES)
        terms.append(f"{v}^3" if c == 1 else f"-{v}^3" if c == -1 else f"{c}*{v}^3")
    return {"name": name, "ambient": [5], "vars": [names], "polys": [_poly(terms, rng)]}


DISGUISES = {"S": disguised_S, "X": disguised_X, "fermat": disguised_fermat}


def write_variety(path, spec_dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_dict, fh, indent=1)
    return path


def write_cache_filler(path, rng, ref, n_lines, real):
    """Write about n_lines cache records to path.

    real: (builtin name, p, k) records the workload's warm commands look
    up; they land at seeded positions.  The rest are records of distinct
    disguised varieties at small primes.  Counts come from the reference
    table and the method from the counter count_variety would pick.
    """
    from cfz.cache import CountCache
    from cfz.counting import CountRecord, VarietySpec, builtin_variety

    method = {"S": "generic", "X": "convolution", "fermat": "convolution"}
    small = [p for p in map(int, ref["X"]["1"]) if p <= 47]
    rows = []
    i = 0
    while len(rows) < n_lines - len(real):
        kind = rng.choice(sorted(DISGUISES))
        spec = VarietySpec.from_dict(DISGUISES[kind](rng, f"filler-{kind}-{i}"))
        sha = spec.sha()
        for p in sorted(rng.sample(small, 5)):
            count = ref[kind]["1"][str(p)]
            rows.append((sha, CountRecord(spec.name, p, 1, count, method[kind])))
        i += 1
    shas = {}
    for name, p, k in real:
        if name not in shas:
            shas[name] = builtin_variety(name).sha()
        rec = CountRecord(name, p, k, ref[name][str(k)][str(p)],
                          "fibered" if name == "S" else "convolution")
        rows.insert(rng.randrange(len(rows) + 1), (shas[name], rec))
    if os.path.exists(path):
        os.remove(path)
    cache = CountCache(path)
    for sha, rec in rows:
        cache.put(sha, rec)
