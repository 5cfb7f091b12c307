"""Span tracer for traced benchmark runs.

The tracer wraps public functions of the cfz modules from outside the
package, so nothing under src/ changes.  Every wrapped call becomes a span
(name, start, end, parent, busy seconds) kept in memory and written as JSON
when the command ends.  A generator (projective enumeration) gets one span
per instance whose busy time is the sum of its next() calls, so a consumer
that interleaves with it is not charged for it.  A few functions that run
once per fiber or per group element are counted, not timed.

Run one cfz command traced (PYTHONPATH must reach the cfz package):

    python3 bench/tracer.py TRACE_OUT.json <cfz arguments>

Span names are "layer.function" and are the per-layer metric names the
benchmark reports, so an in-program trace can later reuse them.
"""

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

clock = time.monotonic  # CLOCK_MONOTONIC on Linux: comparable across processes

# (module, attribute, span name); "Class.method" attributes wrap the method
TIMED = [
    ("cli", "main", "cli.main"),
    ("counting", "count_S_fibered", "counting.fibered"),
    ("counting", "count_pairsum_convolution", "counting.convolution"),
    ("counting", "count_points_generic", "counting.generic"),
    ("counting", "smoothness_scan", "counting.smoothness_scan"),
    ("counting", "points_on_variety", "counting.points_on_variety"),
    ("polynomials", "parse_poly", "polynomials.parse_poly"),
    ("fields", "field_of_order", "fields.field_of_order"),
    ("cache", "CountCache.get", "cache.get"),
    ("cache", "CountCache.put", "cache.put"),
    ("cmforms", "ap_base", "cmforms.ap_base"),
    ("cmforms", "identify_form", "cmforms.identify_form"),
    ("cmforms", "fermat_comparison", "cmforms.fermat_comparison"),
    ("grassmann", "max_linear_subspace_dim", "grassmann.max_linear_subspace_dim"),
    ("grassmann", "grassmannian_points", "grassmann.grassmannian_points"),
    ("fourfold", "automorphism_subgroup", "fourfold.automorphism_subgroup"),
] + [("zeta", fn, "zeta") for fn in (
    "trace_from_count", "residue_zero_check", "hilbert_square_count",
    "fourfold_count_from_surface", "algebraic_trace_split", "local_factor_cm",
    "fourfold_h4_decomposition", "hilbert_square_h2_decomposition",
    "assemble_fourfold_factors", "reconstruct_count")]
GENERATORS = [
    ("fields", "projective_points", "fields.projective_points"),
    ("fields", "enumerate_projective", "fields.enumerate_projective"),
]
COUNTED = [
    ("counting", "count_variety", "counting.count_variety"),
    ("counting", "builtin_variety", "counting.builtin_variety"),
    ("fields", "quadratic_root_count", "fields.quadratic_root_count"),
    ("fourfold", "preserves_cubic", "fourfold.preserves_cubic"),
]
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Spans and counters of one process.  A span is a list
    [name, start, end, parent index or None, busy seconds]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.cache_hits = 0
        self.cache_lines = {}      # cache path -> lines in the file now
        self.lines_scanned = 0
        self.work_args = []        # (kind, args) turned into work counts at the end

    def open(self, name, span=None):
        now = clock()
        if span is None:
            parent = self.stack[-1] if self.stack else None
            self.spans.append([name, now, now, parent, 0.0])
            span = len(self.spans) - 1
        self.stack.append(span)
        return span, now

    def close(self, handle):
        span, start = handle
        now = clock()
        rec = self.spans[span]
        rec[2] = now
        rec[4] += now - start
        self.stack.pop()

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            handle = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(handle)
        return wrapper

    def timed_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            inner = fn(*args, **kwargs)
            span = None
            while True:
                handle = self.open(name, span)
                span = handle[0]
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(handle)
                yield item
        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def cache_get(self, fn):
        timed = self.timed("cache.get", fn)

        @functools.wraps(fn)
        def wrapper(cache, sha, p, k):
            if cache.path not in self.cache_lines:
                handle = self.open(BOOKKEEPING)
                self.cache_lines[cache.path] = _count_lines(cache.path)
                self.close(handle)
            self.lines_scanned += self.cache_lines[cache.path]
            rec = timed(cache, sha, p, k)
            self.cache_hits += rec is not None
            return rec
        return wrapper

    def cache_put(self, fn):
        timed = self.timed("cache.put", fn)

        @functools.wraps(fn)
        def wrapper(cache, sha, record):
            out = timed(cache, sha, record)
            if cache.path in self.cache_lines:
                self.cache_lines[cache.path] += 1
            return out
        return wrapper

    def work_recorder(self, kind, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.work_args.append((kind, args, kwargs))
            return fn(*args, **kwargs)
        return wrapper


def _count_lines(path):
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def install(tracer):
    """Wrap the functions named above in every cfz module that binds them."""
    import cfz
    import cfz.cli  # noqa: F401  (not imported by the package itself)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "cfz" or n.startswith("cfz."))]

    def rebind(module_name, attr, make):
        owner = sys.modules["cfz." + module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, make(getattr(cls, meth)))
            return
        orig = getattr(owner, attr)
        new = make(orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)

    work_kind = {"counting.fibered": "fibered", "counting.convolution": "convolution",
                 "counting.generic": "generic"}
    for module_name, attr, name in TIMED:
        if name == "cache.get":
            rebind(module_name, attr, tracer.cache_get)
        elif name == "cache.put":
            rebind(module_name, attr, tracer.cache_put)
        elif name in work_kind:
            rebind(module_name, attr, lambda fn, n=name: tracer.work_recorder(
                work_kind[n], tracer.timed(n, fn)))
        else:
            rebind(module_name, attr, lambda fn, n=name: tracer.timed(n, fn))
    for module_name, attr, name in GENERATORS:
        rebind(module_name, attr, lambda fn, n=name: tracer.timed_generator(n, fn))
    for module_name, attr, name in COUNTED:
        rebind(module_name, attr, lambda fn, n=name: tracer.counted(n, fn))


def work_counts(work_args):
    """Work done by the counters, computed from their arguments:
    fibers = sum of |P^2(F_q)|, generic evaluations = the budget's
    primitive-evaluation count, histogram evaluations = sum over groups of
    p^|group|, and the largest generic grid in cells."""
    from cfz.counting import pairsum_groups
    from cfz.fields import projective_cardinality

    out = Counter()
    for kind, args, kwargs in work_args:
        if kind == "fibered":
            p = args[0]
            k = args[1] if len(args) > 1 else kwargs.get("k", 1)
            out["fibers"] += projective_cardinality(p ** k, 2)
        elif kind == "generic":
            spec, q = args[0], args[1]
            cells = 1
            for n in spec.ambient:
                cells *= projective_cardinality(q, n)
            nterms = sum(len(mh.poly.terms) for mh in spec.polys)
            out["generic_evals"] += cells * max(1, nterms)
            out["generic_max_cells"] = max(out["generic_max_cells"], cells)
        elif kind == "convolution":
            spec, p = args[0], args[1]
            _, groups = pairsum_groups(spec)
            out["group_evals"] += sum(p ** len(var_idx) for var_idx, _ in groups)
    return dict(out)


def self_times(spans):
    """Self seconds of each span: its busy time minus its children's."""
    child = [0.0] * len(spans)
    for _, _, _, parent, busy in spans:
        if parent is not None:
            child[parent] += busy
    return [s[4] - c for s, c in zip(spans, child)]


def record(tracer):
    """What a traced command writes when it ends."""
    return {
        "spans": tracer.spans,
        "calls": dict(tracer.calls),
        "cache_hits": tracer.cache_hits,
        "cache_lines_scanned": tracer.lines_scanned,
        "cache_file_lines": max(tracer.cache_lines.values(), default=0),
        "work": work_counts(tracer.work_args),
    }


def summarize(rec):
    """Self and inclusive seconds per span name, and when cli.main started,
    from a written record.  Inclusive time counts only the outermost span of
    a name, so nested calls of one layer are not counted twice."""
    spans = rec["spans"]
    selfs = defaultdict(float)
    inclusive = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        selfs[span[0]] += own
        parent = span[3]
        while parent is not None and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        if parent is None:
            inclusive[span[0]] += span[4]
    main = [s for s in spans if s[0] == "cli.main"]
    return {
        "main_start": main[0][1] if main else None,
        "self_s": dict(selfs),
        "inclusive_s": dict(inclusive),
    }


def main(argv):
    out_path, cfz_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import cfz.cli
    rc = 1
    try:
        rc = cfz.cli.main(cfz_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record(tracer), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
