"""Benchmark of the cfz command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a cfz checkout; it runs the checkout's src/cfz.
It runs the workload's commands (see workloads.py) as a user would: one
`python -m cfz ...` child at a time from this single process, a closed loop
with one client.  It repeats whole passes over the workload until the next
pass would end after S seconds, and checks every command's output against
reference.json.  The last stdout line is the JSON result; a human-readable
detail record goes to stderr.

--trace 0 reports the end-to-end metrics, all from untraced children:
  wall_s       median over passes of one pass's wall time (all its commands)
  max_cmd_s    median over passes of the pass's slowest command
  setup_s      median wall time of the no-op `cfz lattice --d 14`, run once
               before each pass (interpreter start, `import cfz`, parser)
  peak_rss_mb  largest resident set of any child, from os.wait4's rusage
The error rate, commands failed over commands attempted, is the result's
`failed` / `attempted`; it is not a metric because it is 0 at the seed.

--trace 1 alternates untraced passes with passes whose children run under
tracer.py, and reports the per-layer metrics (medians over traced passes):
  <layer>.s        self seconds of that layer's spans, summed over the pass
  *.calls          calls of the wrapped function
  us_per_fiber, ns_per_eval   inclusive seconds of the counter per unit of
                   work; the work counts are computed from the arguments
  counting.generic.grid_mb    largest product grid, computed as cells x 8 bytes
  cache.*          lookups, hits / lookups, file lines at each lookup summed,
                   appends, and the file's length at the end
  cli.import_s     child wall time before cli.main starts
  cli.self_s       cli.main's self time
  trace.remainder_s  traced wall time minus cli.import_s minus every layer's
                   self time: exit and trace writing
  trace.overhead_s   median traced pass wall minus median untraced pass wall
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from tracer import BOOKKEEPING, summarize
from workloads import NOOP, WORKLOADS, check_noop

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

clock = time.monotonic
NOOPS_PER_PASS = 1
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "max_cmd_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

TIMED_LAYERS = [
    "counting.fibered", "counting.convolution", "counting.generic",
    "counting.smoothness_scan", "counting.points_on_variety", "polynomials.parse_poly",
    "fields.field_of_order", "fields.projective_points", "fields.enumerate_projective",
    "cache.get", "cache.put", "zeta", "cmforms.ap_base", "cmforms.identify_form",
    "cmforms.fermat_comparison", "grassmann.max_linear_subspace_dim",
    "grassmann.grassmannian_points", "fourfold.automorphism_subgroup",
]
CALLS = [
    "counting.count_variety", "counting.builtin_variety", "polynomials.parse_poly",
    "fields.field_of_order", "fields.quadratic_root_count", "cache.get", "cache.put",
    "zeta", "fourfold.preserves_cubic",
]
PER_LAYER = dict(
    [(f"{n}.s", "s") for n in TIMED_LAYERS]
    + [(f"{n}.calls", "count") for n in CALLS]
    + [("counting.fibered.fibers", "count"), ("counting.fibered.us_per_fiber", "us"),
       ("counting.convolution.group_evals", "count"),
       ("counting.convolution.ns_per_eval", "ns"),
       ("counting.generic.evals", "count"), ("counting.generic.ns_per_eval", "ns"),
       ("counting.generic.grid_mb", "MiB-computed"),
       ("cache.hit_ratio", "ratio"), ("cache.lines_scanned", "count"),
       ("cache.us_per_line", "us"), ("cache.file_lines", "count"),
       ("cli.import_s", "s"), ("cli.self_s", "s"),
       ("trace.overhead_s", "s"), ("trace.remainder_s", "s")])


@dataclass
class Child:
    start: float
    wall: float
    rss_mb: float
    rc: int
    stdout: str
    stderr: str


@dataclass
class Pass:
    traced: bool
    setup: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def wall(self):
        return sum(self.walls)


def child_env(work):
    env = {k: v for k, v in os.environ.items() if k not in ("CFZ_BUDGET", "CFZ_CACHE")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["CFZ_CACHE"] = os.path.join(work, "default-cache.jsonl")
    return env


def run_child(argv, work, env):
    """Run one child to completion; its peak RSS comes from its own rusage."""
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(start, wall, usage.ru_maxrss / 1024.0, proc.returncode,
                     out.read().decode(), err.read().decode())


def failure(child, check):
    """Why a command failed, or None: nonzero exit or output unlike the reference."""
    if child.rc != 0:
        return f"exit {child.rc}: {child.stderr.strip()[-300:]}"
    try:
        return check(child.stdout)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable output ({e!r})"


def layer_metrics(children):
    """Per-layer metrics of one traced pass from (Child, trace record) pairs."""
    selfs, incl, calls, work = defaultdict(float), defaultdict(float), Counter(), Counter()
    import_s = wall = 0.0
    hits = lines = file_lines = 0
    for child, rec in children:
        s = summarize(rec)
        for name, v in s["self_s"].items():
            selfs[name] += v
        for name, v in s["inclusive_s"].items():
            incl[name] += v
        calls.update(rec["calls"])
        cells = rec["work"].get("generic_max_cells", 0)
        work.update({k: v for k, v in rec["work"].items() if k != "generic_max_cells"})
        work["generic_max_cells"] = max(work["generic_max_cells"], cells)
        import_s += s["main_start"] - child.start
        wall += child.wall
        hits += rec["cache_hits"]
        lines += rec["cache_lines_scanned"]
        file_lines = max(file_lines, rec["cache_file_lines"])

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    m = {f"{n}.s": selfs[n] for n in TIMED_LAYERS}
    m.update({f"{n}.calls": calls[n] for n in CALLS})
    m.update({
        "counting.fibered.fibers": work["fibers"],
        "counting.fibered.us_per_fiber": per(incl["counting.fibered"], work["fibers"], 1e6),
        "counting.convolution.group_evals": work["group_evals"],
        "counting.convolution.ns_per_eval":
            per(incl["counting.convolution"], work["group_evals"], 1e9),
        "counting.generic.evals": work["generic_evals"],
        "counting.generic.ns_per_eval":
            per(incl["counting.generic"], work["generic_evals"], 1e9),
        "counting.generic.grid_mb": work["generic_max_cells"] * 8 / 2 ** 20,
        "cache.hit_ratio": per(hits, calls["cache.get"], 1),
        "cache.lines_scanned": lines,
        "cache.us_per_line": per(selfs["cache.get"], lines, 1e6),
        "cache.file_lines": file_lines,
        "cli.import_s": import_s,
        "cli.self_s": selfs["cli.main"],
    })
    layer_sum = sum(v for n, v in selfs.items() if n != BOOKKEEPING)
    m["trace.remainder_s"] = wall - import_s - layer_sum
    return m


def run_pass(plan, work, env, traced):
    result = Pass(traced)
    untraced_cmd = [sys.executable, "-m", "cfz"]
    for _ in range(NOOPS_PER_PASS):
        child = run_child(untraced_cmd + NOOP, work, env)
        result.setup.append(child.wall)
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        result.attempted += 1
        why = failure(child, check_noop)
        if why:
            result.failures.append(f"{' '.join(NOOP)}: {why}")
    plan.reset()
    traced_children = []
    trace_out = os.path.join(work, "trace.json")
    for cmd in plan.commands:
        prefix = ([sys.executable, os.path.join(BENCH, "tracer.py"), trace_out]
                  if traced else untraced_cmd)
        child = run_child(prefix + cmd.argv, work, env)
        result.walls.append(child.wall)
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        result.attempted += 1
        why = failure(child, cmd.check)
        if traced and os.path.exists(trace_out):
            with open(trace_out, encoding="utf-8") as fh:
                traced_children.append((child, json.load(fh)))
            os.remove(trace_out)
        elif traced:
            why = why or "no trace written"
        if why:
            result.failures.append(f"{' '.join(cmd.argv)}: {why}")
    if traced:
        result.layers = layer_metrics(traced_children)
    return result


def measure(plan, work, env, seconds, trace):
    """Whole passes until the next one would end after `seconds`; with
    tracing, untraced and traced passes alternate."""
    passes = []
    start = clock()
    while True:
        passes.append(run_pass(plan, work, env, traced=trace and len(passes) % 2 == 1))
        elapsed = clock() - start
        kinds = {p.traced for p in passes}
        if kinds == ({False, True} if trace else {False}) and \
                elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, elapsed


def end_to_end(passes):
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "max_cmd_s": statistics.median(max(p.walls) for p in passes),
        "setup_s": statistics.median(s for p in passes for s in p.setup),
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }


def per_layer(passes):
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    m = {name: statistics.median(p.layers[name] for p in traced)
         for name in PER_LAYER if name != "trace.overhead_s"}
    m["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                             - statistics.median(p.wall for p in plain))
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cfz", "cli.py")):
        print(f"error: no cfz source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)

    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        env = child_env(work)
        t0 = clock()
        plan = WORKLOADS[args.workload].build(random.Random(args.seed), work, ref)
        inputs_s = clock() - t0
        # first use compiles the package's bytecode; users do not pay that again
        run_child([sys.executable, "-m", "cfz"] + NOOP, work, env)
        passes, elapsed = measure(plan, work, env, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    if args.trace:
        metrics, units = per_layer(passes), PER_LAYER
    else:
        metrics, units = end_to_end(passes), END_TO_END
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "measured_s": elapsed, "inputs_s": inputs_s,
        "pass_walls_s": [p.wall for p in passes],
        "command_walls_s": [p.walls for p in passes],
        "setup_samples": sum(len(p.setup) for p in passes),
        "error_rate": len(failures) / attempted, "failures": failures[:5],
    }
    print(json.dumps(detail), file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
