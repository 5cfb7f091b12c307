"""Tests of the benchmark's own code: seeded inputs, span arithmetic, the
error count and the traced child.  Run with `python3 -m pytest bench`."""

import json
import os
import random
import sys
import tempfile

import pytest

import run
import tracer
import workloads
from inputs import DISGUISES

sys.path.insert(0, run.SRC)

from cfz.counting import VarietySpec, builtin_variety, count_points_generic  # noqa: E402

with open(os.path.join(run.BENCH, "reference.json"), encoding="utf-8") as _fh:
    REF = json.load(_fh)


@pytest.mark.parametrize("kind", sorted(DISGUISES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_disguised_variety_reproduces_reference_counts(kind, seed):
    spec = VarietySpec.from_dict(DISGUISES[kind](random.Random(seed), f"{kind}-d"))
    assert spec.sha() != builtin_variety(kind).sha()
    for p in (5, 7):
        assert count_points_generic(spec, p).count == REF[kind]["1"][str(p)]


def test_self_times_on_hand_built_tree():
    # root(10) -> a(4) -> a(1) nested in the same layer; root -> b(3) -> gen(2)
    spans = [["root", 0.0, 10.0, None, 10.0],
             ["a", 1.0, 5.0, 0, 4.0],
             ["a", 2.0, 3.0, 1, 1.0],
             ["b", 6.0, 9.0, 0, 3.0],
             ["gen", 6.5, 8.9, 3, 2.0]]
    assert tracer.self_times(spans) == [3.0, 3.0, 1.0, 1.0, 2.0]
    s = tracer.summarize({"spans": spans})
    assert s["self_s"] == {"root": 3.0, "a": 4.0, "b": 1.0, "gen": 2.0}
    assert s["inclusive_s"] == {"root": 10.0, "a": 4.0, "b": 3.0, "gen": 2.0}
    assert sum(s["self_s"].values()) == spans[0][4]


def test_generator_span_charges_only_its_own_next_calls():
    t = tracer.Tracer()
    gen = t.timed_generator("g", lambda: iter(range(3)))
    consumer = t.timed("c", lambda: sum(gen()))
    assert consumer() == 3
    (c, g) = t.spans
    assert g[3] == 0 and c[3] is None
    assert t.calls == {"c": 1, "g": 1}
    assert 0 <= tracer.self_times(t.spans)[0] <= c[4]


def _pass(plan, traced=False):
    with tempfile.TemporaryDirectory() as work:
        return run.run_pass(plan, work, run.child_env(work), traced)


def test_error_rate_counts_wrong_count_and_nonzero_exit():
    ref = json.loads(json.dumps(REF))
    ref["X"]["1"]["7"] += 1
    plan = workloads.Plan([
        workloads.Command(["count", "--variety", "builtin:X", "--primes", "5..7",
                           "--no-cache"], workloads.check_counts(ref, "X", 1, [5, 7])),
        workloads.Command(["zeta", "--prime", "5", "--no-cache"],
                          workloads.check_zeta(REF, 7)),
        workloads.Command(["count", "--variety", "builtin:X", "--primes", "5",
                           "--no-cache"], workloads.check_counts(REF, "X", 1, [5])),
    ], lambda: None)
    result = _pass(plan)
    assert result.attempted == run.NOOPS_PER_PASS + 3
    assert len(result.failures) == 2
    assert "got (7, 1, 3690), reference (7, 1, 3691)" in result.failures[0]
    assert "exit 2" in result.failures[1]


def test_traced_pass_checks_output_and_counts_work():
    plan = workloads.Plan([workloads.Command(["zeta", "--prime", "7", "--no-cache"],
                                             workloads.check_zeta(REF, 7))], lambda: None)
    result = _pass(plan, traced=True)
    assert result.failures == []
    m = result.layers
    assert m["counting.convolution.group_evals"] == 3 * 7 ** 2
    assert m["counting.fibered.fibers"] == 7 ** 2 + 7 + 1
    assert m["zeta.calls"] > 0 and m["counting.count_variety.calls"] == 1
    assert 0 < m["cli.import_s"] < result.wall
    assert 0 <= m["trace.remainder_s"] < result.wall


def test_benchmark_json_names_what_run_py_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
