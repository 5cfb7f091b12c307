"""The benchmark tracer wraps cfz functions by module and attribute name,
from outside the package; every name it wraps must still resolve."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("cfz_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    obj = importlib.import_module("cfz." + module_name)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_traced_names_resolve():
    tracer = _load_tracer()
    missing = [(m, a) for m, a, _ in tracer.TIMED + tracer.GENERATORS + tracer.COUNTED
               if not callable(_resolve(m, a))]
    assert not missing
    # the tracer times these by iterating them
    assert all(inspect.isgeneratorfunction(_resolve(m, a)) for m, a, _ in tracer.GENERATORS)


def test_work_counts_read_the_leading_parameters():
    # work_counts reads p and k of the fibered counter, and spec and p of
    # the convolution counter, from their first positional arguments
    def leading(attr, n):
        return list(inspect.signature(_resolve("counting", attr)).parameters)[:n]

    assert leading("count_S_fibered", 2) == ["p", "k"]
    assert leading("count_pairsum_convolution", 2) == ["spec", "p"]


def test_work_counts_read_the_counters_real_arguments(monkeypatch):
    # work_counts reads spec.ambient, mh.poly.terms and pairsum_groups(spec)
    # from the arguments the counters are called with: record real calls
    # of each kind, over GF(p) and GF(p^2), and read them back
    from cfz import counting

    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    for attr, kind in (("count_S_fibered", "fibered"),
                       ("count_pairsum_convolution", "convolution"),
                       ("count_points_generic", "generic")):
        monkeypatch.setattr(counting, attr, tracer.work_recorder(kind, getattr(counting, attr)))
    S, X = counting.builtin_variety("S"), counting.builtin_variety("X")
    for k in (1, 2):
        counting.count_variety(S, 5, k)
        counting.count_variety(X, 5, k)
        counting.count_variety(S, 5, k, method="generic")
    assert sorted(kind for kind, _, _ in tracer.work_args) == (
        ["convolution"] * 2 + ["fibered"] * 2 + ["generic"] * 2)
    work = tracer_module.work_counts(tracer.work_args)
    assert sorted(work) == ["fibers", "generic_evals", "generic_max_cells", "group_evals"]
    assert all(type(v) is int and v > 0 for v in work.values())


@pytest.mark.parametrize("line", [
    "count --variety builtin:S --ext 2 --primes 5,7 --method generic --no-cache",
    "verify --suite all --primes 5..13",
], ids=["count-generic", "verify-all"])
def test_a_traced_oracle_command_writes_its_trace(tmp_path, line):
    # the benchmark's traced oracle-verify run: the tracer opens its output
    # before work_counts reads the counters' arguments, so any exception
    # there leaves an empty trace, which the benchmark cannot load
    out = tmp_path / "trace.json"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, TRACER, str(out), *line.split()],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path, "CFZ_CACHE": os.devnull})
    assert r.returncode == 0, r.stderr
    with open(out, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert any(span[0] == "cli.main" for span in trace["spans"])
    assert trace["work"]["generic_evals"] > 0
