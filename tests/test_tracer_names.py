"""The benchmark tracer wraps cfz functions by module and attribute name,
from outside the package; every name it wraps must still resolve."""

import importlib
import importlib.util
import inspect
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


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
