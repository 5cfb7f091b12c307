"""Code that only tests run leaves the library: every top-level function
and class of ``src/cfz`` is read somewhere in the package outside its own
definition, unless the benchmark's tracer wraps it by name."""

import ast
import glob
import importlib.util
import os

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, os.pardir, "src", "cfz")
TRACER = os.path.join(HERE, os.pardir, "bench", "tracer.py")

# the names with no caller in the package that stay while the tracer wraps
# them (ROADMAP item 3)
PINNED = {"quadratic_root_count", "projective_points", "fourfold_h4_decomposition",
          "hilbert_square_h2_decomposition"}


def unread_definitions(texts):
    """The top-level functions and classes of the modules, given as source
    texts, that no Name or Attribute load in any of them reads, apart from
    the loads inside the definition itself."""
    defined, reads = set(), set()
    for text in texts:
        for stmt in ast.parse(text).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.add(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    reads.add(name)
    return defined - reads


def _package_sources():
    texts = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) != "__init__.py":
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
    return texts


def _traced_names():
    spec = importlib.util.spec_from_file_location("cfz_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {attr.split(".")[0]
            for _, attr, _ in tracer.TIMED + tracer.GENERATORS + tracer.COUNTED}


def test_the_scan_finds_a_definition_only_its_own_body_reads():
    texts = ["def f(n):\n    return f(n - 1) if n else 0\n\n"
             "def g():\n    return h.x\n\n"
             "class h:\n    x = 1\n\n"
             "def k():\n    return 0\n",
             "from .a import g, k\n\nprint(g(), m.k)\n"]
    assert unread_definitions(texts) == {"f"}


def test_every_definition_has_a_caller_in_the_package():
    unread = unread_definitions(_package_sources())
    traced = _traced_names()
    assert sorted(unread - traced) == [], "no caller in src/cfz: delete these"
    assert unread == PINNED
