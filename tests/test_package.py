"""The package's public names: every one still resolves, through the
package, to the object its module defines, although the modules load
lazily."""

import importlib
import subprocess
import sys

import cfz

# the names `cfz` exported when it imported every module eagerly
EXPORTED = {
    "cache": ["CountCache"],
    "cmforms": ["CornacchiaSolution", "EisensteinInt", "ap_base", "ap_via_eisenstein",
                "cornacchia_4p", "fermat_comparison", "identify_form"],
    "counting": ["CountRecord", "VarietySpec", "builtin_variety", "count_fermat_cubic",
                 "count_pairsum_convolution", "count_points_generic", "count_S_fibered",
                 "count_variety", "points_on_variety"],
    "fields": ["FiniteField", "enumerate_projective", "field_of_order", "field_tables",
               "find_irreducible", "quadratic_root_count"],
    "fourfold": ["LinearMapP5", "automorphism_subgroup", "verify_pfaffian_map_identity"],
    "grassmann": ["max_linear_subspace_dim", "pluecker_relations"],
    "lattice": ["GramMatrix2", "associated_k3_degree", "discriminant", "special_admissible"],
    "polynomials": ["MultiHomPoly", "Poly", "parse_poly"],
    "zeta": ["LocalFactor", "TraceRecord", "algebraic_trace_split",
             "assemble_fourfold_factors", "fourfold_count_from_surface",
             "hilbert_square_count", "local_factor_cm", "reconstruct_count",
             "residue_zero_check", "trace_from_count"],
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)


def test_every_exported_name_is_its_modules_object():
    assert sorted(cfz.__all__) == NAMES
    for module_name, names in EXPORTED.items():
        module = importlib.import_module(f"cfz.{module_name}")
        for name in names:
            assert getattr(cfz, name) is getattr(module, name), name
    assert set(NAMES) <= set(dir(cfz))
    assert cfz.__version__ == "0.1.0"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from cfz import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(cfz, name) for name in NAMES)


def test_an_unknown_name_is_an_attribute_error():
    try:
        cfz.no_such_name
    except AttributeError as e:
        assert "no_such_name" in str(e)
    else:
        raise AssertionError("cfz.no_such_name resolved")


def test_an_imported_submodule_is_bound_on_the_package():
    # in a fresh process: importing a lazily registered submodule by name
    # must leave it readable as an attribute of the package
    code = ("import sys, types, cfz.fields; "
            "assert cfz.fields is sys.modules['cfz.fields']; "
            "assert cfz.fields.is_prime(7); "
            "assert type(cfz.fields) is types.ModuleType; print('ok')")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "ok\n"
