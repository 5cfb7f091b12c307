"""cfz: point counts, Frobenius traces and local zeta factors for a
special cubic fourfold and its associated K3 surface.

Every submodule that defines a public name is registered when the package
is imported, but lazily (``importlib.util.LazyLoader``): it is in
``sys.modules`` and bound on the package at once, and its code runs at
the first read of one of its attributes.  A command therefore compiles
and runs only the modules it uses.  The public names below resolve
through the package's ``__getattr__`` (PEP 562) to their modules."""

import importlib.util
import sys

__version__ = "0.1.0"

_MODULE_NAMES = {
    "cache": "CountCache",
    "cmforms": "CornacchiaSolution EisensteinInt ap_base ap_via_eisenstein "
               "cornacchia_4p fermat_comparison identify_form",
    "counting": "CountRecord VarietySpec builtin_variety count_fermat_cubic "
                "count_pairsum_convolution count_points_generic count_S_fibered "
                "count_variety points_on_variety",
    "fields": "FiniteField enumerate_projective field_of_order field_tables "
              "find_irreducible quadratic_root_count",
    "fourfold": "automorphism_subgroup pfaffian_map_substitution",
    "grassmann": "max_linear_subspace_dim pluecker_relations",
    "lattice": "GramMatrix2 associated_k3_degree discriminant special_admissible",
    "polynomials": "MultiHomPoly Poly parse_poly",
    "zeta": "LocalFactor TraceRecord algebraic_trace_split assemble_fourfold_factors "
            "fourfold_count_from_surface hilbert_square_count local_factor_cm "
            "reconstruct_count residue_zero_check trace_from_count",
}
# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items()
            for name in names.split()}

__all__ = sorted(_EXPORTS)


def _lazy(name):
    """The submodule ``cfz.<name>``, registered in ``sys.modules`` and bound
    on the package as an import would be; a module not yet imported is
    loaded lazily, so its code runs at the first read of an attribute."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        globals()[name] = module
    return module


for _name in _MODULE_NAMES:
    _lazy(_name)
del _name


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
