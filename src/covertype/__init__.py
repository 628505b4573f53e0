"""Covering-type bounds for closed surfaces via mod-2 simplicial
(co)homology: complexes, GF(2) linear algebra, cup products, a
homotopy-preserving reduction pipeline, and the resulting vertex-count
certificates.

The layer modules load on first use.  Importing the package puts each
one in sys.modules and binds it here as a module object whose code runs
on its first attribute access (importlib.util.LazyLoader), so a CLI
call, a fresh process each time, runs only the modules its command
uses: `bounds` runs `bounds` alone, `reduce` never runs `surfaces`, and
only the commands that move simplices run `engine`.  Modules therefore
reach each other as `from . import surfaces` and look a function up
when they call it.
`errors` loads eagerly, and `value`, the base of the layers' value
types, with the first layer that runs.  The names exported below
resolve through `__getattr__`.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import LazyLoader, module_from_spec

from .errors import (
    CoveringTypeError,
    DomainError,
    InconsistencyError,
    MalformedInputError,
    NotFoundError,
    ParseError,
    PreconditionError,
    PropertyAViolationError,
    StageError,
)

__version__ = "0.1.0"


def _lazy(name: str):
    fullname = f"{__name__}.{name}"
    spec = PathFinder.find_spec(fullname, __path__)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


bounds = _lazy("bounds")
bundled = _lazy("bundled")
cohomology = _lazy("cohomology")
complexes = _lazy("complexes")
engine = _lazy("engine")
fileformat = _lazy("fileformat")
gf2 = _lazy("gf2")
homology = _lazy("homology")
reduction = _lazy("reduction")
surfaces = _lazy("surfaces")

# each exported name, by the module that defines it
_EXPORTS = {
    "bounds": (
        "SurfaceClass",
        "covering_type",
        "delta",
        "rho",
        "surface_from_name",
        "surfaces_with_betti",
    ),
    "bundled": ("bundled_names", "bundled_text", "load_bundled"),
    "cohomology": (
        "Cochain",
        "PairingTensor",
        "coboundary_matrix",
        "cochain_support",
        "cup_1_1",
        "h1_cocycle_basis",
        "has_property_A",
        "pairing_tensor",
        "property_a_witness",
    ),
    "complexes": (
        "Simplex",
        "SimplicialComplex",
        "build_complex",
        "collapse_free_face",
        "contract_edge",
        "identify_vertices",
        "make_simplex",
        "remove_two_simplex",
    ),
    "engine": ("MoveRecord", "apply_move"),
    "fileformat": (
        "ComplexFile",
        "complex_to_text",
        "parse_complex_file",
        "parse_complex_text",
        "write_complex_file",
    ),
    "gf2": (
        "Gf2Matrix",
        "Gf2Vector",
        "image_basis",
        "kernel_basis",
        "rank",
        "solve",
        "subspace_intersection",
    ),
    "homology": (
        "ChainData",
        "betti_numbers",
        "chain_data",
        "h2_epi_witness",
        "homology_basis",
        "surplus_cycle",
    ),
    "reduction": (
        "BoundCertificate",
        "ReductionTrace",
        "collapse_all",
        "eliminate_maximal_edges",
        "excise_to_surface_homology",
        "reduce_to_certificate",
    ),
    "surfaces": (
        "SurfaceCheckReport",
        "build_nine_vertex_m2",
        "check_closed_surface",
        "classify_surface",
        "orientable",
        "pinch_and_fill",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    # looked up on every access, so a name is always its module's current binding
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)
