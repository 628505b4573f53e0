"""What a CLI process loads and runs, and the package's public names.

Every CLI call is a fresh process, so each module it runs is loaded,
and without a bytecode cache compiled, on every call.  The layer
modules load on first use (see covertype/__init__.py): each is in
sys.modules from the start as a lazy module, and its code runs only when
a command first reaches into it."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covertype

SRC = Path(covertype.__file__).resolve().parents[1]
DATA = SRC / "covertype" / "data"

PROBE = """
import importlib.util, json, sys

def ran():
    # a lazy module whose code has run is a plain module again
    return sorted(
        name.split(".", 1)[1]
        for name, module in sys.modules.items()
        if name.startswith("covertype.") and type(module) is not importlib.util._LazyModule
    )

from covertype import cli
seen = {"after_import": sorted(sys.modules), "ran_after_import": ran()}
seen["code"] = cli.main(sys.argv[1:])
seen.update(after_command=sorted(sys.modules), ran=ran())
print(json.dumps(seen))
"""

# loaded by the standard dataclass machinery; none is needed to run a command
COMPILER_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# annotations are never evaluated and their names come from collections.abc;
# hashlib loads OpenSSL, and files are hashed with the interpreter's own
# SHA-256; the command line is read against cli._COMMANDS, and argparse
# would load gettext and locale for its messages
UNUSED_AT_RUN_TIME = COMPILER_MODULES + ("typing", "hashlib", "argparse", "gettext", "locale")

# The benchmark's tracer wraps functions only in the covertype modules in
# sys.modules after `from covertype import cli`, so every layer must be
# there, even though none of them has run yet.
LAYERS = (
    "gf2", "homology", "complexes", "engine", "cohomology", "bounds", "surfaces", "reduction",
    "fileformat",
)

# the modules each command runs: those it calls into and what they import
RUNS = {
    "homology": (["homology", "{torus}"], {"complexes", "fileformat", "gf2", "homology"}),
    "property-a": (
        ["property-a", "{torus}"],
        {"cohomology", "complexes", "fileformat", "gf2", "homology"},
    ),
    "surface": (["surface", "{torus}"], {"bounds", "complexes", "fileformat", "surfaces"}),
    # the surface table needs no complex, and the bounds read nothing else
    "bounds-chi": (["bounds", "--chi", "0"], {"bounds"}),
    "bounds-surface": (["bounds", "--surface", "M2"], {"bounds"}),
    # engine, the in-place move engine, runs only where simplices move;
    # reduce reads the surface table but checks no closed surface
    "reduce": (["reduce", "{torus}", "{out}", "--surface", "M1"], set(LAYERS) - {"surfaces"}),
    # the surface inferred from the Betti numbers, an excision to make it
    "reduce-inferred": (["reduce", "{sphere}", "{out}"], set(LAYERS) - {"surfaces"}),
    "construct-m2": (["construct-m2", "{genus2}", "{out}"], set(LAYERS) - {"reduction"}),
}


def _probe(argv: list[str]) -> dict:
    # -S leaves site-packages, and whatever a .pth file would import, out
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, "--machine", "--quiet", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_start_up_imports():
    seen = _probe(["bounds", "--chi", "0"])
    after_import = set(seen["after_import"])
    assert after_import.isdisjoint(UNUSED_AT_RUN_TIME), sorted(after_import & set(UNUSED_AT_RUN_TIME))
    assert {f"covertype.{m}" for m in LAYERS} <= after_import
    assert set(seen["ran_after_import"]) == {"cli", "errors"}


@pytest.mark.parametrize("command", RUNS)
def test_each_command_runs_only_the_layers_it_uses(command, tmp_path):
    argv, layers = RUNS[command]
    paths = {
        "{torus}": DATA / "torus_7.cplx",
        "{genus2}": DATA / "genus2_10.cplx",
        "{sphere}": DATA / "side_sphere_5.cplx",
        "{out}": tmp_path / "out.cplx",
    }
    seen = _probe([str(paths.get(a, a)) for a in argv])
    assert seen["code"] == 0
    after_command = set(seen["after_command"])
    assert after_command.isdisjoint(UNUSED_AT_RUN_TIME), sorted(after_command & set(UNUSED_AT_RUN_TIME))
    # value is the base of every layer's value types
    assert set(seen["ran"]) == {"cli", "errors", "value"} | layers


TRACER = SRC.parent / "perfbench" / "tracer.py"

# what the benchmark's tracer does before it runs a command: import the
# CLI and chain_data, then wrap each function it times where the
# covertype modules bind it; prints the names it could not find
TRACER_PROBE = """
import importlib.util, json, sys

spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
from covertype import cli
from covertype.homology import chain_data
print(json.dumps(tracer.Recorder().install("covertype")))
"""


def test_the_benchmark_tracer_finds_every_function_it_times():
    """A refactor that moves or renames a traced function breaks every
    traced benchmark run; the tracer is read, never changed."""
    # -B writes no bytecode beside the tracer
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACER_PROBE, str(TRACER)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []


# every name the package exported when it imported its modules eagerly
EXPORTS = {
    "bounds": ("SurfaceClass", "covering_type", "delta", "rho", "surface_from_name"),
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
    "errors": (
        "CoveringTypeError",
        "DomainError",
        "InconsistencyError",
        "MalformedInputError",
        "NotFoundError",
        "ParseError",
        "PreconditionError",
        "PropertyAViolationError",
        "StageError",
    ),
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


@pytest.mark.parametrize("module", EXPORTS)
def test_exported_names_are_their_modules_objects(module):
    home = importlib.import_module(f"covertype.{module}")
    assert getattr(covertype, module) is home
    for name in EXPORTS[module]:
        assert getattr(covertype, name) is getattr(home, name), name


def test_unknown_names_are_attribute_errors():
    # per_complex and main are defined in the package but not exported
    for name in ("no_such_name", "per_complex", "main"):
        with pytest.raises(AttributeError, match=name):
            getattr(covertype, name)
    with pytest.raises(ImportError):
        from covertype import no_such_name  # noqa: F401
