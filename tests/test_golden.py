"""Pinned outputs: the CLI's `reduce --machine` stdout, the reduced
complex and the whole reduction trace (every move with its evidence,
the Betti numbers after each step, property A of the result) for
fixed-seed thickenings; the `--machine` stdout and exit code of the
query commands (`homology`, `property-a`, `surface`) on the bundled
complexes, their first subdivisions and a few non-surfaces; and the
chosen homology bases, H^1 cocycle bases and property-A witnesses of
the bundled complexes.

These are part of the output contract (deterministic tie-breaking in
the linear algebra decides which cycles, witnesses and excisions are
chosen), so they must stay byte-identical.  A change that alters them
on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

import covertype as ct
from covertype.cli import main
from helpers import (
    attach_dunce_with_bridge,
    attach_flap,
    barycentric_subdivision,
    glue_tetrahedron,
    randomized_thickening,
    replay_from_scratch,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
REDUCE_FILE = GOLDEN / "reduce.json"
QUERY_FILE = GOLDEN / "query.json"
BASES_FILE = GOLDEN / "bases.json"
QUERY_COMMANDS = ("homology", "property-a", "surface")


def _tetrahedra_on_subdivision(name, step):
    k = barycentric_subdivision(ct.load_bundled(name))
    for i, t in enumerate(k.simplices(2)[::step]):
        k = glue_tetrahedron(k, t, f"t{i}")
    return k


def _flaps_on_subdivision(name, step):
    k = barycentric_subdivision(ct.load_bundled(name))
    for i, e in enumerate(k.simplices(1)[::step]):
        k = attach_flap(k, e, f"f{i}")
    return attach_dunce_with_bridge(k, k.vertices[0], "d_")


@lru_cache(maxsize=None)
def reduce_cases():
    """(case name, complex, surface class) for every pinned reduction."""
    cases = []
    for seed in range(12):
        k, surface, _ = randomized_thickening(seed)
        cases.append((f"thickening-{seed}", k, surface))
    cases.append(
        ("tetrahedra-torus-sd1", _tetrahedra_on_subdivision("torus_7", 4), ct.SurfaceClass(True, 1))
    )
    cases.append(
        (
            "flaps-klein-sd1",
            _flaps_on_subdivision("klein_bottle_8", 9),
            ct.SurfaceClass(False, 2),
        )
    )
    return tuple(cases)


def run_reduce(complex_, surface, workdir):
    """stdout of `--machine reduce` run in workdir, and the written file."""
    (Path(workdir) / "in.cplx").write_text(ct.complex_to_text(complex_), encoding="utf-8")
    previous = os.getcwd()
    out = io.StringIO()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(["--machine", "reduce", "in.cplx", "out.cplx", "--surface", surface.name])
        written = Path("out.cplx").read_bytes().decode("utf-8")
    finally:
        os.chdir(previous)
    assert code == 0
    return out.getvalue(), written


@lru_cache(maxsize=None)
def query_cases():
    """(case name, complex) for every pinned query: each bundled complex
    and its first subdivision, then non-surfaces that fail the
    closed-surface check in different ways."""
    cases = []
    for name in ct.bundled_names():
        k = ct.load_bundled(name)
        cases += [(name, k), (f"{name}-sd1", barycentric_subdivision(k))]
    torus = ct.load_bundled("torus_7")
    pinched = list(itertools.combinations("1234", 3)) + list(itertools.combinations("1567", 3))
    cases += [
        ("pinched-spheres", ct.build_complex(pinched)),
        ("open-disk", ct.build_complex([("a", "b", "c"), ("b", "c", "d")])),
        ("torus-with-flap", attach_flap(torus, torus.simplices(1)[0], "x")),
        ("torus-with-tetrahedron", glue_tetrahedron(torus, torus.simplices(2)[0], "x")),
        ("circle", ct.build_complex([("a", "b"), ("b", "c"), ("a", "c")])),
        ("point", ct.build_complex([("a",)])),
    ]
    return tuple(cases)


def run_query(complex_, workdir):
    """{command: {"stdout", "code"}} of each `--machine` query command
    run in workdir on the complex."""
    (Path(workdir) / "in.cplx").write_text(ct.complex_to_text(complex_), encoding="utf-8")
    previous = os.getcwd()
    os.chdir(workdir)
    runs = {}
    try:
        for command in QUERY_COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["--machine", command, "in.cplx"])
            runs[command] = {"stdout": out.getvalue(), "code": code}
    finally:
        os.chdir(previous)
    return runs


def _lines(chain):
    return [" ".join(s) for s in chain]


def _ints(values):
    return " ".join(str(v) for v in values)


def trace_document(trace):
    """A ReductionTrace as JSON data: simplices as space-joined labels,
    f-vectors and Betti numbers as space-joined integers."""
    return {
        "initial_f": _ints(trace.initial_f),
        "final_f": _ints(trace.final_f),
        "moves": [
            {
                "kind": m.kind,
                "simplices": _lines(m.simplices),
                "before_f": _ints(m.before_f),
                "after_f": _ints(m.after_f),
                "aux": _lines(m.aux),
            }
            for m in trace.moves
        ],
        "betti_steps": [_ints(b) for b in trace.betti_steps],
        "property_a_final": trace.property_a_final,
    }


def bases_document():
    """Homology bases, H^1 cocycle bases and property-A witnesses of
    every bundled complex and its first subdivision, as JSON data."""
    doc = {}
    for name in ct.bundled_names():
        doc[name] = _bases(ct.load_bundled(name))
        doc[f"{name}-sd1"] = _bases(barycentric_subdivision(ct.load_bundled(name)))
    return doc


def _bases(k):
    witness = ct.property_a_witness(k)
    return {
        "homology_basis": [
            [_lines(chain) for chain in ct.homology_basis(k, n)] for n in range(k.dim + 1)
        ],
        "h1_cocycle_basis": [_lines(ct.cochain_support(k, c)) for c in ct.h1_cocycle_basis(k)],
        "property_a_witness": None if witness is None else _lines(ct.cochain_support(k, witness)),
    }


def _dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def reduce_golden():
    return json.loads(REDUCE_FILE.read_text("utf-8"))


@pytest.mark.parametrize("case", [c[0] for c in reduce_cases()])
def test_reduce_output_is_pinned(case, reduce_golden, tmp_path):
    _, complex_, surface = next(c for c in reduce_cases() if c[0] == case)
    stdout, written = run_reduce(complex_, surface, tmp_path)
    assert stdout == reduce_golden[case]["stdout"]
    assert written == reduce_golden[case]["output"]


@pytest.mark.parametrize("case", [c[0] for c in reduce_cases()])
def test_reduce_trace_is_pinned(case, reduce_golden):
    """The whole trace is pinned, and every step of it replays from scratch."""
    _, complex_, surface = next(c for c in reduce_cases() if c[0] == case)
    final, trace, _ = ct.reduce_to_certificate(complex_, surface)
    assert trace_document(trace) == reduce_golden[case]["trace"]
    assert replay_from_scratch(complex_, trace) == final


@pytest.fixture(scope="module")
def query_golden():
    return json.loads(QUERY_FILE.read_text("utf-8"))


@pytest.mark.parametrize("case", [c[0] for c in query_cases()])
def test_query_output_is_pinned(case, query_golden, tmp_path):
    _, complex_ = next(c for c in query_cases() if c[0] == case)
    assert run_query(complex_, tmp_path) == query_golden[case]


def test_bases_and_witnesses_are_pinned():
    assert _dump(bases_document()) == BASES_FILE.read_text("utf-8")


def test_pinned_witness_exists():
    """The golden file exercises the witness path, not only None."""
    doc = json.loads(BASES_FILE.read_text("utf-8"))
    assert doc["torus_wedge_circle_9"]["property_a_witness"]
    assert doc["torus_wedge_circle_9-sd1"]["property_a_witness"]


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    reduce_doc = {}
    for name, complex_, surface in reduce_cases():
        with tempfile.TemporaryDirectory() as work:
            stdout, written = run_reduce(complex_, surface, work)
        _, trace, _ = ct.reduce_to_certificate(complex_, surface)
        reduce_doc[name] = {"stdout": stdout, "output": written, "trace": trace_document(trace)}
    REDUCE_FILE.write_text(_dump(reduce_doc), encoding="utf-8")
    query_doc = {}
    for name, complex_ in query_cases():
        with tempfile.TemporaryDirectory() as work:
            query_doc[name] = run_query(complex_, work)
    QUERY_FILE.write_text(_dump(query_doc), encoding="utf-8")
    BASES_FILE.write_text(_dump(bases_document()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(_record())
