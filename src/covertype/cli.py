"""Command-line interface.

Each command returns its exit code and one ordered list of (key, value)
fields, and `main` prints that list.  Exit codes: 0 = success (and
"yes" for the boolean commands), 1 = a domain-negative answer or a
pipeline failure, 2 = unusable input (parse/usage errors).  With
--machine every field is a "key: value" line, tuples of ints joined by
spaces and booleans as true/false; only this output is stable.  Without
it every labelled field is a "label: value" line, tuples as (7, 21, 14)
and booleans as yes/no; command, input and sha256 are machine-only.
--quiet suppresses stdout entirely and leaves the answer to the exit
code.  A file or out path that contains a line break (LF or CR) is a
usage error, so that every field stays on one line.
"""

from __future__ import annotations

import argparse
import sys

# the layers load on first use (see covertype/__init__.py), so each
# command runs only the modules it calls into
from . import cohomology, complexes, fileformat, homology, reduction, surfaces
from .errors import (
    CoveringTypeError,
    DomainError,
    MalformedInputError,
    StageError,
)

__all__ = ["main"]

# the human label of each field key; a key without one is machine-only
_LABELS = {
    "surface": "surface",
    "class": "class",
    "orientable": "orientable",
    "genus": "genus",
    "f_vector": "f-vector",
    "chi": "Euler characteristic",
    "betti": "mod-2 Betti numbers",
    "b1": "b1",
    "b2": "b2",
    "property_a": "property A",
    "witness": "witness class (all cup products vanish)",
    "pure_two_dimensional": "pure 2-dimensional",
    "every_edge_in_two_triangles": "every edge in exactly 2 triangles",
    "strongly_connected": "strongly connected",
    "all_links_single_circles": "all vertex links single circles",
    "verdict": "closed surface",
    "bad_maximal_simplices": "maximal simplices of wrong dimension",
    "bad_edges": "edges with triangle count != 2",
    "components": "triangle components",
    "bad_vertices": "vertices whose link is not a single circle",
    "rho": "rho",
    "delta": "delta",
    "covering_type": "covering type",
    "skeleton_f_vector": "2-skeleton f-vector",
    "excisions": "excisions",
    "collapses": "collapses",
    "contractions": "contractions",
    "final_f_vector": "final f-vector",
    "alpha0": "alpha0",
    "triangles_cover_edges": "3*a2 >= 2*a1",
    "simple_graph_bound": "2*a1 <= a0*(a0-1)",
    "euler_vertex_bound": "6*chi >= 6*a0 - a0*(a0-1)",
    "property_a_final": "property A after reduction",
    "closed_surface": "closed-surface check",
    "output": "wrote",
}


def _text(value, machine: bool) -> str:
    if isinstance(value, bool):
        return ("true" if value else "false") if machine else ("yes" if value else "no")
    if isinstance(value, tuple):
        items = [str(v) for v in value]
        return " ".join(items) if machine else f"({', '.join(items)})"
    return str(value)


def _load(args) -> tuple[complexes.SimplicialComplex, list]:
    """The input's complex, and the header fields that identify it."""
    parsed = fileformat.parse_complex_file(args.file)
    header = [("command", args.subcommand), ("input", args.file), ("sha256", parsed.sha256)]
    return parsed.complex(), header


def _surface_bounds(surface: surfaces.SurfaceClass) -> list:
    return [
        ("chi", surface.chi),
        ("rho", surfaces.rho(surface.chi)),
        ("delta", surfaces.delta(surface)),
        ("covering_type", surfaces.covering_type(surface)),
    ]


def _infer_surface(complex_: complexes.SimplicialComplex) -> surfaces.SurfaceClass:
    betti = homology.betti_numbers(complex_)
    padded = betti + (0,) * max(0, 3 - len(betti))
    b1, b2 = padded[1], padded[2]
    if padded[0] != 1 or b2 != 1 or any(b != 0 for b in padded[3:]):
        raise MalformedInputError(
            f"Betti numbers {betti} match no closed surface; pass --surface explicitly"
        )
    if b1 == 0:
        return surfaces.SurfaceClass(True, 0)
    if b1 % 2 == 1:
        return surfaces.SurfaceClass(False, b1)
    raise MalformedInputError(
        f"b1 = {b1} fits both an orientable and a non-orientable surface; pass --surface"
    )


def cmd_homology(args) -> tuple[int, list]:
    complex_, fields = _load(args)
    return 0, fields + [
        ("f_vector", complex_.f_vector),
        ("chi", complex_.euler_characteristic()),
        ("betti", homology.betti_numbers(complex_)),
    ]


def cmd_property_a(args) -> tuple[int, list]:
    complex_, fields = _load(args)
    tensor = cohomology.pairing_tensor(complex_)
    witness = cohomology.property_a_witness(complex_)
    fields += [("b1", tensor.b1), ("b2", tensor.b2), ("property_a", witness is None)]
    if witness is None:
        return 0, fields
    edges = "; ".join(" ".join(e) for e in cohomology.cochain_support(complex_, witness))
    return 1, fields + [("witness", edges)]


def cmd_surface(args) -> tuple[int, list]:
    complex_, fields = _load(args)
    report = surfaces.check_closed_surface(complex_)
    fields += [
        ("pure_two_dimensional", report.pure_two_dimensional),
        ("every_edge_in_two_triangles", report.every_edge_in_two_triangles),
        ("strongly_connected", report.strongly_connected),
        ("all_links_single_circles", report.all_links_single_circles),
        ("verdict", report.verdict),
    ]
    if report.verdict:
        surface = surfaces.classify_surface(complex_)
        fields += [
            ("class", surface.name),
            ("orientable", surface.orientable),
            ("genus", surface.genus),
        ]
        return 0, fields + _surface_bounds(surface)
    if report.bad_maximal_simplices:
        witness = "; ".join(" ".join(s) for s in report.bad_maximal_simplices)
        fields.append(("bad_maximal_simplices", witness))
    if report.bad_edges:
        witness = "; ".join(f"{' '.join(e)} ({c})" for e, c in report.bad_edges)
        fields.append(("bad_edges", witness))
    if not report.strongly_connected:
        fields.append(("components", report.component_count))
    if report.bad_vertices:
        fields.append(("bad_vertices", " ".join(report.bad_vertices)))
    return 1, fields


def cmd_reduce(args) -> tuple[int, list]:
    complex_, fields = _load(args)
    surface = surfaces.surface_from_name(args.surface) if args.surface else _infer_surface(complex_)
    final, trace, certificate = reduction.reduce_to_certificate(complex_, surface)
    fileformat.write_complex_file(final, args.out)
    counts = trace.move_counts()
    return 0, fields + [
        ("surface", surface.name),
        ("betti", trace.betti_steps[-1]),
        ("skeleton_f_vector", trace.initial_f),
        ("excisions", counts.get("simplex-excision", 0)),
        ("collapses", counts.get("collapse", 0)),
        ("contractions", counts.get("edge-contraction", 0)),
        ("final_f_vector", certificate.f_vector),
        ("chi", certificate.chi),
        ("rho", certificate.rho),
        ("alpha0", certificate.f_vector[0]),
        ("triangles_cover_edges", certificate.triangles_cover_edges),
        ("simple_graph_bound", certificate.simple_graph_bound),
        ("euler_vertex_bound", certificate.euler_vertex_bound),
        ("property_a_final", trace.property_a_final),
        ("output", args.out),
    ]


def cmd_construct_m2(args) -> tuple[int, list]:
    complex_, fields = _load(args)
    result = surfaces.build_nine_vertex_m2(complex_)
    fileformat.write_complex_file(result, args.out)
    return 0, fields + [
        ("f_vector", result.f_vector),
        ("betti", homology.betti_numbers(result)),
        ("property_a", True),
        # false is expected: the result is homotopy equivalent to the
        # surface, not homeomorphic to it
        ("closed_surface", surfaces.check_closed_surface(result).verdict),
        ("output", args.out),
    ]


def cmd_bounds(args) -> tuple[int, list]:
    fields = [("command", args.subcommand)]
    if args.surface is None:
        return 0, fields + [("chi", args.chi), ("rho", surfaces.rho(args.chi))]
    surface = surfaces.surface_from_name(args.surface)
    return 0, fields + [("surface", surface.name)] + _surface_bounds(surface)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertype",
        description="Covering-type bounds for closed surfaces via mod-2 simplicial (co)homology.",
    )
    parser.add_argument("--machine", action="store_true", help="stable key: value output")
    parser.add_argument("--quiet", action="store_true", help="no stdout; answer via exit code")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("homology", help="f-vector, Euler characteristic, mod-2 Betti numbers")
    p.add_argument("file")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("property-a", help="cup-product regularity; exit 1 with a witness if it fails")
    p.add_argument("file")
    p.set_defaults(func=cmd_property_a)

    p = sub.add_parser("surface", help="closed-surface check and classification")
    p.add_argument("file")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("reduce", help="run the reduction pipeline and write the reduced complex")
    p.add_argument("file")
    p.add_argument("out")
    p.add_argument("--surface", help="declared surface class (inferred from homology when omitted)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser(
        "construct-m2",
        help="build the 9-vertex genus-2-homotopy complex from a 10-vertex triangulation",
    )
    p.add_argument("file")
    p.add_argument("out")
    p.set_defaults(func=cmd_construct_m2)

    p = sub.add_parser("bounds", help="rho for a chi, or rho/delta/covering type for a surface")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--chi", type=int)
    group.add_argument("--surface")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    # a path is printed as the value of one key: value line
    for name in ("file", "out"):
        path = getattr(args, name, None)
        if path is not None and ("\n" in path or "\r" in path):
            print(f"error: the {name} path {path!r} contains a line break", file=sys.stderr)
            return 2
    try:
        code, fields = args.func(args)
        if not args.quiet:
            for key, value in fields:
                label = key if args.machine else _LABELS.get(key)
                if label is not None:
                    print(f"{label}: {_text(value, args.machine)}")
        return code
    except StageError as err:
        print(f"error[{err.stage}]: {err.cause}", file=sys.stderr)
        return 1
    except (MalformedInputError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CoveringTypeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
