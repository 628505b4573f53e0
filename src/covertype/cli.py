"""Command-line interface.

Exit codes: 0 = success (and "yes" for the boolean commands), 1 = a
domain-negative answer or a pipeline failure, 2 = unusable input
(parse/usage errors).  With --machine the output is stable
"key: value" lines; --quiet suppresses stdout entirely and leaves the
answer to the exit code.
"""

from __future__ import annotations

import argparse
import sys

from .cohomology import cochain_support, pairing_tensor, property_a_witness
from .complexes import SimplicialComplex
from .errors import (
    CoveringTypeError,
    DomainError,
    MalformedInputError,
    StageError,
)
from .fileformat import parse_complex_file, write_complex_file
from .homology import betti_numbers
from .reduction import reduce_to_certificate
from .surfaces import (
    SurfaceClass,
    build_nine_vertex_m2,
    check_closed_surface,
    classify_surface,
    covering_type,
    delta,
    rho,
    surface_from_name,
)

__all__ = ["main"]


def _ints(values) -> str:
    return " ".join(str(v) for v in values)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _emit(args, fields: list[tuple[str, str]], human: list[str]) -> None:
    if args.quiet:
        return
    if args.machine:
        for key, value in fields:
            print(f"{key}: {value}")
    else:
        for line in human:
            print(line)


def _load(path) -> tuple[SimplicialComplex, str]:
    parsed = parse_complex_file(path)
    return parsed.complex(), parsed.sha256


def _infer_surface(complex_: SimplicialComplex) -> SurfaceClass:
    betti = betti_numbers(complex_)
    padded = betti + (0,) * max(0, 3 - len(betti))
    b1, b2 = padded[1], padded[2]
    if padded[0] != 1 or b2 != 1 or any(b != 0 for b in padded[3:]):
        raise MalformedInputError(
            f"Betti numbers {betti} match no closed surface; pass --surface explicitly"
        )
    if b1 == 0:
        return SurfaceClass(True, 0)
    if b1 % 2 == 1:
        return SurfaceClass(False, b1)
    raise MalformedInputError(
        f"b1 = {b1} fits both an orientable and a non-orientable surface; pass --surface"
    )


def cmd_homology(args) -> int:
    complex_, digest = _load(args.file)
    f = complex_.f_vector
    chi = complex_.euler_characteristic()
    betti = betti_numbers(complex_)
    _emit(
        args,
        [
            ("command", "homology"),
            ("input", str(args.file)),
            ("sha256", digest),
            ("f_vector", _ints(f)),
            ("chi", str(chi)),
            ("betti", _ints(betti)),
        ],
        [
            f"f-vector: {f}",
            f"Euler characteristic: {chi}",
            f"mod-2 Betti numbers: {betti}",
        ],
    )
    return 0


def cmd_property_a(args) -> int:
    complex_, digest = _load(args.file)
    tensor = pairing_tensor(complex_)
    witness = property_a_witness(complex_)
    holds = witness is None
    fields = [
        ("command", "property-a"),
        ("input", str(args.file)),
        ("sha256", digest),
        ("b1", str(tensor.b1)),
        ("b2", str(tensor.b2)),
        ("property_a", _bool(holds)),
    ]
    human = [
        f"b1 = {tensor.b1}, b2 = {tensor.b2}",
        f"property A: {'holds' if holds else 'fails'}",
    ]
    if not holds:
        edges = "; ".join(" ".join(e) for e in cochain_support(complex_, witness))
        fields.append(("witness", edges))
        human.append(f"witness class (all cup products vanish): {edges}")
    _emit(args, fields, human)
    return 0 if holds else 1


def cmd_surface(args) -> int:
    complex_, digest = _load(args.file)
    report = check_closed_surface(complex_)
    fields = [
        ("command", "surface"),
        ("input", str(args.file)),
        ("sha256", digest),
        ("pure_two_dimensional", _bool(report.pure_two_dimensional)),
        ("every_edge_in_two_triangles", _bool(report.every_edge_in_two_triangles)),
        ("strongly_connected", _bool(report.strongly_connected)),
        ("all_links_single_circles", _bool(report.all_links_single_circles)),
        ("verdict", _bool(report.verdict)),
    ]
    human = [
        f"pure 2-dimensional: {'yes' if report.pure_two_dimensional else 'no'}",
        f"every edge in exactly 2 triangles: {'yes' if report.every_edge_in_two_triangles else 'no'}",
        f"strongly connected: {'yes' if report.strongly_connected else 'no'}",
        f"all vertex links single circles: {'yes' if report.all_links_single_circles else 'no'}",
        f"closed surface: {'yes' if report.verdict else 'no'}",
    ]
    if report.verdict:
        surface = classify_surface(complex_)
        chi = surface.chi
        fields += [
            ("class", surface.name),
            ("orientable", _bool(surface.orientable)),
            ("genus", str(surface.genus)),
            ("chi", str(chi)),
            ("rho", str(rho(chi))),
            ("delta", str(delta(surface))),
            ("covering_type", str(covering_type(surface))),
        ]
        human += [
            f"class: {surface.name} ({'orientable' if surface.orientable else 'non-orientable'},"
            f" genus {surface.genus}, chi {chi})",
            f"rho = {rho(chi)}, delta = {delta(surface)}, covering type = {covering_type(surface)}",
        ]
    else:
        if report.bad_maximal_simplices:
            witness = "; ".join(" ".join(s) for s in report.bad_maximal_simplices)
            fields.append(("bad_maximal_simplices", witness))
            human.append(f"maximal simplices of wrong dimension: {witness}")
        if report.bad_edges:
            witness = "; ".join(f"{' '.join(e)} ({c})" for e, c in report.bad_edges)
            fields.append(("bad_edges", witness))
            human.append(f"edges with triangle count != 2: {witness}")
        if not report.strongly_connected:
            fields.append(("components", str(report.component_count)))
            human.append(f"triangle components: {report.component_count}")
        if report.bad_vertices:
            witness = " ".join(report.bad_vertices)
            fields.append(("bad_vertices", witness))
            human.append(f"vertices whose link is not a single circle: {witness}")
    _emit(args, fields, human)
    return 0 if report.verdict else 1


def cmd_reduce(args) -> int:
    complex_, digest = _load(args.file)
    surface = surface_from_name(args.surface) if args.surface else _infer_surface(complex_)
    final, trace, certificate = reduce_to_certificate(complex_, surface)
    write_complex_file(final, args.out)
    counts = trace.move_counts()
    fields = [
        ("command", "reduce"),
        ("input", str(args.file)),
        ("sha256", digest),
        ("surface", surface.name),
        ("betti", _ints(trace.betti_steps[-1])),
        ("skeleton_f_vector", _ints(trace.initial_f)),
        ("excisions", str(counts.get("simplex-excision", 0))),
        ("collapses", str(counts.get("collapse", 0))),
        ("contractions", str(counts.get("edge-contraction", 0))),
        ("final_f_vector", _ints(certificate.f_vector)),
        ("chi", str(certificate.chi)),
        ("rho", str(certificate.rho)),
        ("alpha0", str(certificate.f_vector[0])),
        ("triangles_cover_edges", _bool(certificate.triangles_cover_edges)),
        ("simple_graph_bound", _bool(certificate.simple_graph_bound)),
        ("euler_vertex_bound", _bool(certificate.euler_vertex_bound)),
        ("property_a_final", _bool(trace.property_a_final)),
        ("output", str(args.out)),
    ]
    human = [
        f"surface: {surface.name} (chi {certificate.chi})",
        f"pipeline: {counts.get('simplex-excision', 0)} excisions,"
        f" {counts.get('collapse', 0)} collapses,"
        f" {counts.get('edge-contraction', 0)} contractions",
        f"f-vector: {trace.initial_f} -> {certificate.f_vector}",
        "checked: 3*a2 >= 2*a1; 2*a1 <= a0*(a0-1); 6*chi >= 6*a0 - a0*(a0-1)",
        f"vertex bound: alpha0 = {certificate.f_vector[0]} >= rho = {certificate.rho}",
        f"wrote reduced complex to {args.out}",
    ]
    _emit(args, fields, human)
    return 0


def cmd_construct_m2(args) -> int:
    complex_, digest = _load(args.file)
    result = build_nine_vertex_m2(complex_)
    write_complex_file(result, args.out)
    betti = betti_numbers(result)
    report = check_closed_surface(result)
    if report.verdict:
        surface_line = "closed-surface check: passes"
    else:
        surface_line = (
            "closed-surface check: fails (expected: the complex is homotopy"
            " equivalent to the surface, not homeomorphic)"
        )
    fields = [
        ("command", "construct-m2"),
        ("input", str(args.file)),
        ("sha256", digest),
        ("f_vector", _ints(result.f_vector)),
        ("betti", _ints(betti)),
        ("property_a", "true"),
        ("closed_surface", _bool(report.verdict)),
        ("output", str(args.out)),
    ]
    human = [
        f"constructed complex: f-vector {result.f_vector}",
        f"mod-2 Betti numbers: {betti}",
        "property A: holds",
        surface_line,
        f"wrote complex to {args.out}",
    ]
    _emit(args, fields, human)
    return 0


def cmd_bounds(args) -> int:
    if args.surface is not None:
        surface = surface_from_name(args.surface)
        chi = surface.chi
        fields = [
            ("command", "bounds"),
            ("surface", surface.name),
            ("chi", str(chi)),
            ("rho", str(rho(chi))),
            ("delta", str(delta(surface))),
            ("covering_type", str(covering_type(surface))),
        ]
        human = [
            f"surface: {surface.name} (chi {chi})",
            f"rho = {rho(chi)}",
            f"delta = {delta(surface)}",
            f"covering type = {covering_type(surface)}",
        ]
    else:
        chi = args.chi
        fields = [
            ("command", "bounds"),
            ("chi", str(chi)),
            ("rho", str(rho(chi))),
        ]
        human = [f"chi = {chi}", f"rho = {rho(chi)}"]
    _emit(args, fields, human)
    return 0


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
    try:
        return args.func(args)
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
