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
code.

The command line is read against one table, `_COMMANDS`, which also
gives the --help text: `covertype [--machine] [--quiet] COMMAND ...`,
with the command's options anywhere after it, as `--surface S` or
`--surface=S`, and `--` ending the options.  Option names are never
abbreviated, and an option given twice is a usage error.  `--chi` takes
an optional sign and ASCII digits, at most `bounds.MAX_GENUS_DIGITS`
of them.  A usage error, such as an unknown command or option or a
missing or extra argument, prints one `error:` line on stderr and exits
2 before any file is read or written.  So does a file or out path that
contains a line break (LF or CR), so that every field stays on one line.
`-h` or `--help`, before or after the command, prints the usage text and
exits 0.
"""

from __future__ import annotations

import os
import sys
import types

# the layers load on first use (see covertype/__init__.py), so each
# command runs only the modules it calls into
from . import bounds, cohomology, complexes, engine, fileformat, homology, reduction, surfaces
from .errors import (
    CoveringTypeError,
    DomainError,
    MalformedInputError,
    StageError,
    shown,
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


def _surface_bounds(surface: bounds.SurfaceClass) -> list:
    return [
        ("chi", surface.chi),
        ("rho", bounds.rho(surface.chi)),
        ("delta", bounds.delta(surface)),
        ("covering_type", bounds.covering_type(surface)),
    ]


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
    surface = bounds.surface_from_name(args.surface) if args.surface else None
    if surface is None:
        # an input no closed surface fits is unusable, as a parse error is
        betti = homology.betti_numbers(complex_)
        if not bounds.surfaces_with_betti(betti):
            raise MalformedInputError(f"Betti numbers {betti} match no closed surface")
    final, trace, certificate = reduction.reduce_to_certificate(complex_, surface)
    fileformat.write_complex_file(final, args.out)
    counts = trace.move_counts()
    return 0, fields + [
        ("surface", certificate.surface.name),
        ("betti", trace.betti_steps[-1]),
        ("skeleton_f_vector", trace.initial_f),
        ("excisions", counts.get(engine.EXCISION, 0)),
        ("collapses", counts.get(engine.COLLAPSE, 0)),
        ("contractions", counts.get(engine.CONTRACTION, 0)),
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
        return 0, fields + [("chi", args.chi), ("rho", bounds.rho(args.chi))]
    surface = bounds.surface_from_name(args.surface)
    return 0, fields + [("surface", surface.name)] + _surface_bounds(surface)


class _UsageError(Exception):
    """A command line that does not fit the command table."""


def _chi(text: str) -> int:
    """An optional sign and ASCII digits, as many as a genus may have."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    limit = bounds.MAX_GENUS_DIGITS
    if not (digits.isascii() and digits.isdigit() and len(digits) <= limit):
        raise _UsageError(f"--chi takes at most {limit} ASCII digits, not {shown(text)}")
    return int(text)


# the options before the command, and their help
_FLAGS = {"--machine": "stable key: value output", "--quiet": "no stdout; answer via exit code"}

# Each command: its handler, its positional arguments (all paths), its
# options with the name of each one's value and the function that reads
# it, whether exactly one option must be given, and its help.
_COMMANDS = {
    "homology": (
        cmd_homology, ("file",), {}, False,
        "f-vector, Euler characteristic, mod-2 Betti numbers",
    ),
    "property-a": (
        cmd_property_a, ("file",), {}, False,
        "cup-product regularity; exit 1 with a witness if it fails",
    ),
    "surface": (
        cmd_surface, ("file",), {}, False,
        "closed-surface check and classification",
    ),
    "reduce": (
        cmd_reduce, ("file", "out"), {"--surface": ("NAME", str)}, False,
        "run the reduction pipeline and write the reduced complex",
    ),
    "construct-m2": (
        cmd_construct_m2, ("file", "out"), {}, False,
        "build the 9-vertex genus-2-homotopy complex from a 10-vertex triangulation",
    ),
    "bounds": (
        cmd_bounds, (), {"--chi": ("N", _chi), "--surface": ("NAME", str)}, True,
        "rho for a chi, or rho/delta/covering type for a surface",
    ),
}


def _arguments(command: str) -> str:
    """What the command takes, as the usage text shows it."""
    _, names, options, one_of, _ = _COMMANDS[command]
    values = [f"{key} {value}" for key, (value, _) in options.items()]
    values = [" | ".join(values)] if one_of else [f"[{v}]" for v in values]
    return " ".join([n.upper() for n in names] + values)


def _is_option(word: str) -> bool:
    # "-" names a file, and "-2" is a number
    return len(word) > 1 and word[0] == "-" and not word[1].isdigit()


def _parse(argv: list[str]) -> types.SimpleNamespace | None:
    """The arguments of a command line as attributes, or None when it
    asks for help.  Raises _UsageError when it does not fit _COMMANDS."""
    args = types.SimpleNamespace(machine=False, quiet=False, subcommand=None)
    options, positional, given, only_positional = _FLAGS, [], set(), False
    words = iter(argv)
    for word in words:
        if only_positional or not _is_option(word):
            if args.subcommand is not None:
                positional.append(word)
                continue
            if word not in _COMMANDS:
                commands = ", ".join(_COMMANDS)
                raise _UsageError(f"unknown command {shown(word)}; the commands are {commands}")
            args.subcommand = word
            args.func, names, options, one_of, _ = _COMMANDS[word]
            for key in options:
                setattr(args, key[2:], None)
        elif word in ("-h", "--help"):
            return None
        elif word == "--":
            only_positional = True
        else:
            key, has_value, value = word.partition("=")
            flag = options is _FLAGS
            if key not in options or flag and has_value:
                where = "before the command" if flag else f"for {args.subcommand}"
                raise _UsageError(f"unknown option {shown(word)} {where}")
            if key in given:
                raise _UsageError(f"option {key} is given twice")
            given.add(key)
            if not (flag or has_value):
                value = next(words, None)
                if value is None or _is_option(value):
                    raise _UsageError(f"option {key} needs a value")
            setattr(args, key[2:], True if flag else options[key][1](value))
    if args.subcommand is None:
        raise _UsageError("no command given (see --help)")
    if len(positional) != len(names) or one_of and len(given & options.keys()) != 1:
        raise _UsageError(f"{args.subcommand} takes {_arguments(args.subcommand)}")
    # a path is printed as the value of one key: value line
    for name, path in zip(names, positional):
        if "\n" in path or "\r" in path:
            raise _UsageError(f"the {name} path {path!r} contains a line break")
        setattr(args, name, path)
    return args


def _help() -> str:
    lines = [
        "usage: covertype [--machine] [--quiet] COMMAND ...",
        "",
        "Covering-type bounds for closed surfaces via mod-2 simplicial (co)homology.",
        "",
        "commands:",
    ]
    for command, entry in _COMMANDS.items():
        lines += [f"  {command} {_arguments(command)}", f"      {entry[-1]}"]
    lines += ["", "options:"]
    for flag, text in [*_FLAGS.items(), ("-h, --help", "print this text and exit")]:
        lines.append(f"  {flag:<10}  {text}")
    return "\n".join(lines)


def _to_devnull(stream) -> None:
    """Point the stream's fd at os.devnull, so its flush at exit cannot fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _write(lines: list[str], code: int) -> int:
    """Print the lines and return the exit code.  A reader that has gone
    is not an error: the exit code still answers, as under --quiet.
    With fd 1 closed, Python starts with sys.stdout None."""
    if sys.stdout is None:
        return code
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        _to_devnull(sys.stdout)
    return code


def _fail(message: str, code: int) -> int:
    """Print one error line on stderr and return the exit code, which a
    closed stderr does not change.  With fd 2 closed, Python starts with
    sys.stderr None, and print would write to stdout instead."""
    try:
        if sys.stderr is not None:
            print(message, file=sys.stderr)
    except OSError:
        _to_devnull(sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as err:
        return _fail(f"error: {err}", 2)
    try:
        if args is None:
            return _write([_help()], 0)
        code, fields = args.func(args)
        labelled = [(key if args.machine else _LABELS.get(key), value) for key, value in fields]
        lines = [f"{label}: {_text(value, args.machine)}" for label, value in labelled if label]
        return code if args.quiet else _write(lines, code)
    except StageError as err:
        return _fail(f"error[{err.stage}]: {err.cause}", 1)
    except (MalformedInputError, DomainError, OSError) as err:
        return _fail(f"error: {err}", 2)
    except CoveringTypeError as err:
        return _fail(f"error: {err}", 1)


if __name__ == "__main__":
    sys.exit(main())
