"""The plain-text complex file format.

One maximal simplex per line, vertex labels separated by whitespace.
'#' starts a comment; a comment of the form '# surface: NAME' declares
which closed surface the file is expected to triangulate.  Blank lines
are ignored.  Files are UTF-8, written with LF; CRLF is tolerated on
read; bytes that are not UTF-8 are a parse error.  A file with no
simplex lines is a parse error, and so is a simplex line with more than
MAX_SIMPLEX_VERTICES labels: a simplex on n vertices brings all 2^n - 1
of its faces into the complex.  For the same reason a file whose lines
bring more than MAX_CLOSURE_FACES faces in all is a parse error: each
line of n labels counts 2^n - 1, a face on two lines counts twice, and
the count is made while parsing, before any closure is built.
"""

from __future__ import annotations

import re

# the interpreter's own SHA-256 (_sha2 from 3.12, _sha256 before): hashlib
# loads OpenSSL, which costs more per CLI call than the hash of a file
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .complexes import SimplicialComplex, build_complex, check_label
from .errors import MalformedInputError, ParseError
from .value import Value

__all__ = [
    "MAX_SIMPLEX_VERTICES",
    "MAX_CLOSURE_FACES",
    "ComplexFile",
    "parse_complex_text",
    "parse_complex_file",
    "complex_to_text",
    "write_complex_file",
]

MAX_SIMPLEX_VERTICES = 16
# one line of 16 labels; a twice-subdivided surface counts under 7k
MAX_CLOSURE_FACES = 1 << 16

_SURFACE_RE = re.compile(r"#\s*surface:\s*(\S+)")


class ComplexFile(Value):
    """Parsed file: the simplex lines as given, plus any declared surface
    and, when read from a file, the sha256 of the bytes that were parsed."""

    maximal_simplices: tuple[tuple[str, ...], ...]
    surface_name: str | None = None
    sha256: str | None = None

    def complex(self) -> SimplicialComplex:
        return build_complex(self.maximal_simplices)


def parse_complex_text(text: str) -> ComplexFile:
    surface: str | None = None
    simplices: list[tuple[str, ...]] = []
    checked: set[str] = set()  # each distinct label is checked once
    faces = 0
    # lines end at LF only: str.splitlines would also break at \f, \v,
    # \x85, U+2028 and a lone CR, which the format reads as whitespace
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        if "#" in line:
            comment = line[line.index("#") :]
            match = _SURFACE_RE.match(comment)
            if match and surface is None:
                surface = match.group(1)
            line = line[: line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) > MAX_SIMPLEX_VERTICES:
            raise ParseError(
                f"simplex with {len(tokens)} vertices; at most {MAX_SIMPLEX_VERTICES} are allowed",
                line=lineno,
            )
        faces += (1 << len(tokens)) - 1
        if faces > MAX_CLOSURE_FACES:
            raise ParseError(
                f"the simplices up to here bring over {MAX_CLOSURE_FACES} faces;"
                " at most that many are allowed",
                line=lineno,
            )
        seen = set()
        for t in tokens:
            if t not in checked:
                try:
                    checked.add(check_label(t))
                except MalformedInputError as err:
                    raise ParseError(str(err), line=lineno) from err
            if t in seen:
                raise ParseError(f"duplicate vertex {t!r} in simplex", line=lineno)
            seen.add(t)
        simplices.append(tuple(tokens))
    if not simplices:
        raise ParseError("no simplices in file")
    return ComplexFile(tuple(simplices), surface)


def parse_complex_file(path) -> ComplexFile:
    """Read the file once; hash and decode those same bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ParseError(f"not valid UTF-8 at byte {err.start}", line=line) from err
    parsed = parse_complex_text(text)
    return ComplexFile(
        parsed.maximal_simplices, parsed.surface_name, sha256(data).hexdigest()
    )


def complex_to_text(complex_: SimplicialComplex, surface_name: str | None = None) -> str:
    """Canonical text for a complex: optional surface header, then the
    maximal simplices one per line in canonical order."""
    lines = []
    if surface_name is not None:
        lines.append(f"# surface: {surface_name}")
    for s in complex_.maximal_simplices():
        lines.append(" ".join(s))
    return "\n".join(lines) + "\n"


def write_complex_file(complex_: SimplicialComplex, path, surface_name: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(complex_to_text(complex_, surface_name))
