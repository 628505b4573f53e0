"""The plain-text complex file format.

One maximal simplex per line, vertex labels separated by whitespace.
'#' starts a comment, which runs to the end of the line; blank lines
are ignored.  Files are UTF-8, written with LF; CRLF is tolerated on
read; bytes that are not UTF-8 are a parse error.  A file with no
simplex lines is a parse error, and so is a simplex line with more than
MAX_SIMPLEX_VERTICES labels: a simplex on n vertices brings all 2^n - 1
of its faces into the complex.  For the same reason a file whose lines
bring more than MAX_CLOSURE_FACES faces in all is a parse error: each
line of n labels counts 2^n - 1, a face on two lines counts twice, and
the count is made while parsing, before any closure is built.  A file
of more than MAX_FILE_BYTES bytes is a parse error before it is
decoded, since comments and long labels bring no faces.
"""

from __future__ import annotations

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
    "MAX_FILE_BYTES",
    "ComplexFile",
    "parse_complex_text",
    "parse_complex_file",
    "complex_to_text",
    "write_complex_file",
]

MAX_SIMPLEX_VERTICES = 16
# one line of 16 labels; a twice-subdivided surface counts under 7k
MAX_CLOSURE_FACES = 1 << 16
# a twice-subdivided surface is under 50 KB; at 4 MiB the costliest
# file, all '#' lines, still parses in under 1 s (2-core VM)
MAX_FILE_BYTES = 1 << 22


class ComplexFile(Value):
    """Parsed file: the simplex lines as given and, when read from a
    file, the sha256 of the bytes that were parsed."""

    maximal_simplices: tuple[tuple[str, ...], ...]
    sha256: str | None = None

    def complex(self) -> SimplicialComplex:
        return build_complex(self.maximal_simplices)


def parse_complex_text(text: str) -> ComplexFile:
    return ComplexFile(_read_simplices(text))


def _read_simplices(text: str) -> tuple[tuple[str, ...], ...]:
    simplices: list[tuple[str, ...]] = []
    checked: set[str] = set()  # each distinct label is checked once
    faces = 0
    # lines end at LF only: str.splitlines would also break at \f, \v,
    # \x85, U+2028 and a lone CR, which the format reads as whitespace
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        if "#" in line:  # cheaper than partitioning every simplex line
            line = line.partition("#")[0]
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
    return tuple(simplices)


def parse_complex_file(path) -> ComplexFile:
    """Read the file once, at most MAX_FILE_BYTES of it; hash and decode
    those same bytes."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise ParseError(f"file is over {MAX_FILE_BYTES} bytes; at most that many are allowed")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ParseError(f"not valid UTF-8 at byte {err.start}", line=line) from err
    return ComplexFile(_read_simplices(text), sha256(data).hexdigest())


def complex_to_text(complex_: SimplicialComplex) -> str:
    """Canonical text for a complex: the maximal simplices one per line
    in canonical order."""
    return "\n".join(" ".join(s) for s in complex_.maximal_simplices()) + "\n"


def write_complex_file(complex_: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(complex_to_text(complex_))
