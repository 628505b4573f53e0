"""The one-simplex-per-line text format: parsing, comments, error
positions, the size caps, write/read round trips, and the bundled
files' table."""

from __future__ import annotations

import hashlib
import random
import re
from pathlib import Path

import pytest

import covertype as ct
from covertype import fileformat
from covertype.fileformat import (
    MAX_CLOSURE_FACES,
    MAX_SIMPLEX_VERTICES,
    complex_to_text,
    parse_complex_file,
    parse_complex_text,
    write_complex_file,
)
from covertype.errors import ParseError
from oracles import surface_name_reference


def test_parse_basic():
    parsed = parse_complex_text("a b c\nb c d\n")
    assert parsed.maximal_simplices == (("a", "b", "c"), ("b", "c", "d"))
    assert parsed.complex().f_vector == (4, 5, 2)


def test_parse_comments_blanks_and_header():
    text = """\
# surface: T^2

a b c   # a facet
   b c d
# trailing remark
"""
    parsed = parse_complex_text(text)
    assert parsed.maximal_simplices == (("a", "b", "c"), ("b", "c", "d"))


def test_crlf_and_tabs_tolerated():
    parsed = parse_complex_text("a\tb\tc\r\nb c d\r\n")
    assert parsed.maximal_simplices == (("a", "b", "c"), ("b", "c", "d"))


@pytest.mark.parametrize("sep", ["\f", "\v", "\x85", "\u2028", "\u2029", "\x1c", "\r"])
def test_only_lf_ends_a_line(sep):
    # str.splitlines breaks at each of these; the format reads them as
    # whitespace within a line
    assert parse_complex_text(f"a b{sep}c\n").maximal_simplices == (("a", "b", "c"),)
    with pytest.raises(ParseError) as info:
        parse_complex_text(f"a b{sep}\nc a a\n")
    assert info.value.line == 2


def test_line_numbers_count_lf_like_the_utf8_error(tmp_path):
    path = tmp_path / "k.cplx"
    path.write_bytes(b"a b\x0c\nc d\r\ne e\n")
    with pytest.raises(ParseError) as info:
        parse_complex_file(path)
    assert info.value.line == 3
    path.write_bytes(b"a b\x0c\nc d\r\ne \xff\n")
    with pytest.raises(ParseError) as info:
        parse_complex_file(path)
    assert info.value.line == 3


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_complex_text("a b c\nx x\n")
    assert info.value.line == 2
    assert "line 2" in str(info.value)

    # labels are checked once each, but a duplicate is caught on every line
    with pytest.raises(ParseError) as info:
        parse_complex_text("a b c\nb c d\nc d d\n")
    assert info.value.line == 3
    assert "duplicate vertex 'd'" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_complex_text("a b\nb c\nc\x07 d\n")
    assert info.value.line == 3
    assert "invalid vertex label" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_complex_text("")
    assert info.value.line is None

    with pytest.raises(ParseError):
        parse_complex_text("# only comments\n\n")


def test_simplex_order_within_line_is_free():
    assert (
        parse_complex_text("c a b\n").complex()
        == parse_complex_text("a b c\n").complex()
    )


def test_complex_to_text_lists_maximal_simplices(side_sphere):
    text = complex_to_text(side_sphere)
    assert text == "1 2 3 4\n1 2 5\n1 3 5\n2 3 5\n"
    assert text.endswith("\n") and "\r" not in text


@pytest.mark.parametrize("name", ct.bundled_names())
def test_round_trip_bundled(name, tmp_path):
    k = ct.load_bundled(name)
    path = tmp_path / f"{name}.cplx"
    write_complex_file(k, path)
    assert parse_complex_file(path).complex() == k


def test_round_trip_preserves_lower_dimensional_maximal_faces(tmp_path):
    k = ct.build_complex([("a", "b", "c"), ("c", "d"), ("e",)])
    path = tmp_path / "mixed.cplx"
    write_complex_file(k, path)
    parsed = parse_complex_file(path)
    assert parsed.complex() == k


def test_bundled_names_and_missing():
    assert "torus_7" in ct.bundled_names()
    with pytest.raises(ct.NotFoundError):
        ct.bundled_text("no_such_complex")


@pytest.mark.parametrize(
    "text, message",
    [
        ("a b c\n", "bundled file corrupt does not triangulate a closed surface"),
        (
            ct.bundled_text("torus_7"),
            "bundled file corrupt declares S^2 but classifies as T^2",
        ),
    ],
    ids=["not-a-surface", "wrong-class"],
)
def test_a_bundled_file_is_checked_against_its_header(text, message, monkeypatch):
    """A data file that is not the surface its _FILES entry declares is
    refused on load; the file's own comments are not read."""
    monkeypatch.setitem(ct.bundled._FILES, "corrupt", "S^2")
    monkeypatch.setattr(ct.bundled, "bundled_text", lambda name: text)
    with pytest.raises(ct.InconsistencyError, match=f"^{re.escape(message)}$"):
        ct.load_bundled("corrupt")


def test_bundled_files_declare_their_surfaces():
    """Each _FILES entry names the class that the data file's
    '# surface:' comment names for its readers, and no comment where
    the entry is None; a declared file classifies as declared."""
    for name, declared in ct.bundled._FILES.items():
        assert surface_name_reference(ct.bundled_text(name)) == declared, name
        if declared is not None:
            complex_ = ct.load_bundled(name)
            assert ct.check_closed_surface(complex_).verdict, name
            assert ct.classify_surface(complex_) == ct.surface_from_name(declared), name


def test_file_carries_the_hash_of_its_bytes(tmp_path):
    data = "a b c\r\nb c d\n".encode("utf-8")
    path = tmp_path / "k.cplx"
    path.write_bytes(data)
    parsed = parse_complex_file(path)
    assert parsed.sha256 == hashlib.sha256(data).hexdigest()
    assert parsed.maximal_simplices == (("a", "b", "c"), ("b", "c", "d"))
    assert parse_complex_text(data.decode("utf-8")).sha256 is None


@pytest.mark.parametrize("name", ct.bundled_names())
def test_bundled_file_hash_matches_hashlib(name):
    path = Path(ct.bundled.__file__).parent / "data" / f"{name}.cplx"
    assert parse_complex_file(path).sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def test_builtin_sha256_matches_hashlib():
    rng = random.Random(20)
    # around the 55/56- and 64-byte block boundaries of the padding, then larger
    for size in [*range(130), 1000, 4095, 4096, 65537, 1 << 20]:
        data = rng.randbytes(size)
        assert fileformat.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest(), size


def test_non_utf8_bytes_are_a_parse_error(tmp_path):
    path = tmp_path / "bad.cplx"
    path.write_bytes(b"a b c\nb c d\n\xff\xfe d\n")
    with pytest.raises(ParseError) as info:
        parse_complex_file(path)
    assert info.value.line == 3


def test_simplex_lines_are_capped():
    labels = [f"v{i}" for i in range(MAX_SIMPLEX_VERTICES + 1)]
    at_cap = parse_complex_text(" ".join(labels[:-1]) + "\n")
    assert len(at_cap.maximal_simplices[0]) == MAX_SIMPLEX_VERTICES
    with pytest.raises(ParseError) as info:
        parse_complex_text("a b\n" + " ".join(labels) + "\n")
    assert info.value.line == 2


def test_closure_size_is_capped():
    # a 16-label line, then 1 face: exactly MAX_CLOSURE_FACES
    lines = [" ".join(f"v{i}" for i in range(16)), "a"]
    assert (1 << 16) - 1 + 1 == MAX_CLOSURE_FACES
    assert len(parse_complex_text("\n".join(lines)).maximal_simplices) == 2
    with pytest.raises(ParseError) as info:
        parse_complex_text("\n".join(lines + ["b"]))
    assert info.value.line == 3
