"""Hypothesis property tests (derandomized, no example database): the
file format round-trips, its comments (a '# surface:' line among
them) leave the simplices as they are, arbitrary file bytes never crash
the CLI, property A is the brute-force oracle's on random complexes and
their wedges with a sphere, a torus or both, random thickenings certify
their base surface with every step replayed from scratch, and their
traces refuse any one corrupted entry."""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import covertype as ct
from covertype.cli import main
from covertype.engine import MoveRecord
from covertype.errors import InconsistencyError, MalformedInputError
from covertype.fileformat import complex_to_text, parse_complex_text
from covertype.reduction import ReductionTrace

from helpers import random_small_complex, randomized_thickening, replay_from_scratch, wedge
from oracles import is_degenerate_class_reference, property_a_reference


def derandomized(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


# plain labels, and any text, so that labels the format cannot carry
# (whitespace, '#', control characters) are tried as well
labels = st.one_of(
    st.sampled_from(["a", "b", "c", "d", "e", "10", "2", "x#y", "x y"]),
    st.text(min_size=1, max_size=4),
)


@st.composite
def complexes(draw):
    """A complex on up to 8 labels with up to 8 maximal simplices of
    dimension at most 3, or None when a drawn label is invalid."""
    pool = draw(st.lists(labels, min_size=1, max_size=8, unique=True))
    faces = draw(
        st.lists(
            st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=8,
        )
    )
    try:
        return ct.build_complex(faces)
    except MalformedInputError:
        return None


@derandomized(80)
@given(complexes())
def test_text_round_trip(complex_):
    if complex_ is None:
        return
    assert parse_complex_text(complex_to_text(complex_)).complex() == complex_


# every character str.isspace counts (the highest is U+3000) but LF,
# which ends a line; U+200B and U+FEFF look like space but are not
SPACES = [c for c in map(chr, range(0x3001)) if c.isspace() and c != "\n"]
comment_pieces = st.sampled_from(
    ["#", "surface", "surface:", "surface :", "Surface:", ":", "T2", "M2", "x#y", "\u200b", "\ufeff"]
    + SPACES
)
simplex_parts = st.sampled_from(["", "a b", "a b c", " b\tc "])
comments = st.lists(comment_pieces, max_size=8).map("".join)


@derandomized(300)
@given(st.lists(st.tuples(simplex_parts, st.none() | comments), min_size=1, max_size=4))
def test_comments_leave_the_simplices_as_they_are(lines):
    """Text with comment lines, a '# surface:' header among them, and
    comments after simplices parses to the same maximal simplices as
    the text without them, on comments with every kind of Unicode
    whitespace."""
    text = "\n".join(part if comment is None else f"{part}#{comment}" for part, comment in lines)
    bare = "\n".join(part for part, _ in lines)
    assert (
        parse_complex_text(text + "\na b c\n").maximal_simplices
        == parse_complex_text(bare + "\na b c\n").maximal_simplices
    )


def _lines(tokens):
    return st.lists(
        st.lists(tokens, max_size=6).map(" ".join), min_size=1, max_size=8
    ).map("\n".join)


plain = st.sampled_from(["a", "b", "c", "d", "e", "f", "1", "2", "#", "# surface: T2", ""])
file_bytes = st.one_of(
    st.binary(max_size=120),
    _lines(plain).map(lambda text: text.encode("utf-8")),
    _lines(st.one_of(plain, st.text(max_size=3))).map(lambda text: text.encode("utf-8")),
    _lines(plain).map(lambda text: text.encode("utf-16")),
)
commands = st.sampled_from(
    [
        ["homology"],
        ["property-a"],
        ["surface"],
        ["reduce", "{out}"],
        ["reduce", "{out}", "--surface", "S2"],
        ["construct-m2", "{out}"],
    ]
)


@derandomized(150)
@given(file_bytes, commands, st.booleans())
def test_fuzzed_files_never_crash_the_cli(data, command, machine):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "in.cplx"
        path.write_bytes(data)
        name, *rest = command
        argv = (["--machine"] if machine else []) + [name, str(path)]
        argv += [a.replace("{out}", str(Path(work) / "out.cplx")) for a in rest]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error"))


@derandomized(1000)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([(), ("sphere_4",), ("torus_7",), ("sphere_4", "torus_7")]),
)
def test_property_a_is_the_brute_force_verdict(seed, summands):
    """has_property_A, the property-a command and a check of all 2^b1 - 1
    nonzero classes agree, and the witness is a degenerate class.  The
    random complexes alone rarely have b2 >= 2; their wedges with a
    sphere, a torus or both have wider pairing matrices."""
    k = random_small_complex(random.Random(seed))
    for i, name in enumerate(summands):
        k = wedge(k, ct.load_bundled(name), f"w{i}")
    verdict = property_a_reference(k)
    assert ct.has_property_A(k) is verdict
    witness = ct.property_a_witness(k)
    assert (witness is None) is verdict
    if witness is not None:
        assert is_degenerate_class_reference(k, witness)
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "in.cplx"
        path.write_text(complex_to_text(k), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--machine", "property-a", str(path)])
    assert (code, err.getvalue()) == (0 if verdict else 1, "")
    assert f"property_a: {str(verdict).lower()}\n" in out.getvalue()


@derandomized(25)
@given(st.integers(min_value=50, max_value=10**6))
def test_random_thickenings_certify_their_surface(seed):
    k, surface, log = randomized_thickening(seed)
    final, trace, certificate = ct.reduce_to_certificate(k, surface)
    assert certificate.chi == surface.chi, log
    assert certificate.rho == ct.rho(surface.chi)
    assert certificate.f_vector[0] >= certificate.rho
    assert trace.property_a_final
    assert replay_from_scratch(k, trace) == final


def _bumped(entries, i):
    return entries[:i] + (entries[i] + 1,) + entries[i + 1 :]


@derandomized(25)
@given(st.integers(min_value=50, max_value=10**6), st.data())
def test_random_thickening_traces_refuse_one_corrupted_entry(seed, data):
    """Rebuild the pipeline's trace with one f-vector or Betti entry
    raised by one: the trace's own seam checks refuse it.  A Betti entry
    is drawn only when there are moves to check it against."""
    k, surface, log = randomized_thickening(seed)
    _, trace, _ = ct.reduce_to_certificate(k, surface)
    fields = {name: getattr(trace, name) for name in ReductionTrace._fields}
    assert ReductionTrace(**fields) == trace
    moves, steps = trace.moves, trace.betti_steps
    where = [("initial_f", None), ("final_f", None)]
    where += [(side, i) for i in range(len(moves)) for side in ("before_f", "after_f")]
    where += [("betti_steps", j) for j in range(len(steps)) if moves]
    name, at = data.draw(st.sampled_from(where), label="field")
    if name in ("initial_f", "final_f"):
        f = fields[name]
        fields[name] = _bumped(f, data.draw(st.integers(0, len(f) - 1), label="entry"))
    elif name == "betti_steps":
        b = steps[at]
        bumped = _bumped(b, data.draw(st.integers(0, len(b) - 1), label="entry"))
        fields[name] = steps[:at] + (bumped,) + steps[at + 1 :]
    else:
        move = moves[at]
        f = getattr(move, name)
        f = _bumped(f, data.draw(st.integers(0, len(f) - 1), label="entry"))
        corrupt = {n: getattr(move, n) for n in MoveRecord._fields} | {name: f}
        fields["moves"] = moves[:at] + (MoveRecord(**corrupt),) + moves[at + 1 :]
    with pytest.raises(InconsistencyError):
        ReductionTrace(**fields)
