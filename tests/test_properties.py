"""Hypothesis property tests (derandomized, no example database): the
file format round-trips, arbitrary file bytes never crash the CLI,
random thickenings certify their base surface with every step replayed
from scratch, and their traces refuse any one corrupted entry."""

from __future__ import annotations

import contextlib
import io
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

from helpers import randomized_thickening, replay_from_scratch


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
@given(complexes(), st.sampled_from([None, "S2", "T2", "RP2", "N3"]))
def test_text_round_trip(complex_, surface_name):
    if complex_ is None:
        return
    parsed = parse_complex_text(complex_to_text(complex_, surface_name))
    assert parsed.complex() == complex_
    assert parsed.surface_name == surface_name


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
