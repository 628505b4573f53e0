"""Command-line interface: exit codes, human and machine output, and
the documented error mapping."""

from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import covertype as ct
from covertype.cli import _COMMANDS, main
from covertype.fileformat import MAX_CLOSURE_FACES, MAX_FILE_BYTES

from helpers import attach_dunce_with_bridge, attach_flap, glue_tetrahedron, perfbench_inputs


@pytest.fixture()
def files(tmp_path):
    """Bundled complexes written out as real files."""
    paths = {}
    for name in ct.bundled_names():
        p = tmp_path / f"{name}.cplx"
        p.write_text(ct.bundled_text(name), encoding="utf-8")
        paths[name] = p
    # two disjoint spheres: a surface check that fails on connectivity
    text = ct.bundled_text("sphere_4")
    paths["two_spheres"] = tmp_path / "two_spheres.cplx"
    paths["two_spheres"].write_text(text + text.translate(str.maketrans("1234", "5678")))
    return paths


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine(out):
    pairs = [line.split(": ", 1) for line in out.splitlines()]
    return {k: v for k, v in pairs}


def test_homology_command(files, capsys):
    code, out, _ = run(capsys, "--machine", "homology", files["torus_7"])
    assert code == 0
    fields = machine(out)
    assert fields["command"] == "homology"
    assert fields["f_vector"] == "7 21 14"
    assert fields["chi"] == "0"
    assert fields["betti"] == "1 2 1"
    digest = hashlib.sha256(files["torus_7"].read_bytes()).hexdigest()
    assert fields["sha256"] == digest


def test_homology_human_output(files, capsys):
    code, out, _ = run(capsys, "homology", files["sphere_4"])
    assert code == 0
    assert "Euler characteristic: 2" in out
    assert "(1, 0, 1)" in out


def test_property_a_command(files, capsys):
    code, out, _ = run(capsys, "--machine", "property-a", files["genus2_10"])
    assert code == 0
    assert machine(out)["property_a"] == "true"

    code, out, _ = run(
        capsys, "--machine", "property-a", files["torus_wedge_circle_9"]
    )
    assert code == 1
    fields = machine(out)
    assert fields["property_a"] == "false"
    assert fields["witness"] == "1 8"
    assert fields["b1"] == "3"


def test_property_a_vacuous_point(tmp_path, capsys):
    p = tmp_path / "point.cplx"
    p.write_text("a\n", encoding="utf-8")
    code, out, _ = run(capsys, "--machine", "property-a", p)
    assert code == 0
    fields = machine(out)
    assert fields["property_a"] == "true"
    assert fields["b1"] == "0"


def test_surface_command_classifies(files, capsys):
    code, out, _ = run(capsys, "--machine", "surface", files["klein_bottle_8"])
    assert code == 0
    fields = machine(out)
    assert fields["verdict"] == "true"
    assert fields["class"] == "N_2"
    assert fields["orientable"] == "false"
    assert (fields["rho"], fields["delta"], fields["covering_type"]) == ("7", "8", "8")


def test_surface_command_negative(files, capsys):
    code, out, _ = run(capsys, "--machine", "surface", files["side_sphere_5"])
    assert code == 1
    fields = machine(out)
    assert fields["verdict"] == "false"
    assert fields["pure_two_dimensional"] == "false"
    assert "1 2 3 4" in fields["bad_maximal_simplices"]

    code, out, _ = run(capsys, "--machine", "surface", files["torus_wedge_circle_9"])
    assert code == 1
    assert "1 8 (0)" in machine(out)["bad_edges"]

    code, out, _ = run(capsys, "--machine", "surface", files["m2_homotopy_9"])
    assert code == 1
    assert machine(out)["verdict"] == "false"


def test_surface_command_n3(files, capsys):
    code, out, _ = run(
        capsys, "--machine", "surface", files["nonorientable_genus3_9"]
    )
    assert code == 0
    fields = machine(out)
    assert fields["class"] == "N_3"
    assert (fields["rho"], fields["delta"], fields["covering_type"]) == ("8", "9", "9")


def test_surface_command_checks_the_surface_once(files, capsys, monkeypatch):
    from covertype import surfaces

    links = []
    single = surfaces._link_is_single_circle
    monkeypatch.setattr(
        surfaces, "_link_is_single_circle", lambda *a: links.append(a[0]) or single(*a)
    )
    code, out, _ = run(capsys, "--machine", "surface", files["klein_bottle_8"])
    assert code == 0
    assert machine(out)["class"] == "N_2"
    assert len(links) == 8  # one link test per vertex: a single sweep


def test_reduce_command(files, tmp_path, capsys):
    out_path = tmp_path / "reduced.cplx"
    code, out, _ = run(
        capsys,
        "--machine",
        "reduce",
        files["side_sphere_5"],
        out_path,
        "--surface",
        "S2",
    )
    assert code == 0
    fields = machine(out)
    assert fields["surface"] == "S^2"
    assert fields["skeleton_f_vector"] == "5 9 7"
    assert fields["final_f_vector"] == "5 9 6"
    assert (fields["excisions"], fields["collapses"], fields["contractions"]) == (
        "1",
        "0",
        "0",
    )
    assert (fields["chi"], fields["rho"], fields["alpha0"]) == ("2", "4", "5")
    assert fields["property_a_final"] == "true"
    for key in ("triangles_cover_edges", "simple_graph_bound", "euler_vertex_bound"):
        assert fields[key] == "true"
    reduced = ct.parse_complex_file(out_path).complex()
    assert reduced.f_vector == (5, 9, 6)


def test_reduce_infers_the_surface(files, tmp_path, capsys):
    out_path = tmp_path / "r.cplx"
    code, out, _ = run(capsys, "--machine", "reduce", files["side_sphere_5"], out_path)
    assert code == 0
    assert machine(out)["surface"] == "S^2"

    # b1 odd pins the surface down as non-orientable
    code, out, _ = run(
        capsys, "--machine", "reduce", files["projective_plane_6"], out_path
    )
    assert code == 0
    assert machine(out)["surface"] == "RP^2"


@pytest.fixture(scope="module")
def flapped(tmp_path_factory):
    """The seed-1 surfaces with flaps and dunce hats on bridges (the
    reduce-collapse workload)."""
    return perfbench_inputs(tmp_path_factory, "flaps_and_dunce_hats")


@pytest.fixture(scope="module")
def glued(tmp_path_factory):
    """The seed-1 surfaces with a solid tetrahedron on every 4th triangle
    (the reduce-excise workload)."""
    return perfbench_inputs(tmp_path_factory, "glued_tetrahedra")


@pytest.mark.parametrize(
    "source, name, surface",
    [
        ("files", "torus_7", "T^2"),
        ("files", "klein_bottle_8", "N_2"),
        ("files", "genus2_10", "M_2"),
        ("flapped", "torus_7", "T^2"),
        ("flapped", "klein_bottle_8", "N_2"),
        ("flapped", "genus2_10", "M_2"),
        ("glued", "torus_7", "T^2"),
        ("glued", "genus2_10", "M_2"),
    ],
)
def test_reduce_infers_the_class_of_an_even_b1_from_cup_squares(
    source, name, surface, request, tmp_path, capsys
):
    """b1 = 2 or 4 fits an orientable and a non-orientable surface; the
    cup squares of the reduced complex pick one, and the run is the
    --surface run, which builds as many pairing tensors."""
    path = request.getfixturevalue(source)[name]
    out_path = tmp_path / "r.cplx"
    tensors = ct.cohomology.pairing_tensor.cache_info
    before = tensors().misses
    code, out, err = run(capsys, "--machine", "reduce", path, out_path)
    inferred = tensors().misses - before
    assert (code, err) == (0, "")
    assert machine(out)["surface"] == surface
    written = out_path.read_bytes()
    before = tensors().misses
    declared = run(capsys, "--machine", "reduce", path, out_path, "--surface", surface)
    assert declared == (code, out, err)
    assert out_path.read_bytes() == written
    assert inferred == tensors().misses - before


def test_reduce_refuses_homology_of_no_surface(tmp_path, capsys):
    circle = tmp_path / "circle.cplx"
    circle.write_text("a b\nb c\na c\n", encoding="utf-8")
    out_path = tmp_path / "r.cplx"
    code, out, err = run(capsys, "--machine", "reduce", circle, out_path)
    assert (code, out) == (2, "")
    assert err == "error: Betti numbers (1, 1) match no closed surface\n"
    assert not out_path.exists()


def test_reduce_reports_failing_stage(files, tmp_path, capsys):
    code, _, err = run(
        capsys,
        "reduce",
        files["torus_wedge_circle_9"],
        tmp_path / "r.cplx",
        "--surface",
        "N3",
    )
    assert code == 1
    assert err.startswith("error[contraction]:")

    code, _, err = run(
        capsys,
        "reduce",
        files["torus_7"],
        tmp_path / "r.cplx",
        "--surface",
        "S2",
    )
    assert code == 1
    assert err.startswith("error[homology-check]:")


@pytest.mark.parametrize(
    "name, declared, found",
    [("torus_7", "N2", "no nonzero cup square"), ("klein_bottle_8", "T2", "a nonzero cup square")],
)
def test_reduce_refuses_a_class_of_the_other_orientability(name, declared, found, files, tmp_path, capsys):
    out_path = tmp_path / "r.cplx"
    code, out, err = run(capsys, "--machine", "reduce", files[name], out_path, "--surface", declared)
    assert (code, out) == (1, "")
    assert err.startswith(f"error[certificate]: the final complex has {found}, which rules out")
    assert len(err.splitlines()) == 1
    assert not out_path.exists()


def test_reduce_rejects_surplus_homology(files, tmp_path, capsys):
    # two hollow spheres sharing a face: b2 = 2 and nothing to excise
    skeleton = ct.load_bundled("side_sphere_5").skeleton(2)
    p = tmp_path / "doubled.cplx"
    ct.write_complex_file(skeleton, p)
    code, _, err = run(capsys, "reduce", p, tmp_path / "r.cplx", "--surface", "S2")
    assert code == 1
    assert err.startswith("error[homology-check]:")


def test_construct_m2_command(files, tmp_path, capsys):
    out_path = tmp_path / "m2.cplx"
    code, out, _ = run(capsys, "--machine", "construct-m2", files["genus2_10"], out_path)
    assert code == 0
    fields = machine(out)
    assert fields["f_vector"] == "9 36 25"
    assert fields["betti"] == "1 4 1"
    assert fields["property_a"] == "true"
    assert fields["closed_surface"] == "false"
    built = ct.parse_complex_file(out_path).complex()
    assert built == ct.load_bundled("m2_homotopy_9")


def test_construct_m2_rejects_other_surfaces(files, tmp_path, capsys):
    code, _, err = run(
        capsys, "construct-m2", files["torus_7"], tmp_path / "m2.cplx"
    )
    assert code == 1
    assert "10-vertex" in err

    # a torus thickened to 10 vertices fails on the genus instead
    from helpers import subdivide_triangle

    k = ct.load_bundled("torus_7")
    for i in range(3):
        k = subdivide_triangle(k, k.simplices(2)[0], f"z{i}")
    ten = tmp_path / "torus10.cplx"
    ct.write_complex_file(k, ten)
    code, _, err = run(capsys, "construct-m2", ten, tmp_path / "m2.cplx")
    assert code == 1
    assert "genus-2" in err


def test_construct_m2_needs_the_degree_four_pair(tmp_path, capsys):
    from helpers import flip_edge

    flipped = tmp_path / "flipped.cplx"
    ct.write_complex_file(flip_edge(ct.load_bundled("genus2_10"), ("a", "b")), flipped)
    code, out, err = run(capsys, "construct-m2", flipped, tmp_path / "m2.cplx")
    assert (code, out) == (1, "")
    assert err == "error: no non-adjacent pair of degree-4 vertices with disjoint links\n"
    assert not (tmp_path / "m2.cplx").exists()


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "--machine", "bounds", "--surface", "M2")
    assert code == 0
    fields = machine(out)
    assert (fields["chi"], fields["rho"]) == ("-2", "9")
    assert (fields["delta"], fields["covering_type"]) == ("10", "9")

    code, out, _ = run(capsys, "--machine", "bounds", "--chi", "-4")
    assert code == 0
    fields = machine(out)
    assert fields["rho"] == "10"
    assert "delta" not in fields

    code, out, _ = run(capsys, "--machine", "bounds", "--chi", "2")
    assert code == 0
    assert machine(out)["rho"] == "4"


def test_bounds_usage_errors(capsys):
    code, _, _ = run(capsys, "bounds")
    assert code == 2
    code, _, _ = run(capsys, "bounds", "--chi", "0", "--surface", "T2")
    assert code == 2
    code, _, err = run(capsys, "bounds", "--chi", "3")
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "bounds", "--surface", "X9")
    assert code == 2


# one command line for each kind of usage error; "{out}" is never written
USAGE_ERRORS = {
    "no-command": (),
    "flags-only": ("--machine",),
    "unknown-command": ("frobnicate",),
    "missing-file": ("homology",),
    "missing-out": ("reduce", "torus_7"),
    "extra-argument": ("surface", "torus_7", "torus_7"),
    "unknown-option": ("homology", "torus_7", "--surface", "T2"),
    "flag-after-command": ("bounds", "--chi", "0", "--machine"),
    "abbreviated-flag": ("--mach", "bounds", "--chi", "0"),
    "abbreviated-option": ("reduce", "torus_7", "{out}", "--sur", "T2"),
    "no-value": ("reduce", "torus_7", "{out}", "--surface"),
    "option-as-value": ("bounds", "--surface", "--chi", "0"),
    "flag-with-value": ("--quiet=yes", "bounds", "--chi", "0"),
    "repeated-option": ("bounds", "--chi", "0", "--chi", "2"),
    "repeated-option-with-equals": ("reduce", "torus_7", "{out}", "--surface", "T2", "--surface=T2"),
    "both-bounds-options": ("bounds", "--chi", "0", "--surface", "T2"),
    "no-bounds-option": ("bounds",),
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_is_one_line(argv, files, tmp_path, capsys):
    code, out, err = run(capsys, *command_argv(argv, files, tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out.cplx").exists()


@pytest.mark.parametrize(
    "argv",
    [("bounds", "--chi"), ("bounds", "--chi", "--surface", "T2")],
    ids=["at-the-end", "before-another-option"],
)
def test_an_option_without_its_value_is_named(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: option --chi needs a value\n")


@pytest.mark.parametrize(
    "argv",
    [("homology", "--", "-t.cplx"), ("--", "homology", "-t.cplx")],
    ids=["after-command", "before-command"],
)
def test_double_dash_ends_the_options(argv, files, tmp_path, monkeypatch, capsys):
    """After `--` a word that starts with "-" is a command or a path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-t.cplx").write_bytes(files["torus_7"].read_bytes())
    code, out, err = run(capsys, "--machine", "homology", "-t.cplx")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown option '-t.cplx'")
    code, out, err = run(capsys, "--machine", *argv)
    assert (code, err) == (0, "")
    assert machine(out)["betti"] == "1 2 1"


@pytest.mark.parametrize(
    "argv", [("--help",), ("-h",), ("homology", "-h"), ("--machine", "bounds", "--chi", "0", "--help")]
)
def test_help_names_every_command(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: covertype")
    heads = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
    assert set(_COMMANDS) <= heads


@pytest.mark.parametrize(
    "chi",
    ["-\u0663", "-1_0", " -2", "-2 ", "", "+", "-" + "9" * 601, "9" * 5000, "x" * 5000],
    ids=[
        "arabic-indic",
        "underscore",
        "leading-space",
        "trailing-space",
        "empty",
        "sign-only",
        "too-many-digits",
        "beyond-int-limit",
        "long-word",
    ],
)
def test_chi_takes_only_ascii_digits(chi, capsys):
    code, out, err = run(capsys, "--machine", "bounds", "--chi", chi)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert len(err) < 200  # an over-long value is not repeated


def test_chi_sign_and_digit_limit(capsys):
    for argv, rho in ((("--chi", "+2"), "4"), (("--chi", "-0"), "7"), (("--chi=-4",), "10")):
        code, out, _ = run(capsys, "--machine", "bounds", *argv)
        assert code == 0
        assert machine(out)["rho"] == rho
    code, out, _ = run(capsys, "--machine", "bounds", "--chi", "-" + "9" * 600)
    assert code == 0
    assert int(machine(out)["chi"]) == -int("9" * 600)


def test_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(capsys, "homology", tmp_path / "absent.cplx")
    assert code == 2

    bad = tmp_path / "bad.cplx"
    bad.write_text("a b\nc c\n", encoding="utf-8")
    code, _, err = run(capsys, "homology", bad)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("homology",),
        ("property-a",),
        ("surface",),
        ("reduce", "{out}", "--surface", "S2"),
        ("construct-m2", "{out}"),
    ],
)
def test_non_utf8_file_is_a_parse_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.cplx"
    bad.write_bytes(b"a b c\n\xff\xfe d\n")
    command, *rest = argv
    rest = [a.replace("{out}", str(tmp_path / "out.cplx")) for a in rest]
    code, out, err = run(capsys, "--machine", command, bad, *rest)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2: not valid UTF-8")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out.cplx").exists()


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["lf", "cr"])
@pytest.mark.parametrize(
    "argv",
    [
        ("homology", "{bad}"),
        ("property-a", "{bad}"),
        ("surface", "{bad}"),
        ("reduce", "{bad}", "{out}", "--surface", "M2"),
        ("construct-m2", "{bad}", "{out}"),
        ("reduce", "{good}", "{bad}", "--surface", "M2"),
        ("construct-m2", "{good}", "{bad}"),
    ],
    ids=lambda argv: f"{argv[0]}-{'file' if argv[1] == '{bad}' else 'out'}",
)
def test_path_with_a_line_break_is_a_usage_error(argv, brk, files, tmp_path, capsys):
    # as a file, the path names a readable copy of the input: only the
    # line break in its name is wrong; as an out path, it is never written
    good = files["genus2_10"]
    bad = tmp_path / f"genus2{brk}10.cplx"
    out = tmp_path / "out.cplx"
    if argv[1] == "{bad}":
        bad.write_bytes(good.read_bytes())
    paths = {"{bad}": bad, "{good}": good, "{out}": out}
    for flags in (("--machine",), ("--quiet",)):
        code, stdout, err = run(capsys, *flags, *(paths.get(a, a) for a in argv))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()
        assert bad.exists() == (argv[1] == "{bad}")


def test_oversized_simplex_line_is_a_parse_error(tmp_path, capsys):
    # 40 labels would put 2^40 - 1 faces into the complex
    big = tmp_path / "big.cplx"
    big.write_text("a b c\n" + " ".join(f"v{i}" for i in range(40)) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "--machine", "homology", big)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2: simplex with 40 vertices")
    assert len(err.splitlines()) == 1


def test_oversized_closure_is_a_parse_error(tmp_path, capsys):
    # each line is within the cap, but two lines of 16 labels would
    # build 2 * (2^16 - 1) faces
    lines = [" ".join(f"v{j}_{i}" for i in range(16)) for j in range(2)]
    big = tmp_path / "big.cplx"
    big.write_text("\n".join(lines) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "--machine", "homology", big)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line 2: the simplices up to here bring over {MAX_CLOSURE_FACES}")
    assert len(err.splitlines()) == 1


def test_oversized_file_is_a_parse_error(tmp_path, capsys):
    """Comments and long labels bring no faces, so the byte cap is what
    bounds them: a file at the cap is read, one byte more is refused
    before it is decoded."""
    path = tmp_path / "big.cplx"
    head = b"1 2 3\n1 2 4\n1 3 4\n2 3 4\n"
    path.write_bytes(head + b"#" * (MAX_FILE_BYTES - len(head) - 1) + b"\n")
    code, out, _ = run(capsys, "--machine", "homology", path)
    assert code == 0
    assert machine(out)["betti"] == "1 0 1"
    path.write_bytes(head + b"#" * (MAX_FILE_BYTES - len(head)) + b"\n")
    code, out, err = run(capsys, "--machine", "homology", path)
    assert code == 2
    assert out == ""
    assert err == f"error: file is over {MAX_FILE_BYTES} bytes; at most that many are allowed\n"


def test_sha256_is_of_the_parsed_bytes(tmp_path, capsys):
    path = tmp_path / "crlf.cplx"
    data = b"# surface: S2\r\n1 2 3\r\n1 2 4\r\n1 3 4\r\n2 3 4\r\n"
    path.write_bytes(data)
    code, out, _ = run(capsys, "--machine", "homology", path)
    assert code == 0
    assert machine(out)["sha256"] == hashlib.sha256(data).hexdigest()


# one call of each command on the bundled data, success and failure
# paths; "{out}" is the file a command writes
COMMANDS = [
    (("homology", "torus_7"), 0),
    (("property-a", "genus2_10"), 0),
    (("property-a", "torus_wedge_circle_9"), 1),
    (("surface", "klein_bottle_8"), 0),
    (("surface", "side_sphere_5"), 1),
    (("surface", "torus_wedge_circle_9"), 1),
    (("surface", "m2_homotopy_9"), 1),
    (("surface", "two_spheres"), 1),
    (("reduce", "side_sphere_5", "{out}", "--surface", "S2"), 0),
    (("reduce", "projective_plane_6", "{out}"), 0),
    (("construct-m2", "genus2_10", "{out}"), 0),
    (("bounds", "--surface", "M2"), 0),
    (("bounds", "--chi", "-4"), 0),
]


def command_argv(argv, files, tmp_path):
    return [str(files.get(a, tmp_path / "out.cplx" if a == "{out}" else a)) for a in argv]


def test_quiet_suppresses_stdout(files, tmp_path, capsys):
    for argv, expected in COMMANDS:
        (tmp_path / "out.cplx").unlink(missing_ok=True)
        code, out, err = run(capsys, "--quiet", *command_argv(argv, files, tmp_path))
        assert (code, out, err) == (expected, "", "")
        assert (tmp_path / "out.cplx").exists() == ("{out}" in argv)


def test_human_lines_are_the_labelled_machine_fields(files, tmp_path, capsys):
    labels = {}
    for argv, expected in COMMANDS:
        argv = command_argv(argv, files, tmp_path)
        code, out, _ = run(capsys, "--machine", *argv)
        assert code == expected
        fields = [line.split(": ", 1) for line in out.splitlines()]
        assert len({key for key, _ in fields}) == len(fields)
        header = ["command", "input", "sha256"][: 1 if argv[0] == "bounds" else 3]
        assert [key for key, _ in fields[: len(header)]] == header
        assert fields[0][1] == argv[0]

        code, out, _ = run(capsys, *argv)
        assert code == expected
        lines = [line.split(": ", 1) for line in out.splitlines()]
        assert len(lines) == len(fields) - len(header)
        for (key, value), (label, shown) in zip(fields[len(header) :], lines):
            # one label per key, the same in every command
            assert labels.setdefault(key, label) == label
            if value in ("true", "false"):
                assert shown == {"true": "yes", "false": "no"}[value]
            else:  # a string as it is, or a tuple of ints in brackets
                assert shown in (value, f"({value.replace(' ', ', ')})")
    assert len(set(labels.values())) == len(labels)


@pytest.mark.parametrize(
    "name",
    ["M\u00b2", "N\u0663", "M" + "9" * 5000, "M" + "9" * 4300, "X" * 3000],
    ids=["superscript", "arabic-indic", "beyond-int-limit", "chi-beyond-int-limit", "long-word"],
)
@pytest.mark.parametrize(
    "argv", [("bounds",), ("reduce", "torus_7", "{out}")], ids=["bounds", "reduce"]
)
def test_bad_surface_name_is_a_usage_error(name, argv, files, tmp_path, capsys):
    code, out, err = run(capsys, *command_argv(argv, files, tmp_path), "--surface", name)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert len(err) < 200  # an over-long name is not repeated
    assert not (tmp_path / "out.cplx").exists()


def test_machine_output_is_deterministic(files, tmp_path, capsys):
    args = (
        "--machine",
        "reduce",
        files["side_sphere_5"],
        tmp_path / "r.cplx",
        "--surface",
        "S2",
    )
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_outputs_do_not_depend_on_the_hash_seed(files, tmp_path):
    """The package iterates sets, whose order follows the hash seed;
    what a run prints and writes must not.  The thickened torus makes
    an excision (a glued tetrahedron), collapses (a flap) and
    contractions (a dunce hat on a bridge edge)."""
    k = glue_tetrahedron(ct.load_bundled("torus_7"), ("1", "2", "4"), "x")
    k = attach_dunce_with_bridge(attach_flap(k, ("3", "5"), "y"), "6", "d")
    thick = tmp_path / "thick.cplx"
    ct.write_complex_file(k, thick)
    src = str(Path(ct.__file__).resolve().parents[1])
    runs = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        results = []
        for command, path, *rest in (
            ("reduce", thick, "--surface", "T2"),
            ("construct-m2", files["genus2_10"]),
        ):
            written = tmp_path / f"{command}-{seed}.cplx"
            proc = subprocess.run(
                [sys.executable, "-m", "covertype", "--machine", command, path, written, *rest],
                capture_output=True,
                text=True,
                env=env,
            )
            assert (proc.returncode, proc.stderr) == (0, "")
            lines = [x for x in proc.stdout.splitlines() if not x.startswith("output: ")]
            results.append((lines, written.read_bytes()))
        runs.append(results)
    assert runs[0] == runs[1]
    fields = machine("\n".join(runs[0][0][0]))
    assert all(int(fields[key]) > 0 for key in ("excisions", "collapses", "contractions"))


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "covertype", "--machine", "bounds", "--surface", "T2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "covering_type: 7" in proc.stdout


# runs in a `python -S` process: what importing the entry-point module
# prints, then what the function named on the [project.scripts] line
# prints for `bounds --chi 0`, then what an atexit handler registered
# before the call prints, and whether the heap was frozen by then; a
# line after the call would show that the function returned
SCRIPT_PROBE = """
import atexit, gc, importlib, sys
import covertype.__main__
print("imported, frozen:", gc.get_freeze_count() > 0)
module, function = sys.argv[1].split(":")
entry = getattr(importlib.import_module(module), function)
atexit.register(lambda: print("at exit, frozen:", gc.get_freeze_count() > 0))
sys.argv = ["covertype", "--machine", "bounds", "--chi", "0"]
code = entry()
print("returned:", code)
"""


def test_console_script_freezes_the_heap():
    """The installed `covertype` script runs the function that
    `python -m covertype` runs, which freezes the heap before the
    command and ends the process after it, running the atexit handlers
    first; importing its module alone runs nothing."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    # read as text: Python 3.10 has no tomllib
    lines = pyproject.read_text("utf-8").splitlines()
    script = lines[lines.index("[project.scripts]") + 1]
    name, _, target = script.partition(" = ")
    assert name == "covertype"
    src = Path(ct.__file__).resolve().parents[1]
    # stdout buffered: the entry point's flush writes the handler's line
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT_PROBE, target.strip('"')],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "imported, frozen: False",
        "command: bounds",
        "chi: 0",
        "rho: 7",
        "at exit, frozen: True",
    ]


# `python -m covertype` as runpy runs it, after an atexit handler has
# been registered
WRAPPER = """
import atexit, runpy
atexit.register(print, "atexit handler")
runpy.run_module("covertype", run_name="__main__")
"""


@pytest.mark.parametrize(
    "argv, expected",
    [(("bounds", "--chi", "0"), 0), (("property-a", "torus_wedge_circle_9"), 1), (("bounds",), 2)],
    ids=["answer", "failed-check", "usage-error"],
)
def test_entry_point_runs_atexit_handlers_after_the_output(argv, expected, files, tmp_path, capsys):
    """The entry point ends the process itself, with the command's exit
    code; an atexit handler registered before it runs once, after all
    of the command's output, with stdout a pipe or a file."""
    args = ["--machine", *(str(files.get(a, a)) for a in argv)]
    code, out, err = run(capsys, *args)
    assert code == expected
    # stdout buffered: the entry point's flush writes the handler's line
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for to_file in (False, True):
        with open(tmp_path / "stdout", "w+b") as sink:
            proc = subprocess.run(
                [sys.executable, "-c", WRAPPER, *args],
                stdout=sink if to_file else subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            sink.seek(0)
            stdout = sink.read() if to_file else proc.stdout
        assert (proc.returncode, stdout.decode(), proc.stderr.decode()) == (
            code,
            out + "atexit handler\n",
            err,
        )


# makes cli.main raise an exception that it does not catch
RAISE = """
from covertype import cli
def _parse(argv):
    raise RuntimeError("raised inside cli.main")
cli._parse = _parse
"""


def test_an_exception_out_of_main_ends_the_process_as_the_interpreter_does():
    """An exception that escapes cli.main is not caught by the entry
    point: a traceback, exit 1, and the atexit handlers still run."""
    proc = subprocess.run(
        [sys.executable, "-c", RAISE + WRAPPER, "bounds", "--chi", "0"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "atexit handler\n")
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.endswith("RuntimeError: raised inside cli.main\n")


# every command, a failed check, the usage text and a usage error
ENTRY_POINT_CASES = COMMANDS + [(("--help",), 0), (("bounds",), 2)]


@pytest.mark.parametrize(
    "argv, expected",
    ENTRY_POINT_CASES,
    ids=["-".join(a for a in argv if a != "{out}") for argv, _ in ENTRY_POINT_CASES],
)
def test_entry_point_matches_in_process_main(argv, expected, files, tmp_path, capsys):
    """`python -m covertype` freezes the heap around the command; what it
    prints, writes and exits with is what cli.main gives in-process,
    with stdout a pipe or a file.  cli.main itself never freezes."""
    argv = ["--machine", *command_argv(argv, files, tmp_path)]
    out_file = tmp_path / "out.cplx"
    frozen = gc.get_freeze_count()
    code, out, err = run(capsys, *argv)
    assert gc.get_freeze_count() == frozen
    assert code == expected
    written = out_file.read_bytes() if out_file.exists() else None
    for to_file in (False, True):
        out_file.unlink(missing_ok=True)
        with open(tmp_path / "stdout", "w+b") as sink:
            proc = subprocess.run(
                [sys.executable, "-m", "covertype", *argv],
                stdout=sink if to_file else subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            sink.seek(0)
            stdout = sink.read() if to_file else proc.stdout
        assert (proc.returncode, stdout.decode(), proc.stderr.decode()) == (code, out, err)
        assert (out_file.read_bytes() if out_file.exists() else None) == written


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, expected",
    [(("surface", "klein_bottle_8"), 0), (("property-a", "torus_wedge_circle_9"), 1), (("--help",), 0)],
    ids=["surface", "property-a", "help"],
)
def test_closed_stdout_is_not_an_error(argv, expected, buffered, files):
    """A reader that has closed its end before the command writes: the
    command's own exit code, and nothing on stderr."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "covertype", "--machine", *(str(files.get(a, a)) for a in argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (expected, b"")


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize(
    "argv, expected",
    [
        (("bounds",), 2),
        (("bounds", "--chi", "x"), 2),
        (("homology", "missing.cplx"), 2),
        (("reduce", "torus_7", "r.cplx", "--surface", "S2"), 1),
    ],
    ids=["usage", "bad-chi", "missing-file", "stage"],
)
def test_unwritable_stderr_keeps_the_exit_code(argv, expected, redirect, files, tmp_path):
    """An error line that cannot be printed: the documented exit code
    all the same, and nothing on stdout.  With fd 2 closed Python has
    no sys.stderr; opened for reading, every write to it fails."""
    args = [str(files.get(a, tmp_path / a if a.endswith(".cplx") else a)) for a in argv]
    proc = subprocess.run(
        ["sh", "-c", f'"$0" -m covertype "$@" {redirect}', sys.executable, *args],
        stdout=subprocess.PIPE,
    )
    assert (proc.returncode, proc.stdout) == (expected, b"")


@pytest.mark.parametrize(
    "argv, expected",
    [(("bounds", "--chi", "0"), 0), (("property-a", "torus_wedge_circle_9"), 1), (("--help",), 0)],
    ids=["bounds", "property-a", "help"],
)
def test_closed_fd1_keeps_the_exit_code(argv, expected, files):
    """With fd 1 closed Python has no sys.stdout: the command's own exit
    code all the same, as under --quiet, and nothing on stderr."""
    args = [str(files.get(a, a)) for a in argv]
    proc = subprocess.run(
        ["sh", "-c", '"$0" -m covertype --machine "$@" >&-', sys.executable, *args],
        stderr=subprocess.PIPE,
    )
    assert (proc.returncode, proc.stderr) == (expected, b"")
