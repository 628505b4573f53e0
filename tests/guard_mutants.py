"""Guard-mutant gate: every listed guard is made to fire by its tests.

    python3 tests/guard_mutants.py

GUARDS lists each guard by its file under src/covertype, the function
(Class.method for a method) whose `if` holds it, the condition text,
and the tests that must kill it.  The script copies src/, tests/ and
pyproject.toml to a temporary directory and checks that the listed
tests pass there.  Then, one guard at a time, it rewrites the
condition to `False and (COND)` and runs only that guard's tests: at
least one must fail.  It exits 1 when a mutant survives or when a
listed condition is not found exactly once in its function.  A new
guard joins the list with the tests that make it fire.

The file name keeps pytest from collecting it; it needs only the
standard library and pytest.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file, function, condition, tests that must kill its mutant)
GUARDS = (
    # the declared surface class against the final complex's cup squares
    (
        "reduction.py",
        "reduce_to_certificate",
        "squares == surface.orientable",
        (
            "tests/test_reduction.py::test_certificate_refuses_a_class_the_cup_squares_rule_out",
            "tests/test_cli.py::test_reduce_refuses_a_class_of_the_other_orientability",
        ),
    ),
    # the record checks of a replay
    (
        "engine.py",
        "apply_move",
        "not fits(getattr(record, name))",
        ("tests/test_complexes.py::test_apply_move_refuses_a_record_whose_fields_no_move_makes",),
    ),
    (
        "engine.py",
        "apply_move",
        "complex_.f_vector != record.before_f",
        ("tests/test_complexes.py::test_apply_move_rejects_wrong_state",),
    ),
    (
        "engine.py",
        "apply_move",
        "record.kind not in _REPLAY",
        ("tests/test_complexes.py::test_apply_move_rejects_wrong_state",),
    ),
    (
        "engine.py",
        "apply_move",
        "len(record.simplices) != count",
        ("tests/test_complexes.py::test_apply_move_refuses_a_record_of_the_wrong_shape",),
    ),
    (
        "engine.py",
        "apply_move",
        "not all(record.simplices)",
        ("tests/test_complexes.py::test_apply_move_refuses_a_record_of_the_wrong_shape",),
    ),
    (
        "engine.py",
        "apply_move",
        "replayed != record",
        ("tests/test_complexes.py::test_apply_move_compares_the_whole_record",),
    ),
    (
        "engine.py",
        "WorkingComplex._glue",
        "len(s) > 1 and t in cofaces",
        ("tests/test_complexes.py::test_glue_refuses_to_merge_simplices",),
    ),
    (
        "homology.py",
        "h2_epi_witness",
        "t not in complex_",
        ("tests/test_homology.py::test_h2_epi_witness_refuses_a_subcomplex_outside_the_complex",),
    ),
    (
        "homology.py",
        "h2_epi_witness",
        "any(i not in inside for i in witness.support())",
        ("tests/test_homology.py::test_h2_epi_witness_refuses_a_witness_outside_the_subcomplex",),
    ),
    (
        "surfaces.py",
        "pinch_and_fill",
        "before != after",
        ("tests/test_surfaces.py::test_pinch_and_fill_checks_the_betti_numbers",),
    ),
    (
        "surfaces.py",
        "build_nine_vertex_m2",
        "not report.verdict",
        ("tests/test_surfaces.py::test_build_nine_vertex_m2_needs_a_closed_surface",),
    ),
    (
        "surfaces.py",
        "build_nine_vertex_m2",
        "len(pairs) > 1",
        ("tests/test_surfaces.py::test_build_nine_vertex_m2_needs_a_unique_pair",),
    ),
    (
        "surfaces.py",
        "build_nine_vertex_m2",
        "complexes.make_simplex((a, b)) not in triangulation",
        ("tests/test_surfaces.py::test_build_nine_vertex_m2_needs_a_complete_graph_on_the_others",),
    ),
    (
        "surfaces.py",
        "build_nine_vertex_m2",
        "len(result.vertices) != 9",
        ("tests/test_surfaces.py::test_build_nine_vertex_m2_checks_what_the_pinch_made",),
    ),
    (
        "surfaces.py",
        "build_nine_vertex_m2",
        "homology.betti_numbers(result) != (1, 4, 1)",
        ("tests/test_surfaces.py::test_build_nine_vertex_m2_checks_what_the_pinch_made",),
    ),
    # the shape guards of the GF(2) layer
    (
        "gf2.py",
        "Gf2Vector._check",
        "length < 0",
        ("tests/test_gf2.py::test_vector_validation",),
    ),
    (
        "gf2.py",
        "Gf2Vector._check",
        "bits < 0 or bits >> length != 0",
        ("tests/test_gf2.py::test_vector_validation",),
    ),
    (
        "gf2.py",
        "Gf2Vector.from_support",
        "not 0 <= i < length",
        ("tests/test_gf2.py::test_shape_errors_name_their_cause",),
    ),
    (
        "gf2.py",
        "Gf2Vector.__add__",
        "self.length != other.length",
        ("tests/test_gf2.py::test_vector_validation",),
    ),
    (
        "gf2.py",
        "Gf2Vector.__getitem__",
        "not 0 <= i < self.length",
        ("tests/test_gf2.py::test_vector_index_out_of_range",),
    ),
    (
        "gf2.py",
        "Gf2Matrix._check",
        "rows < 0 or cols < 0",
        ("tests/test_gf2.py::test_shape_errors_name_their_cause",),
    ),
    (
        "gf2.py",
        "Gf2Matrix._check",
        "len(row_bits) != rows",
        ("tests/test_value.py::test_constructors_check_their_fields",),
    ),
    (
        "gf2.py",
        "Gf2Matrix._check",
        "r < 0 or r >> cols != 0",
        ("tests/test_value.py::test_constructors_check_their_fields",),
    ),
    (
        "gf2.py",
        "Gf2Matrix.__matmul__",
        "other.length != self.cols",
        ("tests/test_gf2.py::test_matmul_vector",),
    ),
    (
        "gf2.py",
        "Gf2Matrix.__matmul__",
        "self.cols != other.rows",
        ("tests/test_gf2.py::test_shape_errors_name_their_cause",),
    ),
    (
        "gf2.py",
        "solve",
        "b.length != m.rows",
        ("tests/test_gf2.py::test_solve_rejects_wrong_length",),
    ),
    (
        "gf2.py",
        "subspace_intersection",
        "v.length != n",
        ("tests/test_gf2.py::test_shape_errors_name_their_cause",),
    ),
)


def _function(tree: ast.Module, qualname: str) -> ast.AST | None:
    scope: list[ast.stmt] = tree.body
    node = None
    for part in qualname.split("."):
        node = next(
            (
                n
                for n in scope
                if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part
            ),
            None,
        )
        if node is None:
            return None
        scope = node.body
    return node


def mutate(source: str, function: str, condition: str) -> str | None:
    """The source with the one `if` of the function whose condition
    reads `condition` rewritten to `if False and (condition)`, or None
    unless exactly one such `if` is there."""
    node = _function(ast.parse(source), function)
    if node is None:
        return None
    wanted = " ".join(condition.split())
    tests = [
        n.test
        for n in ast.walk(node)
        if isinstance(n, ast.If)
        and " ".join(ast.get_source_segment(source, n.test).split()) == wanted
    ]
    if len(tests) != 1:
        return None
    test = tests[0]
    lines = source.splitlines(keepends=True)
    end = lines[test.end_lineno - 1]
    lines[test.end_lineno - 1] = end[: test.end_col_offset] + ")" + end[test.end_col_offset :]
    start = lines[test.lineno - 1]
    lines[test.lineno - 1] = start[: test.col_offset] + "False and (" + start[test.col_offset :]
    return "".join(lines)


def run_tests(tree: Path, tests) -> int:
    return subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        every_test = sorted({t for *_, tests in GUARDS for t in tests})
        if run_tests(tree, every_test) != 0:
            print("the listed tests fail on the unchanged tree")
            return 1
        for file, function, condition, tests in GUARDS:
            path = tree / "src" / "covertype" / file
            original = path.read_text(encoding="utf-8")
            mutant = mutate(original, function, condition)
            where = f"{file} {function}: {condition}"
            if mutant is None:
                print(f"NOT FOUND  {where}")
                failures += 1
                continue
            path.write_text(mutant, encoding="utf-8")
            try:
                code = run_tests(tree, tests)
            finally:
                path.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test fails; any other code is no kill
            killed = code == 1
            print(f"{'killed' if killed else 'SURVIVED':10} {where}")
            failures += not killed
    print(f"{len(GUARDS) - failures} of {len(GUARDS)} guard mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
