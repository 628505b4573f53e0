"""Guard-mutant gate: every guard in src/covertype is listed, and each is
made to fire by its tests.

    python3 tests/guard_mutants.py

A guard is an `if` inside a function or method whose own body raises.
GUARDS lists each one by its file under src/covertype, the function
(Class.method for a method) whose `if` holds it, the condition text,
and the tests that must kill it.  The script first compares the list
with the guards it finds in the source: an unlisted guard, or a listed
one that is not found exactly once in its function, makes it exit 1,
so a new guard cannot land without the tests that make it fire.  Then
it copies src/, tests/ and pyproject.toml to a temporary directory and
checks that the listed tests pass there.  Then, one guard at a time,
it rewrites the condition to `False and (COND)` and runs only that
guard's tests: at least one must fail, else the mutant survived and
the script exits 1.

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
SOURCE = ROOT / "src" / "covertype"

# (file, function, condition, tests that must kill its mutant)
GUARDS = (
    # __init__.py
    (
        "__init__.py",
        "__getattr__",
        "name not in _HOME",
        ("tests/test_startup.py::test_unknown_names_are_attribute_errors",),
    ),
    # bounds.py
    (
        "bounds.py",
        "SurfaceClass._check",
        "self.genus < 0",
        ("tests/test_surfaces.py::test_surface_class_names_and_chi",),
    ),
    (
        "bounds.py",
        "SurfaceClass._check",
        "not self.orientable and self.genus == 0",
        ("tests/test_surfaces.py::test_surface_class_names_and_chi",),
    ),
    (
        "bounds.py",
        "surface_from_name",
        "len(digits) > MAX_GENUS_DIGITS",
        ("tests/test_cli.py::test_bad_surface_name_is_a_usage_error[bounds-beyond-int-limit]",),
    ),
    ("bounds.py", "rho", "chi > 2", ("tests/test_cli.py::test_bounds_usage_errors",)),
    # bundled.py
    (
        "bundled.py",
        "bundled_text",
        "name not in _FILES",
        ("tests/test_fileformat.py::test_bundled_names_and_missing",),
    ),
    (
        "bundled.py",
        "load_bundled",
        "not check_closed_surface(complex_).verdict",
        (
            "tests/test_fileformat.py::test_a_bundled_file_is_checked_against_its_header[not-a-surface]",
        ),
    ),
    (
        "bundled.py",
        "load_bundled",
        "found != declared",
        (
            "tests/test_fileformat.py::test_a_bundled_file_is_checked_against_its_header[wrong-class]",
        ),
    ),
    # cli.py
    (
        "cli.py",
        "_infer_surface",
        "not candidates",
        ("tests/test_cli.py::test_reduce_refuses_homology_of_no_surface",),
    ),
    (
        "cli.py",
        "_infer_surface",
        "len(candidates) > 1",
        ("tests/test_cli.py::test_reduce_refuses_ambiguous_homology",),
    ),
    (
        "cli.py",
        "_chi",
        "not (digits.isascii() and digits.isdigit() and len(digits) <= limit)",
        ("tests/test_cli.py::test_chi_takes_only_ascii_digits[arabic-indic]",),
    ),
    (
        "cli.py",
        "_parse",
        "word not in _COMMANDS",
        ("tests/test_cli.py::test_usage_error_is_one_line[unknown-command]",),
    ),
    (
        "cli.py",
        "_parse",
        "key not in options or flag and has_value",
        ("tests/test_cli.py::test_double_dash_ends_the_options[after-command]",),
    ),
    (
        "cli.py",
        "_parse",
        "key in given",
        ("tests/test_cli.py::test_usage_error_is_one_line[repeated-option]",),
    ),
    (
        "cli.py",
        "_parse",
        "value is None or _is_option(value)",
        ("tests/test_cli.py::test_an_option_without_its_value_is_named[at-the-end]",),
    ),
    (
        "cli.py",
        "_parse",
        "args.subcommand is None",
        ("tests/test_cli.py::test_usage_error_is_one_line[flags-only]",),
    ),
    (
        "cli.py",
        "_parse",
        "len(positional) != len(names) or one_of and len(given & options.keys()) != 1",
        ("tests/test_cli.py::test_bounds_usage_errors",),
    ),
    (
        "cli.py",
        "_parse",
        '"\\n" in path or "\\r" in path',
        ("tests/test_cli.py::test_path_with_a_line_break_is_a_usage_error[construct-m2-file-cr]",),
    ),
    # cohomology.py
    (
        "cohomology.py",
        "Cochain._check",
        "self.degree < 0",
        ("tests/test_cohomology.py::test_a_cochain_of_negative_degree_is_refused",),
    ),
    (
        "cohomology.py",
        "_check_degree_one",
        "cochain.degree != 1",
        ("tests/test_cohomology.py::test_cup_rejects_wrong_degree_or_complex",),
    ),
    (
        "cohomology.py",
        "_check_degree_one",
        "cochain.values.length != len(complex_.simplices(1))",
        ("tests/test_cohomology.py::test_cup_rejects_wrong_degree_or_complex",),
    ),
    (
        "cohomology.py",
        "cochain_support",
        "cochain.values.length != len(group)",
        ("tests/test_cohomology.py::test_cup_rejects_wrong_degree_or_complex",),
    ),
    # complexes.py
    (
        "complexes.py",
        "check_label",
        "not isinstance(label, str) or not label",
        ("tests/test_complexes.py::test_make_simplex_canonical_form",),
    ),
    (
        "complexes.py",
        "check_label",
        'not label.isprintable() or " " in label or "#" in label',
        ("tests/test_complexes.py::test_make_simplex_canonical_form",),
    ),
    (
        "complexes.py",
        "_sorted_simplex",
        "not vs",
        ("tests/test_complexes.py::test_make_simplex_canonical_form",),
    ),
    (
        "complexes.py",
        "_sorted_simplex",
        "a == b",
        ("tests/test_complexes.py::test_make_simplex_canonical_form",),
    ),
    (
        "complexes.py",
        "SimplicialComplex.skeleton",
        "n < 0",
        ("tests/test_complexes.py::test_skeleton",),
    ),
    (
        "complexes.py",
        "SimplicialComplex.vertex_degree",
        "(v,) not in self",
        ("tests/test_complexes.py::test_maximal_simplices_and_counts",),
    ),
    # engine.py
    (
        "engine.py",
        "WorkingComplex._glue",
        "len(s) > 1 and t in cofaces",
        ("tests/test_complexes.py::test_glue_refuses_to_merge_simplices",),
    ),
    (
        "engine.py",
        "WorkingComplex._excise",
        "edges or t not in aux or len(set(aux)) < len(aux) or not all(len(s) == 3 and s in self for s in aux)",
        ("tests/test_complexes.py::test_excision_refuses_a_triangle_already_gone",),
    ),
    (
        "engine.py",
        "WorkingComplex._excise",
        "len(t) != 3 or t not in self",
        ("tests/test_complexes.py::test_excision_refuses_a_triangle_already_gone",),
    ),
    (
        "engine.py",
        "WorkingComplex._excise",
        "self._cofaces[t]",
        ("tests/test_complexes.py::test_remove_two_simplex_preconditions",),
    ),
    (
        "engine.py",
        "WorkingComplex._collapse",
        "f not in self",
        ("tests/test_complexes.py::test_collapse_free_face",),
    ),
    (
        "engine.py",
        "WorkingComplex._collapse",
        "not self._is_free(f)",
        ("tests/test_complexes.py::test_collapse_free_face",),
    ),
    (
        "engine.py",
        "WorkingComplex._collapse",
        "coface not in self or self._cofaces[coface] or f not in facets or not all(g in self for g in facets)",
        (
            "tests/test_complexes.py::test_collapse_refuses_a_coface_that_is_no_witness[corrupt_coface_gone]",
        ),
    ),
    (
        "engine.py",
        "WorkingComplex._contract",
        "len(e) != 2 or e not in self",
        ("tests/test_complexes.py::test_contract_edge_requires_maximal",),
    ),
    (
        "engine.py",
        "WorkingComplex._contract",
        "self._cofaces[e]",
        ("tests/test_complexes.py::test_contract_edge_requires_maximal",),
    ),
    (
        "engine.py",
        "WorkingComplex._contract",
        "v != keep and drop in neighbours",
        ("tests/test_complexes.py::test_contract_edge_detects_essential_circle",),
    ),
    (
        "engine.py",
        "WorkingComplex._identify",
        "(x,) not in self",
        ("tests/test_complexes.py::test_identify_vertices_preconditions",),
    ),
    (
        "engine.py",
        "WorkingComplex._identify",
        "va == vb",
        ("tests/test_complexes.py::test_identify_vertices_preconditions",),
    ),
    (
        "engine.py",
        "WorkingComplex._identify",
        "self.dim > 2",
        ("tests/test_complexes.py::test_identify_vertices_preconditions",),
    ),
    (
        "engine.py",
        "WorkingComplex._identify",
        "make_simplex((va, vb)) in self",
        ("tests/test_complexes.py::test_identify_vertices_preconditions",),
    ),
    (
        "engine.py",
        "WorkingComplex._identify",
        "shared",
        ("tests/test_complexes.py::test_identify_vertices_preconditions",),
    ),
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
    # fileformat.py
    (
        "fileformat.py",
        "parse_complex_text",
        "len(tokens) > MAX_SIMPLEX_VERTICES",
        ("tests/test_cli.py::test_oversized_simplex_line_is_a_parse_error",),
    ),
    (
        "fileformat.py",
        "parse_complex_text",
        "faces > MAX_CLOSURE_FACES",
        ("tests/test_fileformat.py::test_closure_size_is_capped",),
    ),
    (
        "fileformat.py",
        "parse_complex_text",
        "t in seen",
        ('tests/test_fileformat.py::test_only_lf_ends_a_line[\\r]',),
    ),
    (
        "fileformat.py",
        "parse_complex_text",
        "not simplices",
        ("tests/test_fileformat.py::test_parse_errors_carry_line_numbers",),
    ),
    # gf2.py
    ("gf2.py", "Gf2Vector._check", "length < 0", ("tests/test_gf2.py::test_vector_validation",)),
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
    # homology.py
    (
        "homology.py",
        "ChainData.__init__",
        "boundary",
        ("tests/test_homology.py::test_boundary_of_boundary_guard_fires",),
    ),
    (
        "homology.py",
        "chain_vector",
        "len(s) != n + 1",
        ("tests/test_homology.py::test_chain_vector_roundtrip",),
    ),
    (
        "homology.py",
        "chain_vector",
        "not 0 <= n < len(data.index) or s not in data.index[n]",
        ("tests/test_homology.py::test_chain_vector_roundtrip",),
    ),
    (
        "homology.py",
        "chain_from_vector",
        "vec.length != data.count(n)",
        ("tests/test_homology.py::test_chain_vector_roundtrip",),
    ),
    (
        "homology.py",
        "surplus_cycle",
        "len(t) != 3 or t not in complex_",
        ("tests/test_homology.py::test_surplus_cycle_none_without_threes",),
    ),
    (
        "homology.py",
        "h2_epi_witness",
        "not (data.boundary_matrix(2) @ z).is_zero()",
        ("tests/test_homology.py::test_h2_epi_witness_failure_cases",),
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
    # reduction.py
    (
        "reduction.py",
        "_betti_after",
        "not move.aux",
        ("tests/test_reduction.py::test_seam_refuses_an_excision_without_its_cycle",),
    ),
    (
        "reduction.py",
        "_betti_after",
        "move.kind not in (COLLAPSE, CONTRACTION)",
        ("tests/test_reduction.py::test_seam_refuses_an_identification_in_a_reduction_trace",),
    ),
    (
        "reduction.py",
        "_betti_after",
        "any(betti[len(move.after_f) :])",
        (
            "tests/test_reduction.py::test_seam_refuses_a_collapse_that_drops_a_dimension_with_homology",
        ),
    ),
    (
        "reduction.py",
        "ReductionTrace._check",
        "len(self.betti_steps) != len(self.moves) + 1",
        (
            "tests/test_reduction.py::test_trace_needs_one_betti_entry_per_move_plus_the_initial_one",
        ),
    ),
    (
        "reduction.py",
        "ReductionTrace._check",
        "ends != starts",
        (
            "tests/test_reduction.py::test_seam_refuses_a_trace_that_ends_elsewhere_than_its_last_move",
        ),
    ),
    (
        "reduction.py",
        "ReductionTrace._check",
        "_betti_after(move, before) != after",
        ("tests/test_reduction.py::test_seam_refuses_a_collapse_that_changes_b1",),
    ),
    (
        "reduction.py",
        "_Run.snapshot",
        "actual != self.betti",
        ("tests/test_reduction.py::test_seam_refuses_tracked_betti_numbers_that_differ",),
    ),
    (
        "reduction.py",
        "eliminate_maximal_edges",
        "run.work.smallest_free_face() is not None",
        ("tests/test_reduction.py::test_eliminate_maximal_edges_requires_collapsed_input",),
    ),
    (
        "reduction.py",
        "eliminate_maximal_edges",
        "len(run.betti) > 2 and run.betti[2] >= 1 and not has_property_A(complex_)",
        ("tests/test_reduction.py::test_eliminate_maximal_edges_gate",),
    ),
    (
        "reduction.py",
        "excise_to_surface_homology",
        "len(ambient_betti) < 3 or ambient_betti[2] != 1",
        ("tests/test_reduction.py::test_excision_requires_b2_equal_one",),
    ),
    (
        "reduction.py",
        "excise_to_surface_homology",
        "surplus_cycle(complex_, triangles) != (first, first[0])",
        ("tests/test_reduction.py::test_excision_refuses_a_surplus_cycle_search_that_disagrees",),
    ),
    (
        "reduction.py",
        "excise_to_surface_homology",
        "h2_epi_witness(complex_, current, generator) is None",
        (
            "tests/test_reduction.py::test_excision_refuses_a_skeleton_without_the_ambient_h2_generator",
        ),
    ),
    (
        "reduction.py",
        "BoundCertificate._check",
        "a0 - a1 + a2 != self.chi",
        ("tests/test_reduction.py::test_certificate_validation",),
    ),
    (
        "reduction.py",
        "BoundCertificate._check",
        "self.rho != rho(self.chi)",
        ("tests/test_reduction.py::test_certificate_validation",),
    ),
    (
        "reduction.py",
        "BoundCertificate._check",
        "not ok",
        ("tests/test_reduction.py::test_certificate_validation",),
    ),
    (
        "reduction.py",
        "BoundCertificate._check",
        "a0 < self.rho",
        ("tests/test_reduction.py::test_certificate_validation",),
    ),
    (
        "reduction.py",
        "_certify",
        "any(len(s) != 3 for s in final.maximal_simplices())",
        (
            "tests/test_reduction.py::test_certify_refuses_a_final_complex_that_breaks_a_rule[not-pure]",
        ),
    ),
    (
        "reduction.py",
        "_certify",
        "final.free_faces()",
        (
            "tests/test_reduction.py::test_certify_refuses_a_final_complex_that_breaks_a_rule[free-faces]",
        ),
    ),
    (
        "reduction.py",
        "_certify",
        "not property_a",
        (
            "tests/test_reduction.py::test_certify_refuses_a_final_complex_that_breaks_a_rule[no-property-a]",
        ),
    ),
    (
        "reduction.py",
        "_certify",
        "squares == surface.orientable",
        (
            "tests/test_reduction.py::test_certificate_refuses_a_class_the_cup_squares_rule_out[klein_bottle_8-declared1-the final complex has a nonzero cup square, which rules out the orientable T^2]",
        ),
    ),
    (
        "reduction.py",
        "_certify",
        "final.f_vector[0] > vertices",
        (
            "tests/test_reduction.py::test_certify_refuses_a_final_complex_that_breaks_a_rule[more-vertices]",
        ),
    ),
    (
        "reduction.py",
        "reduce_to_certificate",
        "surface not in surfaces_with_betti(actual)",
        ("tests/test_reduction.py::test_stage_error_names_the_failing_stage",),
    ),
    # surfaces.py
    (
        "surfaces.py",
        "orientable",
        "not check_closed_surface(complex_).verdict",
        ("tests/test_surfaces.py::test_orientable_requires_a_closed_surface",),
    ),
    (
        "surfaces.py",
        "classify_surface",
        "not check_closed_surface(complex_).verdict",
        ("tests/test_surfaces.py::test_check_rejects_pinched_sphere",),
    ),
    (
        "surfaces.py",
        "classify_surface",
        "chi > 2 or chi % 2 != 0",
        (
            "tests/test_surfaces.py::test_classify_refuses_a_chi_that_contradicts_orientability[projective_plane_6-no orientable closed surface has chi = 1]",
        ),
    ),
    (
        "surfaces.py",
        "classify_surface",
        "chi > 1",
        (
            "tests/test_surfaces.py::test_classify_refuses_a_chi_that_contradicts_orientability[sphere_4-no non-orientable closed surface has chi = 2]",
        ),
    ),
    (
        "surfaces.py",
        "pinch_and_fill",
        "complexes.make_simplex((label, anchor)) not in complex_",
        ("tests/test_surfaces.py::test_pinch_and_fill_preconditions",),
    ),
    (
        "surfaces.py",
        "pinch_and_fill",
        "complexes.make_simplex((w, w2)) not in complex_",
        ("tests/test_surfaces.py::test_pinch_and_fill_preconditions",),
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
        "len(triangulation.vertices) != 10",
        ("tests/test_cli.py::test_construct_m2_rejects_other_surfaces",),
    ),
    (
        "surfaces.py",
        "build_nine_vertex_m2",
        "classify_surface(triangulation) != SurfaceClass(True, 2)",
        ("tests/test_cli.py::test_construct_m2_rejects_other_surfaces",),
    ),
    (
        "surfaces.py",
        "build_nine_vertex_m2",
        "not pairs",
        ("tests/test_surfaces.py::test_build_nine_vertex_m2_needs_the_degree_four_pair",),
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
    (
        "surfaces.py",
        "build_nine_vertex_m2",
        "not cohomology.has_property_A(result)",
        ("tests/test_startup.py::test_each_command_runs_only_the_layers_it_uses[construct-m2]",),
    ),
    # value.py
    (
        "value.py",
        "Value.__init__",
        "len(args) > len(fields)",
        ("tests/test_value.py::test_arguments_bind_as_in_a_call[BoundCertificate]",),
    ),
    (
        "value.py",
        "Value.__init__",
        "name not in fields",
        ("tests/test_value.py::test_arguments_bind_as_in_a_call[BoundCertificate]",),
    ),
    (
        "value.py",
        "Value.__init__",
        "name in values",
        ("tests/test_value.py::test_arguments_bind_as_in_a_call[BoundCertificate]",),
    ),
    (
        "value.py",
        "Value.__init__",
        "len(values) < len(fields)",
        ("tests/test_value.py::test_arguments_bind_as_in_a_call[BoundCertificate]",),
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


def _condition(source: str, test: ast.expr) -> str:
    return " ".join(ast.get_source_segment(source, test).split())


def guards_in(source: str) -> list[tuple[str, str]]:
    """(function, condition) of each `if` in a function of the source
    whose own body raises, in source order."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (
                scope
                and isinstance(child, ast.If)
                and any(isinstance(s, ast.Raise) for s in child.body)
            ):
                found.append((scope, _condition(source, child.test)))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def unlisted() -> list[str]:
    """Each guard in the source that GUARDS does not list, and each
    listed guard that is not in the source."""
    listed = {
        (file, function, " ".join(condition.split())) for file, function, condition, _ in GUARDS
    }
    found = {
        (path.name, function, condition)
        for path in SOURCE.glob("*.py")
        for function, condition in guards_in(path.read_text(encoding="utf-8"))
    }
    return [f"UNLISTED   {f} {fn}: {c}" for f, fn, c in sorted(found - listed)] + [
        f"NOT FOUND  {f} {fn}: {c}" for f, fn, c in sorted(listed - found)
    ]


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
        if isinstance(n, ast.If) and _condition(source, n.test) == wanted
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
    missing = unlisted()
    if missing:
        print("\n".join(missing))
        print(f"{len(missing)} guards differ between GUARDS and the source")
        return 1
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
