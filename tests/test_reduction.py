"""The reduction pipeline: collapses, maximal-edge contractions,
surplus-cycle excision, and the certified vertex lower bound."""

from __future__ import annotations

import pytest

import covertype as ct
from covertype import reduction
from covertype.engine import COLLAPSE, CONTRACTION, EXCISION, MoveRecord, WorkingComplex, apply_move
from covertype.reduction import (
    BoundCertificate,
    ReductionTrace,
    _certify,
    _concat_traces,
    collapse_all,
    eliminate_maximal_edges,
    excise_to_surface_homology,
    reduce_to_certificate,
)
from covertype.surfaces import SurfaceClass
from covertype.errors import (
    InconsistencyError,
    PreconditionError,
    PropertyAViolationError,
    StageError,
)

from helpers import (
    SURFACE_FILES,
    attach_dunce_with_bridge,
    attach_flap,
    barycentric_subdivision,
    dunce_hat,
    glue_tetrahedron,
    randomized_thickening,
)
from oracles import excise_reference


def test_collapse_all_solid_tetrahedron():
    solid = ct.build_complex([("a", "b", "c", "d")])
    final, trace = collapse_all(solid)
    assert final.f_vector == (1,)
    assert all(m.kind == COLLAPSE for m in trace.moves)
    assert trace.initial_f == (4, 6, 4, 1)
    assert trace.final_f == (1,)
    assert all(b == (1,) or b == (1, 0) or b == (1, 0, 0) or b == (1, 0, 0, 0)
               for b in trace.betti_steps)
    assert trace.property_a_final


def test_collapse_all_removes_flap(torus):
    flapped = attach_flap(torus, ("1", "2"), "z")
    final, trace = collapse_all(flapped)
    assert final == torus
    assert trace.move_counts() == {COLLAPSE: 2}
    assert trace.betti_steps == ((1, 2, 1),) * 3


def test_collapse_all_fixes_collapse_free_complexes(torus):
    final, trace = collapse_all(torus)
    assert final == torus
    assert trace.moves == ()
    hat = dunce_hat()  # contractible but has no free faces
    final, trace = collapse_all(hat)
    assert final == hat


def test_eliminate_maximal_edges_contracts_bridge(torus):
    bridged = attach_dunce_with_bridge(torus, "1", "d_")
    assert bridged.free_faces() == ()
    final, trace = eliminate_maximal_edges(bridged)
    assert trace.move_counts()[CONTRACTION] == 1
    assert all(b == (1, 2, 1) for b in trace.betti_steps)
    assert trace.property_a_final
    # the bridge is gone but the hat still hangs off the merged vertex
    assert len(final.vertices) == len(bridged.vertices) - 1
    assert final.maximal_simplices() == tuple(
        s for s in final.simplices(2)
    )


def test_eliminate_maximal_edges_requires_collapsed_input(torus):
    flapped = attach_flap(torus, ("1", "2"), "z")
    with pytest.raises(PreconditionError):
        eliminate_maximal_edges(flapped)


def test_eliminate_maximal_edges_gate(torus_wedge_circle):
    # b2 = 1 and the wedge circle kills cup-product regularity, so the
    # contraction stage refuses to start
    with pytest.raises(PreconditionError, match="regularity"):
        eliminate_maximal_edges(torus_wedge_circle)


def test_eliminate_detects_essential_circle():
    # a graph cycle with a chord: no free faces, b2 = 0 so no gate,
    # but contracting any edge would crush an essential circle
    theta = ct.build_complex(
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")]
    )
    assert theta.free_faces() == ()
    with pytest.raises(PropertyAViolationError):
        eliminate_maximal_edges(theta)


def test_excision_worked_example(side_sphere):
    final, trace = excise_to_surface_homology(side_sphere)
    assert trace.initial_f == (5, 9, 7)
    assert final.f_vector == (5, 9, 6)
    assert trace.move_counts() == {EXCISION: 1}
    move = trace.moves[0]
    assert move.simplices == (("1", "2", "3"),)
    # the recorded evidence is the 2-cycle the excision killed
    assert move.aux == (
        ("1", "2", "3"),
        ("1", "2", "4"),
        ("1", "3", "4"),
        ("2", "3", "4"),
    )
    assert trace.betti_steps == ((1, 0, 2), (1, 0, 1))
    assert ("1", "2", "3") not in final


def test_excision_cycles_replay_as_evidence(torus):
    """Each cycle the excision stage records is evidence the engine
    accepts again: on a working complex, where the move matches its
    rebuilding reference, and through apply_move on frozen complexes.
    The same cycle one triangle short is refused."""
    k = glue_tetrahedron(torus, ("1", "2", "4"), "x")
    k = glue_tetrahedron(k, ("3", "5", "6"), "y")
    final, trace = excise_to_surface_homology(k)
    assert trace.move_counts() == {EXCISION: 2}
    work, frozen = WorkingComplex(k.skeleton(2)), k.skeleton(2)
    for move in trace.moves:
        assert len(move.aux) >= 4 and move.aux[0] == move.simplices[0]
        short = MoveRecord(move.kind, move.simplices, move.before_f, move.after_f, move.aux[:-1])
        with pytest.raises(InconsistencyError, match="is not a 2-cycle on the current triangles"):
            apply_move(frozen, short)
        assert ct.remove_two_simplex(work, move.simplices[0], move.aux)[1] == move
        expected, record = excise_reference(frozen, move.simplices[0], move.aux)
        assert record == move
        frozen = apply_move(frozen, move)
        assert frozen == expected == work.freeze()
    assert frozen == final


def test_excision_is_trivial_on_surfaces(torus):
    final, trace = excise_to_surface_homology(torus)
    assert final == torus
    assert trace.moves == ()


def test_excision_requires_b2_equal_one(side_sphere):
    skeleton = side_sphere.skeleton(2)  # b2 = 2 with nothing bounding
    with pytest.raises(PreconditionError):
        excise_to_surface_homology(skeleton)
    solid = ct.build_complex([("a", "b", "c", "d")])
    with pytest.raises(PreconditionError):
        excise_to_surface_homology(solid)
    crowded = ct.build_complex([tuple("abcdef")]).skeleton(2)
    assert ct.betti_numbers(crowded) == (1, 0, 10)
    with pytest.raises(PreconditionError):
        excise_to_surface_homology(crowded)


def test_trace_needs_one_betti_entry_per_move_plus_the_initial_one():
    with pytest.raises(InconsistencyError, match="one Betti entry per step"):
        ReductionTrace((4, 6, 4), (4, 6, 4), (), ((1, 0, 1), (1, 0, 1)), True)


# ---------------------------------------------------------------------
# seams: a trace refuses moves whose f-vectors or Betti numbers do not
# follow from the entry before them


def _rebuilt(trace, **fields):
    """The trace with the given fields replaced."""
    values = {name: getattr(trace, name) for name in ReductionTrace._fields}
    return ReductionTrace(**{**values, **fields})


@pytest.fixture
def flap_trace(torus):
    """Two collapses that take a flap off the torus: b = (1, 2, 1) throughout."""
    _, trace = collapse_all(attach_flap(torus, ("1", "2"), "z"))
    assert trace.move_counts() == {COLLAPSE: 2}
    return trace


def test_seam_refuses_moves_that_do_not_compose(flap_trace):
    first = flap_trace.moves[0]
    assert _rebuilt(flap_trace) == flap_trace
    with pytest.raises(InconsistencyError, match="traces do not compose"):
        _rebuilt(flap_trace, moves=(first, first))


def test_seam_refuses_a_trace_that_ends_elsewhere_than_its_last_move(flap_trace):
    with pytest.raises(InconsistencyError, match="traces do not compose"):
        _rebuilt(flap_trace, final_f=flap_trace.initial_f)


def test_seam_refuses_stage_traces_that_disagree(side_sphere, flap_trace):
    _, excision = excise_to_surface_homology(side_sphere)
    with pytest.raises(InconsistencyError, match="traces do not compose"):
        _concat_traces(excision, flap_trace)


def test_seam_refuses_an_excision_that_keeps_b2(side_sphere):
    _, trace = excise_to_surface_homology(side_sphere)
    assert trace.betti_steps == ((1, 0, 2), (1, 0, 1))
    with pytest.raises(InconsistencyError, match=r"takes the Betti numbers \(1, 0, 2\) to \(1, 0, 2\)"):
        _rebuilt(trace, betti_steps=((1, 0, 2), (1, 0, 2)))


def test_seam_refuses_an_excision_without_its_cycle(side_sphere):
    _, trace = excise_to_surface_homology(side_sphere)
    (move,) = trace.moves
    assert move.kind == EXCISION and move.simplices[0] in move.aux
    bare = MoveRecord(move.kind, move.simplices, move.before_f, move.after_f)
    with pytest.raises(InconsistencyError, match=r"excision of \('1', '2', '3'\) records no cycle"):
        _rebuilt(trace, moves=(bare,))


def test_seam_refuses_a_collapse_that_changes_b1(flap_trace):
    with pytest.raises(InconsistencyError, match=r"takes the Betti numbers \(1, 2, 1\) to \(1, 1, 1\)"):
        _rebuilt(flap_trace, betti_steps=((1, 2, 1), (1, 1, 1), (1, 1, 1)))


def test_seam_refuses_a_collapse_that_drops_a_dimension_with_homology():
    _, trace = collapse_all(ct.build_complex([("a", "b", "c", "d")]))
    first = trace.moves[0]
    assert (first.before_f, first.after_f) == ((4, 6, 4, 1), (4, 6, 3))
    with pytest.raises(InconsistencyError, match="dropped a dimension with homology"):
        _rebuilt(trace, moves=(first,), final_f=first.after_f, betti_steps=((1, 0, 0, 1), (1, 0, 0)))


def test_seam_refuses_an_identification_in_a_reduction_trace():
    two_edges = ct.build_complex([("a", "b"), ("c", "d")])
    _, move = ct.identify_vertices(two_edges, "a", "c")
    # Betti entries an equivalence would keep, so only the kind can be refused
    with pytest.raises(InconsistencyError, match="a reduction makes no 'vertex-identification' move"):
        ReductionTrace(move.before_f, move.after_f, (move,), ((2, 0), (2, 0)), None)


# ---------------------------------------------------------------------
# certificates


def test_certificate_side_sphere(side_sphere):
    _, _, cert = reduce_to_certificate(side_sphere, SurfaceClass(True, 0))
    assert cert == BoundCertificate(chi=2, f_vector=(5, 9, 6), rho=4)
    assert cert.triangles_cover_edges
    assert cert.simple_graph_bound
    assert cert.euler_vertex_bound


def test_certify_accepts_a_closed_surface(torus):
    assert _certify(torus, True, SurfaceClass(True, 1), 7) == BoundCertificate(0, (7, 21, 14), 7)


@pytest.mark.parametrize(
    "final, property_a, surface, vertices, error, message",
    [
        pytest.param(
            [("a", "b", "c"), ("c", "d")], True, SurfaceClass(True, 0), 4,
            InconsistencyError, "final complex is not pure 2-dimensional", id="not-pure",
        ),
        pytest.param(
            [("a", "b", "c")], True, SurfaceClass(True, 0), 3,
            InconsistencyError, "final complex still has free faces", id="free-faces",
        ),
        pytest.param(
            "torus_7", False, SurfaceClass(True, 1), 7,
            InconsistencyError, "final complex lost cup-product regularity", id="no-property-a",
        ),
        pytest.param(
            "torus_7", True, SurfaceClass(False, 2), 7,
            PreconditionError, "the final complex has no nonzero cup square", id="cup-squares",
        ),
        pytest.param(
            "torus_7", True, SurfaceClass(True, 1), 6,
            InconsistencyError, "reduction increased the vertex count", id="more-vertices",
        ),
        pytest.param(
            "torus_7", True, SurfaceClass(True, 0), 7,
            InconsistencyError, "does not have the declared chi", id="chi",
        ),
    ],
)
def test_certify_refuses_a_final_complex_that_breaks_a_rule(
    final, property_a, surface, vertices, error, message
):
    complex_ = ct.load_bundled(final) if isinstance(final, str) else ct.build_complex(final)
    with pytest.raises(error, match=message):
        _certify(complex_, property_a, surface, vertices)


def test_certificate_m2_homotopy(m2_homotopy):
    final, trace, cert = reduce_to_certificate(m2_homotopy, SurfaceClass(True, 2))
    assert cert == BoundCertificate(chi=-2, f_vector=(9, 36, 25), rho=9)
    assert trace.moves == ()  # the model is already irreducible
    assert final == m2_homotopy
    assert cert.f_vector[0] == cert.rho  # the bound is attained


def test_certificate_subdivided_sphere(sphere):
    fine = barycentric_subdivision(sphere)
    assert fine.f_vector == (14, 36, 24)
    final, trace, cert = reduce_to_certificate(fine, SurfaceClass(True, 0))
    assert cert.rho == 4
    assert cert.f_vector[0] >= 4
    assert cert.f_vector[0] <= 14  # vertex count never grows
    assert final.f_vector == cert.f_vector


@pytest.mark.parametrize("name,surface", SURFACE_FILES)
def test_certificates_on_bundled_surfaces(name, surface):
    k = ct.load_bundled(name)
    final, trace, cert = reduce_to_certificate(k, surface)
    # a closed-surface triangulation is already fully reduced
    assert trace.moves == ()
    assert final == k
    assert cert.chi == surface.chi
    assert cert.f_vector == k.f_vector
    assert cert.f_vector[0] >= cert.rho


def _has_nonzero_cup_square(k):
    """Whether a -> a.a is nonzero on H^1, read off the diagonal of the
    pairing tensor; a -> a.a is linear over GF(2), so a basis decides it."""
    tensor = ct.pairing_tensor(k)
    return any(any(tensor.entries[i][i]) for i in range(tensor.b1))


def test_cup_squares_vanish_exactly_on_the_orientable_surfaces():
    """Wu's formula on every bundled closed surface: the cup squares
    vanish exactly when the triangle walk finds an orientation."""
    closed = [ct.load_bundled(n) for n in ct.bundled_names()]
    closed = [k for k in closed if ct.check_closed_surface(k).verdict]
    assert len(closed) == 6
    for k in closed:
        assert _has_nonzero_cup_square(k) != ct.orientable(k)


@pytest.mark.parametrize(
    "name, declared, message",
    [
        (
            "torus_7",
            SurfaceClass(False, 2),
            "the final complex has no nonzero cup square, which rules out the non-orientable N_2",
        ),
        (
            "klein_bottle_8",
            SurfaceClass(True, 1),
            "the final complex has a nonzero cup square, which rules out the orientable T^2",
        ),
    ],
)
def test_certificate_refuses_a_class_the_cup_squares_rule_out(name, declared, message):
    """The declared class has the input's Betti numbers but the other
    orientability."""
    with pytest.raises(StageError) as info:
        reduce_to_certificate(ct.load_bundled(name), declared)
    assert info.value.stage == "certificate"
    assert isinstance(info.value.cause, PreconditionError)
    assert str(info.value.cause) == message


@pytest.mark.parametrize("seed", range(6))
def test_pipeline_on_thickened_surfaces(seed):
    k, surface, log = randomized_thickening(seed)
    final, trace, cert = reduce_to_certificate(k, surface)
    assert cert.chi == surface.chi
    assert cert.f_vector[0] >= cert.rho, log
    assert trace.initial_f == k.skeleton(2).f_vector
    assert trace.final_f == final.f_vector
    assert trace.property_a_final
    counts = trace.move_counts()
    assert counts.get(EXCISION, 0) == trace.betti_steps[0][2] - 1


@pytest.mark.parametrize("seed", (0, 3))
def test_trace_replays_from_skeleton(seed):
    k, surface, _ = randomized_thickening(seed)
    final, trace, _ = reduce_to_certificate(k, surface)
    current = k.skeleton(2)
    for move in trace.moves:
        current = apply_move(current, move)
    assert current == final


def test_stage_error_names_the_failing_stage(torus, torus_wedge_circle):
    with pytest.raises(StageError) as info:
        reduce_to_certificate(torus, SurfaceClass(True, 0))
    assert info.value.stage == "homology-check"
    assert str(info.value).startswith("[homology-check]")

    # the wedge has the Betti numbers of N_3 but fails the cup check
    with pytest.raises(StageError) as info:
        reduce_to_certificate(torus_wedge_circle, SurfaceClass(False, 3))
    assert info.value.stage == "contraction"
    assert isinstance(info.value.cause, PreconditionError)


def test_excision_refuses_evidence_that_is_no_cycle(torus, monkeypatch):
    """Flip one bit of the last row of the im d_3 basis, which the
    from-scratch check of row 0 does not read: the excision stage
    refuses that row as evidence."""
    k = glue_tetrahedron(torus, ("1", "2", "4"), "x")
    k = glue_tetrahedron(k, ("3", "5", "6"), "y")
    image_basis = reduction.image_basis

    def one_bit_off(m):
        rows = image_basis(m)
        last = rows[-1]
        rows[-1] = ct.Gf2Vector(last.length, last.bits ^ (1 << (last.length - 1)))
        return rows

    monkeypatch.setattr(reduction, "image_basis", one_bit_off)
    with pytest.raises(StageError, match="is not a 2-cycle on the current triangles") as info:
        reduce_to_certificate(k, SurfaceClass(True, 1))
    assert info.value.stage == "excision"


def _torus_with_two_tetrahedra(torus):
    k = glue_tetrahedron(torus, ("1", "2", "4"), "x")
    return glue_tetrahedron(k, ("3", "5", "6"), "y")


def test_excision_refuses_a_surplus_cycle_search_that_disagrees(torus, monkeypatch):
    """The from-scratch search must pick row 0 of the im d_3 basis."""
    monkeypatch.setattr(reduction, "surplus_cycle", lambda k, triangles: None)
    with pytest.raises(StageError, match="the surplus-cycle search and the im d_3 basis disagree") as info:
        reduce_to_certificate(_torus_with_two_tetrahedra(torus), SurfaceClass(True, 1))
    assert info.value.stage == "excision"


def test_excision_refuses_a_skeleton_without_the_ambient_h2_generator(torus, monkeypatch):
    monkeypatch.setattr(reduction, "h2_epi_witness", lambda k, sub, z: None)
    with pytest.raises(StageError, match="no cycle inside the excised skeleton represents") as info:
        reduce_to_certificate(_torus_with_two_tetrahedra(torus), SurfaceClass(True, 1))
    assert info.value.stage == "excision"


def test_seam_refuses_tracked_betti_numbers_that_differ(torus, monkeypatch):
    """At the end of the collapse stage the snapshot's Betti numbers are
    recomputed from scratch; a wrong answer there stops the pipeline."""
    flapped = attach_flap(torus, ("1", "2"), "z")
    betti_numbers = reduction.betti_numbers

    def wrong_after_a_move(k):
        betti = betti_numbers(k)
        return betti if k.f_vector == flapped.f_vector else (2,) + betti[1:]

    monkeypatch.setattr(reduction, "betti_numbers", wrong_after_a_move)
    with pytest.raises(
        StageError, match=r"tracked Betti numbers \(1, 2, 1\) differ from the recomputed \(2, 2, 1\)"
    ) as info:
        reduce_to_certificate(flapped, SurfaceClass(True, 1))
    assert info.value.stage == "collapse"


def test_certificate_validation():
    with pytest.raises(InconsistencyError, match="does not have the declared chi"):
        BoundCertificate(chi=1, f_vector=(5, 9, 6), rho=6)
    with pytest.raises(InconsistencyError, match="rho"):
        BoundCertificate(chi=2, f_vector=(5, 9, 6), rho=5)
    # a lone triangle: every inequality needs at least two triangles per edge
    with pytest.raises(InconsistencyError, match="3\\*a2 >= 2\\*a1"):
        BoundCertificate(chi=1, f_vector=(3, 3, 1), rho=6)
    # all three inequalities hold at (3, 3, 2) yet three vertices are
    # too few: the linear side condition of rho is what rules it out
    with pytest.raises(InconsistencyError, match="below the bound"):
        BoundCertificate(chi=2, f_vector=(3, 3, 2), rho=4)
