"""Simplicial complex structure: canonical form, queries, and the four
audited moves with their replay."""

from __future__ import annotations

import itertools
import random

import pytest

import covertype as ct
from covertype.complexes import (
    COLLAPSE,
    CONTRACTION,
    EXCISION,
    IDENTIFICATION,
    MoveRecord,
    SimplicialComplex,
    WorkingComplex,
)
from covertype.errors import (
    InconsistencyError,
    MalformedInputError,
    NotFoundError,
    PreconditionError,
    PropertyAViolationError,
)

from helpers import random_small_complex
from oracles import strict_coface_reference


def test_make_simplex_canonical_form():
    assert ct.make_simplex(("c", "a", "b")) == ("a", "b", "c")
    assert ct.make_simplex(["10", "2"]) == ("10", "2")  # lexicographic, not numeric
    with pytest.raises(MalformedInputError):
        ct.make_simplex(())
    with pytest.raises(MalformedInputError):
        ct.make_simplex(("a", "a"))
    with pytest.raises(MalformedInputError):
        ct.make_simplex(("a", "b c"))
    with pytest.raises(MalformedInputError):
        ct.make_simplex(("a", ""))
    with pytest.raises(MalformedInputError):
        ct.make_simplex(("a", "b#c"))  # would read back as a comment


def test_build_complex_closure():
    k = ct.build_complex([("a", "b", "c"), ("b", "c", "d")])
    assert k.f_vector == (4, 5, 2)
    assert k.dim == 2
    assert ("b", "c") in k
    assert ("a", "d") not in k
    assert k.euler_characteristic() == 1
    assert k.vertices == ("a", "b", "c", "d")
    k.validate()


def test_empty_and_zero_dimensional():
    empty = ct.build_complex([])
    assert empty.is_empty
    assert empty.f_vector == ()
    assert empty.dim == -1
    points = ct.build_complex([("a",), ("b",)])
    assert points.f_vector == (2,)
    assert points.simplices(1) == ()


def test_skeleton():
    four_simplex = ct.build_complex([tuple("abcde")])
    two_skel = four_simplex.skeleton(2)
    assert two_skel.f_vector == (5, 10, 10)
    assert two_skel.skeleton(1).f_vector == (5, 10)
    assert four_simplex.skeleton(7) == four_simplex
    with pytest.raises(PreconditionError):
        four_simplex.skeleton(-1)


def test_link_in_torus(torus):
    # every vertex link in a closed surface is a single circle
    for v in torus.vertices:
        link = torus.link(v)
        assert link.f_vector == (6, 6)
        assert all(link.vertex_degree(u) == 2 for u in link.vertices)


def test_link_of_missing_vertex():
    k = ct.build_complex([("a", "b", "c"), ("a", "b", "d")])
    assert k.link("c").f_vector == (2, 1)
    with pytest.raises(NotFoundError):
        k.link("e")


def test_free_faces_of_lone_triangle():
    k = ct.build_complex([("a", "b", "c")])
    assert k.free_faces() == (
        (("a", "b"), ("a", "b", "c")),
        (("a", "c"), ("a", "b", "c")),
        (("b", "c"), ("a", "b", "c")),
    )


def test_free_faces_pendant_edge():
    k = ct.build_complex([("a", "b", "c"), ("c", "d")])
    assert (("d",), ("c", "d")) in k.free_faces()


def test_maximal_simplices_and_counts():
    k = ct.build_complex([("a", "b", "c"), ("b", "c", "d"), ("d", "e")])
    assert k.maximal_simplices() == (("a", "b", "c"), ("b", "c", "d"), ("d", "e"))
    assert k.edge_triangle_count(("b", "c")) == 2
    assert k.edge_triangle_count(("d", "e")) == 0
    assert k.vertex_degree("d") == 3
    with pytest.raises(NotFoundError):
        k.edge_triangle_count(("a", "d"))
    with pytest.raises(NotFoundError):
        k.vertex_degree("z")


def test_euler_characteristic(sphere, torus):
    assert sphere.euler_characteristic() == 2
    assert torus.f_vector == (7, 21, 14)
    assert torus.euler_characteristic() == 0
    assert ct.build_complex([("a", "b", "c")]).euler_characteristic() == 1


def test_edge_with_three_pages():
    book = ct.build_complex([("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e")])
    assert book.edge_triangle_count(("a", "b")) == 3
    spine_pairs = [p for p in book.free_faces() if p[0] == ("a", "b")]
    assert spine_pairs == []  # three cofaces, so the spine is not free


def test_path_exists_with_forbidden_edge():
    square = ct.build_complex([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert square.path_exists("a", "c")
    assert square.path_exists("a", "b", forbidden=("a", "b"))  # around the back
    path = ct.build_complex([("a", "b"), ("b", "c")])
    assert not path.path_exists("a", "b", forbidden=("a", "b"))
    assert path.path_exists("a", "a")
    with pytest.raises(PreconditionError):
        path.path_exists("a", "c", forbidden=("a", "c"))


def test_strongly_connected_components(sphere):
    assert len(sphere.strongly_connected_components()) == 1
    # two triangles sharing only a vertex are different components
    k = ct.build_complex([("a", "b", "c"), ("a", "d", "e")])
    comps = k.strongly_connected_components()
    assert comps == ((("a", "b", "c"),), (("a", "d", "e"),))
    # sharing an edge keeps them together
    glued = ct.build_complex([("a", "b", "c"), ("b", "c", "d")])
    assert glued.strongly_connected_components() == (
        (("a", "b", "c"), ("b", "c", "d")),
    )


def test_validate_rejects_broken_structures():
    not_closed = SimplicialComplex(((("a",),), (("a", "b"),)))
    with pytest.raises(InconsistencyError):
        not_closed.validate()
    unsorted = SimplicialComplex(((("b",), ("a",)),))
    with pytest.raises(InconsistencyError):
        unsorted.validate()


# ---------------------------------------------------------------------
# moves


def test_remove_two_simplex():
    hollow = ct.build_complex(
        [s for s in itertools.combinations("abcd", 3)]
    )
    new, rec = ct.remove_two_simplex(hollow, ("a", "b", "c"))
    assert new.f_vector == (4, 6, 3)
    assert ("a", "b", "c") not in new
    assert ("a", "b") in new  # edges survive
    assert rec.kind == EXCISION
    assert rec.simplices == (("a", "b", "c"),)
    assert (rec.before_f, rec.after_f) == ((4, 6, 4), (4, 6, 3))
    new.validate()


def test_remove_two_simplex_round_trip():
    lone = ct.build_complex([("a", "b", "c")])
    hollow, _ = ct.remove_two_simplex(lone, ("a", "b", "c"))
    assert hollow.f_vector == (3, 3)
    rebuilt = ct.build_complex(hollow.maximal_simplices() + (("a", "b", "c"),))
    assert rebuilt == lone


def test_remove_two_simplex_preconditions():
    solid = ct.build_complex([("a", "b", "c", "d")])
    with pytest.raises(PreconditionError):
        ct.remove_two_simplex(solid, ("a", "b", "c"))  # face of the 3-simplex
    hollow = solid.skeleton(2)
    with pytest.raises(PreconditionError):
        ct.remove_two_simplex(hollow, ("a", "b"))


def test_collapse_free_face():
    k = ct.build_complex([("a", "b", "c")])
    new, rec = ct.collapse_free_face(k, ("a", "b"))
    assert new.f_vector == (3, 2)
    assert rec.kind == COLLAPSE
    assert rec.simplices == (("a", "b"), ("a", "b", "c"))
    with pytest.raises(PreconditionError):
        ct.collapse_free_face(new, ("a", "c"))  # two cofaces at each vertex now
    with pytest.raises(NotFoundError):
        ct.collapse_free_face(new, ("a", "b"))


def test_contract_edge():
    path = ct.build_complex([("a", "b"), ("b", "c")])
    new, rec = ct.contract_edge(path, ("a", "b"))
    assert new.f_vector == (2, 1)
    assert new.vertices == ("a", "c")  # smaller label survives
    assert rec.kind == CONTRACTION
    new.validate()


def test_contract_edge_count_bookkeeping():
    lone = ct.build_complex([("a", "b")])
    point, _ = ct.contract_edge(lone, ("a", "b"))
    assert point.f_vector == (1,)
    pendant = ct.build_complex([("a", "b", "c"), ("c", "d")])
    new, _ = ct.contract_edge(pendant, ("c", "d"))
    assert new == ct.build_complex([("a", "b", "c")])
    bridged = ct.build_complex([("a", "b", "c"), ("c", "w"), ("w", "x", "y")])
    new, _ = ct.contract_edge(bridged, ("c", "w"))
    assert bridged.f_vector == (6, 7, 2)
    assert new.f_vector == (5, 6, 2)


def test_contract_edge_requires_maximal():
    k = ct.build_complex([("a", "b", "c")])
    with pytest.raises(PreconditionError):
        ct.contract_edge(k, ("a", "b"))
    with pytest.raises(NotFoundError):
        ct.contract_edge(k, ("a", "d"))


def test_contract_edge_detects_essential_circle():
    square = ct.build_complex([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    with pytest.raises(PropertyAViolationError):
        ct.contract_edge(square, ("a", "b"))


def test_identify_vertices():
    path = ct.build_complex([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    new, rec = ct.identify_vertices(path, "a", "e")
    assert new.f_vector == (4, 4)
    assert rec.kind == IDENTIFICATION
    assert rec.simplices == (("a",), ("e",))
    # the quotient of an arc by its endpoints is a circle
    assert all(new.vertex_degree(v) == 2 for v in new.vertices)
    new.validate()


def test_identify_vertices_wedges_two_disks():
    k = ct.build_complex([("p", "q", "r"), ("s", "t", "u")])
    new, _ = ct.identify_vertices(k, "p", "s")
    assert new.f_vector == (5, 6, 2)
    assert new.vertex_degree("p") == 4
    new.validate()


def test_identify_vertices_preconditions():
    path = ct.build_complex([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    with pytest.raises(PreconditionError):
        ct.identify_vertices(path, "a", "b")  # adjacent
    with pytest.raises(PreconditionError):
        ct.identify_vertices(path, "a", "c")  # links share b
    with pytest.raises(PreconditionError):
        ct.identify_vertices(path, "a", "a")
    with pytest.raises(NotFoundError):
        ct.identify_vertices(path, "a", "z")
    solid = ct.build_complex([("a", "b", "c", "d"), ("e",)])
    with pytest.raises(PreconditionError):
        ct.identify_vertices(solid, "a", "e")  # dimension 3


def test_apply_move_replays_sequences():
    start = ct.build_complex(
        [("a", "b", "c"), ("b", "c", "d"), ("d", "e"), ("e", "f")]
    )
    current = start
    records = []
    for op, arg in (
        (ct.collapse_free_face, ("a", "b")),
        (ct.contract_edge, ("e", "f")),
        (ct.identify_vertices, ("a", "e")),
    ):
        current, rec = op(current, *arg) if op is ct.identify_vertices else op(current, arg)
        records.append(rec)
    replayed = start
    for rec in records:
        replayed = ct.apply_move(replayed, rec)
    assert replayed == current


def test_apply_move_rejects_wrong_state():
    k = ct.build_complex([("a", "b", "c")])
    other = ct.build_complex([("a", "b", "c"), ("c", "d")])
    _, rec = ct.collapse_free_face(k, ("a", "b"))
    with pytest.raises(PreconditionError):
        ct.apply_move(other, rec)
    bogus = MoveRecord("warp", (("a", "b"),), k.f_vector, k.f_vector)
    with pytest.raises(PreconditionError):
        ct.apply_move(k, bogus)


def test_working_complex_follows_the_frozen_moves():
    """In-place excisions and collapses give the same records and
    complexes as the frozen moves, and the heap always offers
    free_faces()[0]."""
    rng = random.Random(2013)
    for _ in range(60):
        frozen = random_small_complex(rng)
        work = WorkingComplex(frozen)
        tops = [t for t in frozen.simplices(2) if not frozen._facet_cofaces[t]]
        if tops:
            t = rng.choice(tops)
            assert ct.remove_two_simplex(work, t, aux=(t,))[1] == (
                ct.remove_two_simplex(frozen, t, aux=(t,))[1]
            )
            frozen = work.freeze()
        while True:
            pairs = frozen.free_faces()
            assert work.smallest_free_face() == (pairs[0] if pairs else None)
            if not pairs:
                break
            same, record = ct.collapse_free_face(work, pairs[0][0])
            frozen, expected = ct.collapse_free_face(frozen, pairs[0][0])
            assert same is work and record == expected
            assert work.freeze() == frozen and work.f_vector == frozen.f_vector
        maximal = [e for e in frozen.simplices(1) if not frozen._facet_cofaces[e]]
        assert work.smallest_maximal_edge() == (maximal[0] if maximal else None)


def test_free_and_maximal_match_the_strict_coface_reference():
    """maximal_simplices(), free_faces() and every smallest_free_face()
    of a run agree with the strict cofaces counted over all proper
    faces.  The runs collapse the smallest or a random free face, mixed
    with excisions, on complexes with simplices of up to 5 vertices;
    the frozen moves must give the same complexes and reject the same
    faces."""
    rng = random.Random(1105)
    for _ in range(150):
        frozen = random_small_complex(rng, largest=5)
        work = WorkingComplex(frozen)
        while True:
            cofaces = strict_coface_reference(frozen)
            maximal = sorted(s for s, cof in cofaces.items() if not cof)
            free = sorted((s, cof[0]) for s, cof in cofaces.items() if len(cof) == 1)
            assert frozen.maximal_simplices() == tuple(maximal)
            assert frozen.free_faces() == tuple(free)
            assert work.smallest_free_face() == (free[0] if free else None)
            held = [s for s, cof in cofaces.items() if len(cof) != 1]
            if held:
                face = rng.choice(held)
                for complex_ in (frozen, work):
                    with pytest.raises(PreconditionError):
                        ct.collapse_free_face(complex_, face)
            tops = [t for t in maximal if len(t) == 3]
            if tops and rng.random() < 0.25:
                t = rng.choice(tops)
                ct.remove_two_simplex(work, t)
                frozen, _ = ct.remove_two_simplex(frozen, t)
            elif free:
                face = free[0][0] if rng.random() < 0.5 else rng.choice(free)[0]
                ct.collapse_free_face(work, face)
                frozen, _ = ct.collapse_free_face(frozen, face)
            else:
                break
            assert work.freeze() == frozen


def test_working_complex_rejects_invalid_moves():
    work = WorkingComplex(ct.build_complex([("a", "b", "c", "d")]))
    with pytest.raises(PreconditionError):
        ct.remove_two_simplex(work, ("a", "b", "c"))  # lies in the 3-simplex
    with pytest.raises(PreconditionError):
        ct.collapse_free_face(work, ("a", "b"))  # in two triangles and the 3-simplex
    with pytest.raises(NotFoundError):
        ct.collapse_free_face(work, ("a", "z"))
    assert work.f_vector == (4, 6, 4, 1)
