"""Simplicial complex structure: canonical form, queries, and the four
audited moves with their replay."""

from __future__ import annotations

import itertools
import random

import pytest

import covertype as ct
from covertype.complexes import SimplicialComplex
from covertype.engine import (
    COLLAPSE,
    CONTRACTION,
    EXCISION,
    IDENTIFICATION,
    MoveRecord,
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
from oracles import (
    collapse_reference,
    contract_reference,
    edge_triangle_count,
    excise_reference,
    identify_reference,
    link,
    path_exists,
    replay_reference,
    strict_coface_reference,
    validate_complex,
)


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
    validate_complex(k)


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
        circle = link(torus, v)
        assert circle.f_vector == (6, 6)
        assert all(circle.vertex_degree(u) == 2 for u in circle.vertices)


def test_link_of_missing_vertex():
    k = ct.build_complex([("a", "b", "c"), ("a", "b", "d")])
    assert link(k, "c").f_vector == (2, 1)
    with pytest.raises(NotFoundError):
        link(k, "e")


def test_build_complex_checks_every_simplex():
    """Each label is checked once, but every simplex is checked for a
    repeated vertex, and a bad label is caught wherever it appears."""
    with pytest.raises(MalformedInputError, match="duplicate vertex 'b'"):
        ct.build_complex([("a", "b"), ("b", "c"), ("b", "b")])
    with pytest.raises(MalformedInputError, match="non-empty strings"):
        ct.build_complex([("a", "b"), ("a", 1)])
    with pytest.raises(MalformedInputError, match="non-empty strings"):
        ct.build_complex([("a", "b"), (["a"],)])
    with pytest.raises(MalformedInputError, match="at least one vertex"):
        ct.build_complex([("a", "b"), ()])


def test_facet_cofaces_list_the_codimension_one_cofaces_in_order():
    rng = random.Random(11)
    complexes = [ct.load_bundled(name) for name in ct.bundled_names()]
    complexes += [random_small_complex(rng, largest=5) for _ in range(40)]
    for k in complexes:
        reference = strict_coface_reference(k)
        table = k._facet_cofaces
        assert list(table) == list(k.all_simplices())
        for s, cofaces in table.items():
            assert list(cofaces) == [c for c in reference[s] if len(c) == len(s) + 1]


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
    assert edge_triangle_count(k, ("b", "c")) == 2
    assert edge_triangle_count(k, ("d", "e")) == 0
    assert k.vertex_degree("d") == 3
    with pytest.raises(NotFoundError):
        edge_triangle_count(k, ("a", "d"))
    with pytest.raises(NotFoundError):
        k.vertex_degree("z")


def test_euler_characteristic(sphere, torus):
    assert sphere.euler_characteristic() == 2
    assert torus.f_vector == (7, 21, 14)
    assert torus.euler_characteristic() == 0
    assert ct.build_complex([("a", "b", "c")]).euler_characteristic() == 1


def test_edge_with_three_pages():
    book = ct.build_complex([("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e")])
    assert edge_triangle_count(book, ("a", "b")) == 3
    spine_pairs = [p for p in book.free_faces() if p[0] == ("a", "b")]
    assert spine_pairs == []  # three cofaces, so the spine is not free


def test_path_exists_with_forbidden_edge():
    square = ct.build_complex([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert path_exists(square, "a", "c")
    assert path_exists(square, "a", "b", forbidden=("a", "b"))  # around the back
    path = ct.build_complex([("a", "b"), ("b", "c")])
    assert not path_exists(path, "a", "b", forbidden=("a", "b"))
    assert path_exists(path, "a", "a")
    with pytest.raises(PreconditionError):
        path_exists(path, "a", "c", forbidden=("a", "c"))


def test_strongly_connected_components(sphere):
    def components(k):
        return ct.check_closed_surface(k).component_count

    assert components(sphere) == 1
    # two triangles sharing only a vertex are different components
    assert components(ct.build_complex([("a", "b", "c"), ("a", "d", "e")])) == 2
    # sharing an edge keeps them together
    assert components(ct.build_complex([("a", "b", "c"), ("b", "c", "d")])) == 1


def test_validate_rejects_broken_structures():
    not_closed = SimplicialComplex(((("a",),), (("a", "b"),)))
    with pytest.raises(InconsistencyError):
        validate_complex(not_closed)
    unsorted = SimplicialComplex(((("b",), ("a",)),))
    with pytest.raises(InconsistencyError):
        validate_complex(unsorted)


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
    validate_complex(new)


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
    validate_complex(new)


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
    validate_complex(new)


def test_identify_vertices_wedges_two_disks():
    k = ct.build_complex([("p", "q", "r"), ("s", "t", "u")])
    new, _ = ct.identify_vertices(k, "p", "s")
    assert new.f_vector == (5, 6, 2)
    assert new.vertex_degree("p") == 4
    validate_complex(new)


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


def test_glue_refuses_to_merge_simplices(monkeypatch):
    """Without the link test, the glue itself refuses to merge two
    simplices: here the edges bc and ab of a path through b."""
    path = ct.build_complex([("a", "b"), ("b", "c")])
    monkeypatch.setattr(WorkingComplex, "_neighbours", lambda self, vertex: set())
    with pytest.raises(
        InconsistencyError, match=r"^gluing 'c' to 'a' would merge \('b', 'c'\) with \('a', 'b'\)$"
    ):
        ct.identify_vertices(path, "a", "c")


def test_replay_reference_replays_sequences():
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
        replayed = replay_reference(replayed, rec)
    assert replayed == current


def test_replay_reference_rejects_wrong_state():
    k = ct.build_complex([("a", "b", "c")])
    other = ct.build_complex([("a", "b", "c"), ("c", "d")])
    _, rec = ct.collapse_free_face(k, ("a", "b"))
    with pytest.raises(InconsistencyError, match="differs from its record in before_f, after_f$"):
        replay_reference(other, rec)
    bogus = MoveRecord("warp", (("a", "b"),), k.f_vector, k.f_vector)
    with pytest.raises(PreconditionError, match="^unknown move kind 'warp'$"):
        replay_reference(k, bogus)


def two_spheres():
    """The boundaries of two disjoint tetrahedra: each is a 2-cycle."""
    return ct.build_complex(
        list(itertools.combinations("abcd", 3)) + list(itertools.combinations("efgh", 3))
    )


def excision_record(k, triangle, aux):
    """The record an excision of the triangle from k would make."""
    after = ct.build_complex(s for s in k.maximal_simplices() if s != triangle)
    return MoveRecord(EXCISION, (triangle,), k.f_vector, after.f_vector, aux)


@pytest.mark.parametrize(
    "aux",
    [
        (("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d")),  # no cycle
        tuple(itertools.combinations("efgh", 3)),  # a cycle without abc
        (("a", "b", "c"), ("a", "b", "c")),  # cancels to the zero chain
        tuple(itertools.combinations("abcd", 3)) + (("e",),),  # a vertex is no triangle
    ],
    ids=["no-cycle", "lacks-the-triangle", "repeated-triangle", "not-a-triangle"],
)
def test_excision_refuses_evidence_that_is_no_cycle_through_it(aux):
    """The replay's reference and the engine, on a frozen and on a
    working complex, each refuse the evidence."""
    k = two_spheres()
    record = excision_record(k, ("a", "b", "c"), aux)
    with pytest.raises(InconsistencyError, match="is not a 2-cycle on the current triangles"):
        replay_reference(k, record)
    for complex_ in (k, WorkingComplex(k)):
        with pytest.raises(InconsistencyError, match="is not a 2-cycle on the current triangles"):
            ct.remove_two_simplex(complex_, ("a", "b", "c"), aux)


def test_excision_refuses_a_triangle_already_gone():
    """The cycle the triangle lies on is accepted once; replayed again,
    it names a triangle that is gone, and the reference and the engine,
    on a frozen and on a working complex, refuse it."""
    k = two_spheres()
    cycle = tuple(itertools.combinations("abcd", 3))
    once = replay_reference(k, excision_record(k, ("a", "b", "c"), cycle))
    assert once == ct.remove_two_simplex(k, ("a", "b", "c"), cycle)[0]
    again = MoveRecord(EXCISION, (("a", "b", "c"),), once.f_vector, once.f_vector, cycle)
    with pytest.raises(InconsistencyError, match="is not a 2-cycle on the current triangles"):
        replay_reference(once, again)
    # without evidence the move itself is refused
    with pytest.raises(PreconditionError, match="is not a 2-simplex"):
        replay_reference(once, MoveRecord(EXCISION, again.simplices, once.f_vector, once.f_vector))
    for complex_ in (once, WorkingComplex(once)):
        with pytest.raises(InconsistencyError, match="is not a 2-cycle on the current triangles"):
            ct.remove_two_simplex(complex_, ("a", "b", "c"), cycle)
        with pytest.raises(PreconditionError, match="is not a 2-simplex"):
            ct.remove_two_simplex(complex_, ("a", "b", "c"))


def corrupt_not_maximal(work):
    work._cofaces[("a", "b", "c")].add(("a", "b", "c", "x"))


def corrupt_not_a_facet(work):
    work._cofaces[("a", "b")] = {("d", "e", "f")}


def corrupt_other_facet_gone(work):
    del work._cofaces[("b", "c")]


def corrupt_coface_gone(work):
    work._cofaces[("a", "b")] = {("a", "b", "x")}


@pytest.mark.parametrize(
    "corrupt",
    [corrupt_not_maximal, corrupt_not_a_facet, corrupt_other_facet_gone, corrupt_coface_gone],
)
def test_collapse_refuses_a_coface_that_is_no_witness(corrupt):
    """The engine checks the collapse witness against its own coface
    table, so a table that lies about the coface is caught."""
    work = WorkingComplex(ct.build_complex([("a", "b", "c"), ("d", "e", "f")]))
    corrupt(work)
    with pytest.raises(InconsistencyError, match="has no valid witness"):
        ct.collapse_free_face(work, ("a", "b"))


@pytest.mark.parametrize(
    "field, bad, error, message",
    [
        # as a contraction, the collapsed edge is not maximal
        ("kind", CONTRACTION, PreconditionError, "is not maximal$"),
        (
            "simplices",
            (("b", "d"), ("b", "c", "d")),
            InconsistencyError,
            "differs from its record in simplices$",
        ),
        ("before_f", (4, 5, 3), InconsistencyError, "differs from its record in before_f$"),
        ("after_f", (4, 5, 1), InconsistencyError, "differs from its record in after_f$"),
        ("aux", (("a", "b", "d"),), InconsistencyError, "differs from its record in aux$"),
    ],
    ids=["kind", "simplices", "before_f", "after_f", "aux"],
)
def test_replay_reference_compares_the_whole_record(field, bad, error, message):
    """The replay must make the record itself: the record under another
    kind, a collapse into another coface, a wrong before or after state
    or evidence a collapse never has is refused."""
    k = ct.build_complex([("a", "b", "c"), ("a", "b", "d")])
    _, record = ct.collapse_free_face(k, ("b", "d"))
    assert record.simplices == (("b", "d"), ("a", "b", "d"))
    wrong = MoveRecord(**{**{n: getattr(record, n) for n in record._fields}, field: bad})
    with pytest.raises(error, match=message):
        replay_reference(k, wrong)
    assert replay_reference(k, record) == ct.collapse_free_face(k, ("b", "d"))[0]


def test_working_complex_follows_the_frozen_moves():
    """In-place excisions and collapses give the same records and
    complexes as the rebuilding references, and the heap always offers
    free_faces()[0]."""
    rng = random.Random(2013)
    for _ in range(60):
        frozen = random_small_complex(rng)
        work = WorkingComplex(frozen)
        tops = [t for t in frozen.simplices(2) if not frozen._facet_cofaces[t]]
        if tops:
            t = rng.choice(tops)
            assert ct.remove_two_simplex(work, t)[1] == excise_reference(frozen, t)[1]
            frozen = work.freeze()
        while True:
            pairs = frozen.free_faces()
            assert work.smallest_free_face() == (pairs[0] if pairs else None)
            if not pairs:
                break
            same, record = ct.collapse_free_face(work, pairs[0][0])
            frozen, expected = collapse_reference(frozen, pairs[0][0])
            assert same is work and record == expected
            assert work.freeze() == frozen and work.f_vector == frozen.f_vector
        maximal = [e for e in frozen.simplices(1) if not frozen._facet_cofaces[e]]
        assert work.smallest_maximal_edge() == (maximal[0] if maximal else None)


def test_free_and_maximal_match_the_strict_coface_reference():
    """maximal_simplices(), free_faces() and every smallest_free_face()
    of a run agree with the strict cofaces counted over all proper
    faces.  The runs collapse the smallest or a random free face, mixed
    with excisions, on complexes with simplices of up to 5 vertices;
    the rebuilding references must give the same complexes and reject
    the same faces."""
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
                with pytest.raises(PreconditionError):
                    collapse_reference(frozen, face)
                with pytest.raises(PreconditionError):
                    ct.collapse_free_face(work, face)
            tops = [t for t in maximal if len(t) == 3]
            if tops and rng.random() < 0.25:
                t = rng.choice(tops)
                ct.remove_two_simplex(work, t)
                frozen, _ = excise_reference(frozen, t)
            elif free:
                face = free[0][0] if rng.random() < 0.5 else rng.choice(free)[0]
                ct.collapse_free_face(work, face)
                frozen, _ = collapse_reference(frozen, face)
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


def _random_move(rng, frozen):
    """A random move for the complex as (kind, module function, its
    reference, arguments), or None when no move of the drawn kind
    applies.  A contraction may take any maximal edge, so some are
    rejected; an identification may be drawn in dimension 3, where it
    is rejected."""
    kind = rng.choice((COLLAPSE, CONTRACTION, EXCISION, IDENTIFICATION))
    if kind == COLLAPSE:
        pool = [(face,) for face, _ in frozen.free_faces()]
        move = (ct.collapse_free_face, collapse_reference)
    elif kind == CONTRACTION:
        pool = [(e,) for e in frozen.simplices(1) if not frozen._facet_cofaces[e]]
        move = (ct.contract_edge, contract_reference)
    elif kind == EXCISION:
        pool = [(t,) for t in frozen.simplices(2) if not frozen._facet_cofaces[t]]
        move = (ct.remove_two_simplex, excise_reference)
    else:
        adjacency = frozen._adjacency
        pool = [
            (v, w)
            for v, w in itertools.combinations(frozen.vertices, 2)
            if (v, w) not in frozen and not set(adjacency[v]) & set(adjacency[w])
        ]
        move = (ct.identify_vertices, identify_reference)
    return (kind, *move, rng.choice(pool)) if pool else None


def test_move_engine_follows_the_references():
    """Random complexes through a mix of all four move kinds on one
    WorkingComplex.  After every move its snapshot is the complex the
    rebuilding reference gives, with the same record; the frozen entry
    point gives it too; the heap offers free_faces()[0] of the snapshot;
    and a contraction is rejected exactly when another edge path joins
    the edge's endpoints."""
    rng = random.Random(1306)
    done = dict.fromkeys((COLLAPSE, CONTRACTION, EXCISION, IDENTIFICATION, "rejected"), 0)
    for _ in range(3000):
        frozen = random_small_complex(rng, largest=rng.choice((3, 4)))
        work = WorkingComplex(frozen)
        for _ in range(rng.randint(1, 12)):
            drawn = _random_move(rng, frozen)
            if drawn is None:
                continue
            kind, function, reference, args = drawn
            if kind == CONTRACTION and path_exists(frozen, *args[0], forbidden=args[0]):
                for complex_, move in ((work, function), (frozen, reference)):
                    with pytest.raises(PropertyAViolationError):
                        move(complex_, *args)
                done["rejected"] += 1
            elif kind == IDENTIFICATION and frozen.dim > 2:
                for complex_, move in ((work, function), (frozen, reference)):
                    with pytest.raises(PreconditionError, match="dimension <= 2"):
                        move(complex_, *args)
                done["rejected"] += 1
            else:
                same, record = function(work, *args)
                thawed = function(frozen, *args)
                frozen, expected = reference(frozen, *args)
                assert same is work and record == expected and thawed == (frozen, expected)
                done[kind] += 1
            assert work.freeze() == frozen and work.f_vector == frozen.f_vector
            pairs = frozen.free_faces()
            assert work.smallest_free_face() == (pairs[0] if pairs else None)
    assert min(done.values()) >= 500, done
