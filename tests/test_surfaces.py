"""Closed-surface recognition and classification, the vertex-count
bounds rho/delta/covering type, and the pinch-and-fill construction."""

from __future__ import annotations

import itertools

import pytest

import covertype as ct
from covertype import surfaces
from covertype.bounds import (
    SurfaceClass,
    covering_type,
    delta,
    rho,
    surface_from_name,
    surfaces_with_betti,
)
from covertype.surfaces import (
    build_nine_vertex_m2,
    check_closed_surface,
    classify_surface,
    orientable,
    pinch_and_fill,
)
from covertype.errors import DomainError, InconsistencyError, PreconditionError
from covertype.value import per_complex

from helpers import SURFACE_FILES, flip_edge, subdivide_triangle
from oracles import betti_oracle, link, rho_scan, validate_complex


def test_surface_class_names_and_chi():
    assert SurfaceClass(True, 0).name == "S^2"
    assert SurfaceClass(True, 1).name == "T^2"
    assert SurfaceClass(True, 2).name == "M_2"
    assert SurfaceClass(False, 1).name == "RP^2"
    assert SurfaceClass(False, 2).name == "N_2"
    assert SurfaceClass(True, 3).chi == -4
    assert SurfaceClass(False, 3).chi == -1
    with pytest.raises(DomainError):
        SurfaceClass(True, -1)
    with pytest.raises(DomainError):
        SurfaceClass(False, 0)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("S2", SurfaceClass(True, 0)),
        ("s^2", SurfaceClass(True, 0)),
        ("sphere", SurfaceClass(True, 0)),
        ("T2", SurfaceClass(True, 1)),
        ("torus", SurfaceClass(True, 1)),
        ("RP2", SurfaceClass(False, 1)),
        ("rp^2", SurfaceClass(False, 1)),
        ("N1", SurfaceClass(False, 1)),
        ("klein", SurfaceClass(False, 2)),
        ("N_2", SurfaceClass(False, 2)),
        ("M2", SurfaceClass(True, 2)),
        ("m_5", SurfaceClass(True, 5)),
        ("N3", SurfaceClass(False, 3)),
    ],
)
def test_surface_from_name(text, expected):
    assert surface_from_name(text) == expected


def test_surface_from_name_rejects_junk():
    for text in ("", "Q2", "M-1", "Mx", "2"):
        with pytest.raises(DomainError):
            surface_from_name(text)


@pytest.mark.parametrize("name,surface", SURFACE_FILES)
def test_bundled_surfaces_check_and_classify(name, surface):
    k = ct.load_bundled(name)
    report = check_closed_surface(k)
    assert report.verdict
    assert classify_surface(k) == surface
    assert orientable(k) is surface.orientable
    assert k.euler_characteristic() == surface.chi


def test_check_rejects_impure_complex(side_sphere):
    report = check_closed_surface(side_sphere)
    assert not report.verdict
    assert not report.pure_two_dimensional
    assert ("1", "2", "3", "4") in report.bad_maximal_simplices


def test_check_rejects_dangling_edges(torus_wedge_circle):
    report = check_closed_surface(torus_wedge_circle)
    assert not report.verdict
    assert not report.every_edge_in_two_triangles
    assert ((("1", "8"), 0)) in report.bad_edges


def test_check_rejects_pinched_sphere():
    # two tetrahedron boundaries sharing the single vertex 1
    faces = [s for s in itertools.combinations("1234", 3)]
    faces += [s for s in itertools.combinations("1567", 3)]
    k = ct.build_complex(faces)
    report = check_closed_surface(k)
    assert not report.verdict
    assert not report.strongly_connected
    assert report.component_count == 2
    assert report.bad_vertices == ("1",)
    # classify's own precondition, before orientable's would refuse it
    with pytest.raises(PreconditionError, match="^classification requires a closed surface$"):
        classify_surface(k)


def test_check_rejects_open_disk():
    k = ct.build_complex([("a", "b", "c"), ("b", "c", "d")])
    report = check_closed_surface(k)
    assert not report.verdict
    assert len(report.bad_edges) == 4  # the boundary edges


def test_empty_complex_fails_every_condition():
    report = check_closed_surface(ct.SimplicialComplex(()))
    assert report == ct.SurfaceCheckReport(False, False, False, False)
    assert not report.verdict
    assert report.component_count == 0


def test_m2_homotopy_model_is_not_a_surface(m2_homotopy):
    report = check_closed_surface(m2_homotopy)
    assert not report.verdict
    # a 9-vertex closed complex cannot afford chi = -2, so some edge
    # must lie in more than two triangles
    assert report.bad_edges
    assert any(count > 2 for _, count in report.bad_edges)


def test_orientable_requires_a_closed_surface(side_sphere):
    with pytest.raises(PreconditionError):
        orientable(side_sphere)


def test_check_and_classify_walk_the_triangles_once(monkeypatch):
    walk = surfaces._triangle_walk.__wrapped__
    walks = []

    def counting(k):
        walks.append(k)
        return walk(k)

    monkeypatch.setattr(surfaces, "_triangle_walk", per_complex(counting))
    # parsed afresh: load_bundled keeps the complex it has checked
    k = ct.parse_complex_text(ct.bundled_text("klein_bottle_8")).complex()
    assert check_closed_surface(k).component_count == 1
    assert classify_surface(k) == SurfaceClass(False, 2)
    assert not orientable(k)
    assert walks == [k]


@pytest.mark.parametrize(
    "name,message",
    [
        ("sphere_4", "no non-orientable closed surface has chi = 2"),
        ("projective_plane_6", "no orientable closed surface has chi = 1"),
    ],
)
def test_classify_refuses_a_chi_that_contradicts_orientability(name, message, monkeypatch):
    k = ct.load_bundled(name)  # loaded, and so classified, before the answer is flipped
    right = orientable(k)
    monkeypatch.setattr(surfaces, "orientable", lambda _: not right)
    with pytest.raises(InconsistencyError, match=f"^{message}$"):
        classify_surface(k)


@pytest.mark.parametrize(
    "betti,expected",
    [
        ((1, 0, 1), (SurfaceClass(True, 0),)),
        ((1, 3, 1), (SurfaceClass(False, 3),)),
        ((1, 4, 1, 0), (SurfaceClass(True, 2), SurfaceClass(False, 4))),
        ((1, 1), ()),  # the circle
        ((1, 2, 1, 1), ()),
        ((2, 0, 1), ()),
        ((), ()),
    ],
)
def test_surfaces_with_betti(betti, expected):
    assert surfaces_with_betti(betti) == expected


def test_subdivision_preserves_the_class(torus):
    bigger = subdivide_triangle(torus, torus.simplices(2)[0], "z")
    assert check_closed_surface(bigger).verdict
    assert classify_surface(bigger) == SurfaceClass(True, 1)


RHO_TABLE = [(2, 4), (1, 6), (0, 7), (-1, 8), (-2, 9), (-3, 9), (-4, 10), (-10, 12)]


@pytest.mark.parametrize("chi,expected", RHO_TABLE)
def test_rho_frozen_values(chi, expected):
    assert rho(chi) == expected


def test_rho_matches_scan_oracle():
    for chi in range(2, -50, -1):
        assert rho(chi) == rho_scan(chi)
    with pytest.raises(DomainError):
        rho(3)


BOUNDS_TABLE = [
    (SurfaceClass(True, 0), 4, 4, 4),
    (SurfaceClass(False, 1), 6, 6, 6),
    (SurfaceClass(True, 1), 7, 7, 7),
    (SurfaceClass(False, 2), 7, 8, 8),
    (SurfaceClass(False, 3), 8, 9, 9),
    (SurfaceClass(True, 2), 9, 10, 9),
    (SurfaceClass(True, 3), 10, 10, 10),
    (SurfaceClass(False, 4), 9, 9, 9),
]


@pytest.mark.parametrize("surface,r,d,c", BOUNDS_TABLE)
def test_bounds_table(surface, r, d, c):
    assert rho(surface.chi) == r
    assert delta(surface) == d
    assert covering_type(surface) == c


def test_covering_type_never_exceeds_delta():
    surfaces = [SurfaceClass(True, g) for g in range(8)]
    surfaces += [SurfaceClass(False, g) for g in range(1, 8)]
    for s in surfaces:
        assert rho(s.chi) <= covering_type(s) <= delta(s)
    # the minimal triangulation exceeds the counting bound by one for
    # exactly three surfaces
    exceptional = {s.name for s in surfaces if delta(s) - rho(s.chi) == 1}
    assert exceptional == {"M_2", "N_2", "N_3"}
    assert all(delta(s) - rho(s.chi) in (0, 1) for s in surfaces)


def test_rho_is_monotone():
    values = [rho(chi) for chi in range(2, -40, -1)]
    assert values == sorted(values)
    assert values[0] == 4  # the global minimum, at chi = 2


def test_pinch_and_fill_on_genus2(genus2):
    degree_four = sorted(
        v for v in genus2.vertices if genus2.vertex_degree(v) == 4
    )
    v, v2 = degree_four
    fills = [
        (w, w2)
        for w in link(genus2, v).vertices
        for w2 in link(genus2, v2).vertices
        if ct.make_simplex((w, w2)) in genus2
    ]
    assert fills
    # any valid fill pair gives the same homotopy invariants
    for w, w2 in fills:
        result = pinch_and_fill(genus2, v, v2, w, w2)
        assert len(result.vertices) == 9
        assert ct.betti_numbers(result) == (1, 4, 1)
        assert ct.has_property_A(result)
        validate_complex(result)


def test_pinch_and_fill_two_filled_triangles():
    # two disjoint disks pinched at a vertex and capped: contractible
    k = ct.build_complex([("v", "w", "x"), ("p", "q", "r"), ("q", "w")])
    out = pinch_and_fill(k, "v", "p", "w", "q")
    assert out.f_vector == (5, 7, 3)
    assert ct.betti_numbers(out) == (1, 0, 0)
    assert betti_oracle(out) == (1, 0, 0)
    validate_complex(out)


def test_pinch_and_fill_preconditions(genus2):
    degree_four = sorted(
        v for v in genus2.vertices if genus2.vertex_degree(v) == 4
    )
    v, v2 = degree_four
    link_v = link(genus2, v).vertices
    link_v2 = link(genus2, v2).vertices
    w, w2 = link_v[0], link_v2[0]
    assert w not in link_v2 and w2 not in link_v
    with pytest.raises(PreconditionError):
        pinch_and_fill(genus2, v, v2, w2, w)  # adjacency swapped
    # two disjoint edges: the fill vertices are not joined by an edge
    arcs = ct.build_complex([("a", "b"), ("c", "d")])
    with pytest.raises(PreconditionError):
        pinch_and_fill(arcs, "a", "c", "b", "d")


def test_build_nine_vertex_m2(genus2):
    result = build_nine_vertex_m2(genus2)
    assert result.f_vector == (9, 36, 25)
    assert ct.betti_numbers(result) == (1, 4, 1)
    assert ct.has_property_A(result)
    assert not check_closed_surface(result).verdict
    assert result.euler_characteristic() == -2
    # 9 vertices meets the covering-type bound for orientable genus 2,
    # one below the minimum for a genuine triangulation
    assert len(result.vertices) == covering_type(SurfaceClass(True, 2))
    assert len(result.vertices) == delta(SurfaceClass(True, 2)) - 1
    validate_complex(result)


def test_build_nine_vertex_m2_matches_bundled(genus2, m2_homotopy):
    assert build_nine_vertex_m2(genus2) == m2_homotopy


def test_build_nine_vertex_m2_rejects_wrong_input(torus, side_sphere):
    with pytest.raises(PreconditionError):
        build_nine_vertex_m2(torus)  # wrong genus
    with pytest.raises(PreconditionError):
        build_nine_vertex_m2(side_sphere)  # not even a surface


def test_build_nine_vertex_m2_needs_ten_vertices(genus2):
    eleven = subdivide_triangle(genus2, genus2.simplices(2)[0], "z")
    with pytest.raises(PreconditionError):
        build_nine_vertex_m2(eleven)


def test_build_nine_vertex_m2_needs_a_closed_surface(genus2):
    holed = ct.build_complex(genus2.simplices(2)[1:])
    assert len(holed.vertices) == 10
    with pytest.raises(PreconditionError, match="^input is not a closed surface$"):
        build_nine_vertex_m2(holed)


def _pass_for_genus_two(monkeypatch, genus2):
    """Let build_nine_vertex_m2 take any input for a closed orientable
    genus-2 surface.  On 10 vertices such a surface has 36 edges, so no
    two degree-4 pairs fit, and the pair's two disjoint links cover the
    other 8 vertices with 8 edges, leaving 28 = C(8, 2) among them: the
    later checks need inputs that are not surfaces."""
    report = check_closed_surface(genus2)
    monkeypatch.setattr(surfaces, "check_closed_surface", lambda k: report)
    monkeypatch.setattr(surfaces, "classify_surface", lambda k: SurfaceClass(True, 2))


def test_build_nine_vertex_m2_needs_a_unique_pair(genus2, monkeypatch):
    _pass_for_genus_two(monkeypatch, genus2)
    # two disjoint complete graphs on 5 vertices: every vertex has
    # degree 4, and any two from different graphs form a pair
    two_k5 = ct.build_complex(
        itertools.chain(itertools.combinations("abcde", 2), itertools.combinations("fghij", 2))
    )
    unique = r"^degree-4 vertex pair is not unique; candidates: \[\('a', 'f'\)"
    with pytest.raises(PreconditionError, match=unique):
        build_nine_vertex_m2(two_k5)


def test_build_nine_vertex_m2_needs_a_complete_graph_on_the_others(genus2, monkeypatch):
    _pass_for_genus_two(monkeypatch, genus2)
    # without ab and its triangles, i and j keep their degree 4
    no_ab = ct.build_complex(t for t in genus2.simplices(2) if not {"a", "b"} <= set(t))
    assert len(no_ab.vertices) == 10
    with pytest.raises(
        PreconditionError, match="^the remaining 8 vertices must induce a complete graph; a,b missing$"
    ):
        build_nine_vertex_m2(no_ab)


@pytest.mark.parametrize(
    "result, message",
    [
        (lambda k: k, "construction did not land on 9 vertices"),
        (lambda k: ct.load_bundled("m2_homotopy_9").skeleton(1), "construction lost the genus-2 homology"),
    ],
    ids=["ten-vertices", "graph"],
)
def test_build_nine_vertex_m2_checks_what_the_pinch_made(result, message, genus2, monkeypatch):
    monkeypatch.setattr(surfaces, "pinch_and_fill", lambda k, *vertices: result(k))
    with pytest.raises(InconsistencyError, match=f"^{message}$"):
        build_nine_vertex_m2(genus2)


def test_pinch_and_fill_checks_the_betti_numbers(monkeypatch):
    k = ct.build_complex([("v", "w", "x"), ("p", "q", "r"), ("q", "w")])
    betti = ct.betti_numbers
    monkeypatch.setattr(surfaces.homology, "betti_numbers", lambda c: betti(c) if c is k else (1, 1, 0))
    with pytest.raises(
        InconsistencyError, match=r"^pinch-and-fill changed the Betti numbers \(1, 0, 0\) -> \(1, 1, 0\)$"
    ):
        pinch_and_fill(k, "v", "p", "w", "q")


def test_build_nine_vertex_m2_needs_the_degree_four_pair(genus2):
    # the flip of ab keeps a 10-vertex genus-2 surface, but its new edge
    # ei takes i, one of the two degree-4 vertices, up to degree 5
    flipped = flip_edge(genus2, ("a", "b"))
    assert ("e", "i") in flipped and ("a", "b") not in flipped
    assert ct.classify_surface(flipped) == SurfaceClass(True, 2)
    assert len(flipped.vertices) == 10
    with pytest.raises(PreconditionError, match="no non-adjacent pair of degree-4 vertices"):
        build_nine_vertex_m2(flipped)
