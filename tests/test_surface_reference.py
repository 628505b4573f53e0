"""The closed-surface check against the link-by-link reference in
oracles.py: every SurfaceCheckReport field must agree, witnesses in the
same order, on random 2- and 3-complexes and on closed surfaces spoiled
in the ways the check must notice (flaps, glued tetrahedra, wedges,
pinches, punctures, dangling edges, isolated vertices).  On each closed
surface, orientability is checked against the cup squares of H^1."""

from __future__ import annotations

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import covertype as ct
from covertype.cohomology import pairing_tensor
from covertype.errors import PreconditionError
from covertype.surfaces import check_closed_surface, classify_surface, orientable
from helpers import (
    SURFACE_FILES,
    attach_flap,
    barycentric_subdivision,
    glue_tetrahedron,
    subdivide_triangle,
)
from oracles import closed_surface_reference

# Deterministic, so the suite gives the same verdict on every run.
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

LABELS = "abcdefgh"


@st.composite
def random_complexes(draw):
    """Up to 10 maximal simplices of dimension at most 3 on up to 8
    labels, or only triangles, which come closer to surfaces."""
    pool = LABELS[: draw(st.integers(4, len(LABELS)))]
    largest = draw(st.sampled_from([3, 4]))
    sizes = st.integers(1, largest) if draw(st.booleans()) else st.just(3)
    simplex = sizes.flatmap(
        lambda n: st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True)
    )
    faces = draw(st.lists(simplex, min_size=1, max_size=10))
    return ct.build_complex(faces)


def _maximal(k):
    return [list(s) for s in k.maximal_simplices()]


def _pinch(k, pick):
    """Identify two non-adjacent vertices with disjoint links, if any:
    the merged vertex's link is two circles."""
    pairs = [
        (v, w)
        for v, w in itertools.combinations(k.vertices, 2)
        if (v, w) not in k and not set(k._adjacency[v]) & set(k._adjacency[w])
    ]
    if not pairs or k.dim > 2:
        return k
    return ct.identify_vertices(k, *pairs[pick % len(pairs)])[0]


def _spoil(k, op, pick, fresh):
    """One change to k; pick chooses where, fresh names a new vertex."""
    vertex = k.vertices[pick % len(k.vertices)]
    if op == "flap":
        return attach_flap(k, k.simplices(1)[pick % len(k.simplices(1))], fresh)
    if op == "tetrahedron":
        free = [t for t in k.simplices(2) if not k._facet_cofaces[t]]
        return glue_tetrahedron(k, free[pick % len(free)], fresh) if free else k
    if op == "solid":
        others = [v for v in k.vertices if v != vertex][:3]
        return ct.build_complex(_maximal(k) + [[vertex, *others]]) if len(others) == 3 else k
    if op == "wedge":
        # a tetrahedron boundary sharing one vertex with k
        cone = [vertex, f"{fresh}a", f"{fresh}b", f"{fresh}c"]
        return ct.build_complex(_maximal(k) + [list(t) for t in itertools.combinations(cone, 3)])
    if op == "pinch":
        return _pinch(k, pick)
    if op == "puncture":
        triangles = k.simplices(2)
        gone = triangles[pick % len(triangles)] if triangles else None
        return ct.build_complex([s for s in _maximal(k) if tuple(s) != gone] or [[vertex]])
    if op == "dangling-edge":
        return ct.build_complex(_maximal(k) + [[vertex, fresh]])
    if op == "chord":
        far = [w for w in k.vertices if w != vertex and (min(vertex, w), max(vertex, w)) not in k]
        return ct.build_complex(_maximal(k) + [[vertex, far[pick % len(far)]]]) if far else k
    if op == "isolated-vertex":
        return ct.build_complex(_maximal(k) + [[fresh]])
    raise AssertionError(op)


OPS = (
    "flap", "tetrahedron", "solid", "wedge", "pinch", "puncture",
    "dangling-edge", "chord", "isolated-vertex",
)


@st.composite
def spoiled_surfaces(draw):
    """A bundled surface, maybe subdivided, with 0-3 changes."""
    name, _ = draw(st.sampled_from(SURFACE_FILES))
    k = ct.load_bundled(name)
    if draw(st.booleans()):
        k = subdivide_triangle(k, k.simplices(2)[draw(st.integers(0, 3))], "s")
    if name in ("sphere_4", "projective_plane_6") and draw(st.booleans()):
        k = barycentric_subdivision(k)
    changes = draw(st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 10**6)), max_size=3))
    for i, (op, pick) in enumerate(changes):
        k = _spoil(k, op, pick, f"n{i}")
    return k


def _agrees(k):
    report = check_closed_surface(k)
    assert report == closed_surface_reference(k)
    if report.verdict:
        assert classify_surface(k).orientable is orientable(k)
        # Wu's formula on a closed surface: a cup a = w1 cup a for every
        # class a, so every square vanishes exactly when w1 = 0
        entries = pairing_tensor(k).entries
        assert orientable(k) is all(not z for i, row in enumerate(entries) for z in row[i])
    else:
        with pytest.raises(PreconditionError):
            classify_surface(k)


@SETTINGS
@given(random_complexes())
def test_check_matches_reference_on_random_complexes(k):
    _agrees(k)


@SETTINGS
@given(spoiled_surfaces())
def test_check_matches_reference_on_spoiled_surfaces(k):
    _agrees(k)


@pytest.mark.parametrize("name", ct.bundled_names())
def test_check_matches_reference_on_bundled(name):
    k = ct.load_bundled(name)
    _agrees(k)
    _agrees(barycentric_subdivision(k))

