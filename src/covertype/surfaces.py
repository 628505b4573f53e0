"""Closed-surface recognition, classification, and the vertex-count
bounds rho, delta and the covering type.

rho(chi) is the smallest n with n >= 7/2 + sqrt(49 - 24*chi)/2, the
classical lower bound for the number of vertices of a triangulation
with Euler characteristic chi; it is computed in exact integer
arithmetic.  delta adds one exactly for the three exceptional surfaces
(orientable genus 2, non-orientable genus 2 and 3) where rho is not
attained by any triangulation.  The covering type equals delta for
every closed surface except orientable genus 2, where a 9-vertex
complex homotopy equivalent to the surface exists even though no
9-vertex triangulation does; build_nine_vertex_m2 constructs it.

check_closed_surface makes one sweep over the simplices, linear in the
size of the complex: the maximal simplices and the triangle count of
each edge come from the codimension-1 coface table, and each vertex
link is assembled from the triangles on the vertex (its vertices are
the vertex's neighbours), then tested with one degree count and one
traversal.  The check is computed once per complex and kept on it, so
classify_surface and orientable, which both require a closed surface,
read the report that check_closed_surface has already made.
"""

from __future__ import annotations

import math

from .complexes import (
    Simplex,
    SimplicialComplex,
    build_complex,
    identify_vertices,
    make_simplex,
    per_complex,
)
from .cohomology import has_property_A
from .errors import (
    DomainError,
    InconsistencyError,
    PreconditionError,
)
from .homology import betti_numbers
from .value import Value

__all__ = [
    "SurfaceClass",
    "SurfaceCheckReport",
    "surface_from_name",
    "check_closed_surface",
    "orientable",
    "classify_surface",
    "rho",
    "delta",
    "covering_type",
    "pinch_and_fill",
    "build_nine_vertex_m2",
]


class SurfaceClass(Value):
    """Homeomorphism type of a closed surface."""

    orientable: bool
    genus: int

    def __init__(self, orientable: bool, genus: int) -> None:
        vars(self).update(orientable=orientable, genus=genus)
        if genus < 0:
            raise DomainError("genus must be >= 0")
        if not orientable and genus == 0:
            raise DomainError("a non-orientable surface has genus >= 1")

    @property
    def chi(self) -> int:
        return 2 - 2 * self.genus if self.orientable else 2 - self.genus

    @property
    def name(self) -> str:
        if self.orientable:
            if self.genus == 0:
                return "S^2"
            if self.genus == 1:
                return "T^2"
            return f"M_{self.genus}"
        if self.genus == 1:
            return "RP^2"
        return f"N_{self.genus}"


def surface_from_name(name: str) -> SurfaceClass:
    """Parse a surface name; accepts S2/S^2, T2/T^2, RP2/RP^2, M_g/Mg,
    N_k/Nk (case-insensitive)."""
    text = name.strip().upper().replace("^", "").replace("_", "")
    if text in ("S2", "SPHERE", "M0"):
        return SurfaceClass(True, 0)
    if text in ("T2", "TORUS", "M1"):
        return SurfaceClass(True, 1)
    if text in ("RP2", "N1"):
        return SurfaceClass(False, 1)
    if text in ("KLEIN", "KLEINBOTTLE"):
        return SurfaceClass(False, 2)
    if text.startswith("M") and text[1:].isdigit():
        return SurfaceClass(True, int(text[1:]))
    if text.startswith("N") and text[1:].isdigit():
        return SurfaceClass(False, int(text[1:]))
    raise DomainError(f"unknown surface name {name!r}")


class SurfaceCheckReport(Value):
    """Outcome of the four closed-surface conditions, with witnesses
    for whichever ones fail."""

    pure_two_dimensional: bool
    every_edge_in_two_triangles: bool
    strongly_connected: bool
    all_links_single_circles: bool
    bad_maximal_simplices: tuple[Simplex, ...]
    bad_edges: tuple[tuple[Simplex, int], ...]
    bad_vertices: tuple[str, ...]
    component_count: int

    def __init__(
        self,
        pure_two_dimensional: bool,
        every_edge_in_two_triangles: bool,
        strongly_connected: bool,
        all_links_single_circles: bool,
        bad_maximal_simplices: tuple[Simplex, ...] = (),
        bad_edges: tuple[tuple[Simplex, int], ...] = (),
        bad_vertices: tuple[str, ...] = (),
        component_count: int = 0,
    ) -> None:
        vars(self).update(
            pure_two_dimensional=pure_two_dimensional,
            every_edge_in_two_triangles=every_edge_in_two_triangles,
            strongly_connected=strongly_connected,
            all_links_single_circles=all_links_single_circles,
            bad_maximal_simplices=bad_maximal_simplices,
            bad_edges=bad_edges,
            bad_vertices=bad_vertices,
            component_count=component_count,
        )

    @property
    def verdict(self) -> bool:
        return (
            self.pure_two_dimensional
            and self.every_edge_in_two_triangles
            and self.strongly_connected
            and self.all_links_single_circles
        )


def _link_is_single_circle(
    neighbours: tuple[str, ...], link_edges: list[tuple[str, str]], in_tetrahedron: bool
) -> bool:
    """Is the link of a vertex one circle?  The link's vertices are the
    vertex's neighbours and its edges come from the triangles on the
    vertex; a vertex of a 3-simplex has a link of dimension >= 2."""
    if in_tetrahedron or not link_edges:
        return False
    around: dict[str, list[str]] = {w: [] for w in neighbours}
    for a, b in link_edges:
        around[a].append(b)
        around[b].append(a)
    # every vertex of degree 2: a disjoint union of circles, and one
    # circle iff connected
    if any(len(ws) != 2 for ws in around.values()):
        return False
    start = link_edges[0][0]
    seen = {start}
    stack = [start]
    while stack:
        for w in around[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(around)


@per_complex
def check_closed_surface(complex_: SimplicialComplex) -> SurfaceCheckReport:
    """Check the four closed-surface conditions, with witnesses for
    whichever ones fail, in one sweep over the simplices."""
    if complex_.is_empty:
        return SurfaceCheckReport(False, False, False, False)
    cofaces = complex_._facet_cofaces
    bad_max = tuple(sorted(s for s, cof in cofaces.items() if not cof and len(s) != 3))
    pure = complex_.dim == 2 and not bad_max
    bad_edges = []
    for e in complex_.simplices(1):
        c = len(cofaces[e])
        if c != 2:
            bad_edges.append((e, c))
    two_tris = complex_.dim >= 1 and not bad_edges and bool(complex_.simplices(1))
    comps = complex_.strongly_connected_components()
    connected = len(comps) == 1
    link_edges: dict[str, list[tuple[str, str]]] = {v: [] for v in complex_.vertices}
    for a, b, c in complex_.simplices(2):
        link_edges[a].append((b, c))
        link_edges[b].append((a, c))
        link_edges[c].append((a, b))
    in_tetrahedron = {v for s in complex_.simplices(3) for v in s}
    adjacency = complex_._adjacency
    bad_vertices = [
        v
        for v in complex_.vertices
        if not _link_is_single_circle(adjacency[v], link_edges[v], v in in_tetrahedron)
    ]
    return SurfaceCheckReport(
        pure_two_dimensional=pure,
        every_edge_in_two_triangles=two_tris,
        strongly_connected=connected,
        all_links_single_circles=not bad_vertices,
        bad_maximal_simplices=bad_max,
        bad_edges=tuple(bad_edges),
        bad_vertices=tuple(bad_vertices),
        component_count=len(comps),
    )


def orientable(complex_: SimplicialComplex) -> bool:
    """Decide orientability of a verified closed surface by propagating
    coherent triangle orientations across shared edges."""
    if not check_closed_surface(complex_).verdict:
        raise PreconditionError("orientability is defined here only for closed surfaces")
    tris = complex_.simplices(2)
    position = {t: i for i, t in enumerate(tris)}

    def edge_parity(t: Simplex, e: Simplex) -> int:
        # in the ascending orientation (v0,v1,v2) the induced directed
        # edges are v0->v1, v1->v2, v2->v0; the last one runs against
        # the ascending order of its endpoints
        return 1 if e == (t[0], t[2]) else 0

    orientation = [None] * len(tris)
    orientation[0] = 0
    queue = [0]
    while queue:
        i = queue.pop()
        t = tris[i]
        for k in range(3):
            e = t[:k] + t[k + 1 :]
            for other in complex_._facet_cofaces[e]:
                if other == t:
                    continue
                j = position[other]
                needed = orientation[i] ^ edge_parity(t, e) ^ edge_parity(other, e) ^ 1
                if orientation[j] is None:
                    orientation[j] = needed
                    queue.append(j)
                elif orientation[j] != needed:
                    return False
    return True


def classify_surface(complex_: SimplicialComplex) -> SurfaceClass:
    """Homeomorphism type of a verified closed surface, from
    orientability and the Euler characteristic."""
    if not check_closed_surface(complex_).verdict:
        raise PreconditionError("classification requires a closed surface")
    chi = complex_.euler_characteristic()
    if orientable(complex_):
        if chi > 2 or chi % 2 != 0:
            raise InconsistencyError(f"no orientable closed surface has chi = {chi}")
        return SurfaceClass(True, (2 - chi) // 2)
    if chi > 1:
        raise InconsistencyError(f"no non-orientable closed surface has chi = {chi}")
    return SurfaceClass(False, 2 - chi)


def rho(chi: int) -> int:
    """Least n with 2n - 7 >= 0 and (2n - 7)^2 >= 49 - 24*chi, i.e. the
    ceiling of 7/2 + sqrt(49 - 24*chi)/2, in exact integer arithmetic."""
    if chi > 2:
        raise DomainError(f"no closed surface has Euler characteristic {chi}")
    disc = 49 - 24 * chi
    root = math.isqrt(disc)
    if root * root == disc:
        # exact square: nearest integer at or above (7 + root)/2
        return (7 + root + 1) // 2
    return (7 + root) // 2 + 1


def delta(surface: SurfaceClass) -> int:
    """Minimum vertex count of a triangulation of the surface: rho(chi)
    except for the three surfaces where that bound is not attained."""
    exceptional = surface in (
        SurfaceClass(True, 2),
        SurfaceClass(False, 2),
        SurfaceClass(False, 3),
    )
    return rho(surface.chi) + (1 if exceptional else 0)


def covering_type(surface: SurfaceClass) -> int:
    """Minimum vertex count of a complex homotopy equivalent to the
    surface.  Equals delta except for orientable genus 2, where the
    pinch-and-fill construction saves one vertex."""
    if surface == SurfaceClass(True, 2):
        return 9
    return delta(surface)


def pinch_and_fill(
    complex_: SimplicialComplex, v: str, v2: str, w: str, w2: str
) -> SimplicialComplex:
    """Identify the non-adjacent vertices v and v2 and fill the triangle
    on the merged vertex, w and w2.

    Hypotheses: v and v2 are non-adjacent with vertex-disjoint links,
    w is adjacent to v, w2 to v2, and {w, w2} is an edge.  The quotient
    pinches an arc to a circle and the added triangle caps that circle
    off again, so the result is homotopy equivalent to the input; the
    Betti numbers are asserted unchanged.
    """
    for label, anchor, role in ((w, v, "first"), (w2, v2, "second")):
        if make_simplex((label, anchor)) not in complex_:
            raise PreconditionError(
                f"the {role} fill vertex {label!r} must be adjacent to {anchor!r}"
            )
    if make_simplex((w, w2)) not in complex_:
        raise PreconditionError(f"fill vertices {w!r} and {w2!r} must span an edge")
    before = betti_numbers(complex_)
    merged, record = identify_vertices(complex_, v, v2)
    kept = record.simplices[0][0]
    triangle = make_simplex((kept, w, w2))
    filled = SimplicialComplex.from_simplices(
        list(merged.all_simplices())
        + [triangle, (triangle[0], triangle[1]), (triangle[0], triangle[2]), (triangle[1], triangle[2])]
    )
    after = betti_numbers(filled)
    if before != after:
        raise InconsistencyError(
            f"pinch-and-fill changed the Betti numbers {before} -> {after}"
        )
    return filled


def build_nine_vertex_m2(triangulation: SimplicialComplex) -> SimplicialComplex:
    """From a 10-vertex triangulation of the orientable genus-2 surface
    with its two degree-4 vertices, build the 9-vertex complex homotopy
    equivalent to the surface.

    The input must be a closed orientable genus-2 surface on 10
    vertices containing a unique non-adjacent pair of degree-4 vertices
    with disjoint links, the remaining 8 vertices inducing a complete
    graph.  The pair is pinched and the lexicographically smallest
    valid fill triangle is added.
    """
    report = check_closed_surface(triangulation)
    if not report.verdict:
        raise PreconditionError("input is not a closed surface")
    if len(triangulation.vertices) != 10:
        raise PreconditionError(
            f"expected a 10-vertex triangulation, got {len(triangulation.vertices)} vertices"
        )
    if classify_surface(triangulation) != SurfaceClass(True, 2):
        raise PreconditionError("input is not an orientable genus-2 surface")
    degree_four = [v for v in triangulation.vertices if triangulation.vertex_degree(v) == 4]
    pairs = []
    for i, a in enumerate(degree_four):
        for b in degree_four[i + 1 :]:
            if make_simplex((a, b)) in triangulation:
                continue
            if set(triangulation._adjacency[a]) & set(triangulation._adjacency[b]):
                continue
            pairs.append((a, b))
    if not pairs:
        raise PreconditionError(
            "no non-adjacent pair of degree-4 vertices with disjoint links"
        )
    if len(pairs) > 1:
        raise PreconditionError(
            f"degree-4 vertex pair is not unique; candidates: {pairs}"
        )
    v, v2 = pairs[0]
    others = [x for x in triangulation.vertices if x not in (v, v2)]
    for i, a in enumerate(others):
        for b in others[i + 1 :]:
            if make_simplex((a, b)) not in triangulation:
                raise PreconditionError(
                    f"the remaining 8 vertices must induce a complete graph; {a},{b} missing"
                )
    fill = None
    # a vertex's neighbours are exactly the vertices of its link
    for w in triangulation._adjacency[v]:
        for w2 in triangulation._adjacency[v2]:
            if make_simplex((w, w2)) in triangulation:
                fill = (w, w2)
                break
        if fill:
            break
    if fill is None:
        raise PreconditionError("no edge joins the links of the two degree-4 vertices")
    result = pinch_and_fill(triangulation, v, v2, fill[0], fill[1])
    if len(result.vertices) != 9:
        raise InconsistencyError("construction did not land on 9 vertices")
    if betti_numbers(result) != (1, 4, 1):
        raise InconsistencyError("construction lost the genus-2 homology")
    if not has_property_A(result):
        raise InconsistencyError("construction lost the cup-product regularity")
    return result
