"""Closed-surface recognition and classification, and the genus-2
construction that attains the covering type 9.

check_closed_surface is linear in the size of the complex: the maximal
simplices and the triangle count of each edge come from the
codimension-1 coface table, each vertex link is assembled from the
triangles on the vertex and tested with one degree count and one
traversal, and one walk over the triangles across their shared edges
counts the components and orients the triangles coherently if it can.
The walk and the check are kept on the complex, so orientable and
classify_surface, which require a closed surface, walk nothing again.

The surface table and its bounds live in `bounds`, which needs no
complex.  The check reads only the complex it is handed, so this module looks up complexes, homology and
cohomology when pinch_and_fill and build_nine_vertex_m2 call into them:
the `surface` command runs neither homology layer.
"""

from __future__ import annotations

# layer modules, which load on first use (see the module docstring)
from . import cohomology, complexes, homology
from .bounds import SurfaceClass
from .errors import InconsistencyError, PreconditionError
from .value import Value, per_complex

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .complexes import Simplex, SimplicialComplex

__all__ = [
    "SurfaceCheckReport",
    "check_closed_surface",
    "orientable",
    "classify_surface",
    "pinch_and_fill",
    "build_nine_vertex_m2",
]


class SurfaceCheckReport(Value):
    """Outcome of the four closed-surface conditions, with witnesses
    for whichever ones fail."""

    pure_two_dimensional: bool
    every_edge_in_two_triangles: bool
    strongly_connected: bool
    all_links_single_circles: bool
    bad_maximal_simplices: tuple[Simplex, ...] = ()
    bad_edges: tuple[tuple[Simplex, int], ...] = ()
    bad_vertices: tuple[str, ...] = ()
    component_count: int = 0

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
def _triangle_walk(complex_: SimplicialComplex) -> tuple[int, bool]:
    """One walk over the triangles across the edges they share: the
    number of its components, and whether the triangles can be oriented
    to induce opposite directions on every shared edge.  A conflict
    makes that flag False, and the walk goes on counting."""
    cofaces = complex_._facet_cofaces
    # 1 for a triangle oriented against its ascending order, else 0
    flipped: dict[Simplex, int] = {}
    components = 0
    coherent = True
    for start in complex_.simplices(2):
        if start in flipped:
            continue
        components += 1
        flipped[start] = 0
        stack = [start]
        while stack:
            t = stack.pop()
            a, b, c = t
            # the ascending orientation (a,b,c) runs a->b, b->c, c->a:
            # only its edge (a, c) runs against the ascending order
            for edge, against in (((a, b), 0), ((b, c), 0), ((a, c), 1)):
                for other in cofaces[edge]:
                    if other == t:
                        continue
                    needed = flipped[t] ^ against ^ (edge == (other[0], other[2])) ^ 1
                    side = flipped.get(other)
                    if side is None:
                        flipped[other] = needed
                        stack.append(other)
                    elif side != needed:
                        coherent = False
    return components, coherent


@per_complex
def check_closed_surface(complex_: SimplicialComplex) -> SurfaceCheckReport:
    """Check the four closed-surface conditions, with witnesses for
    whichever ones fail."""
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
    components = _triangle_walk(complex_)[0]
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
        strongly_connected=components == 1,
        all_links_single_circles=not bad_vertices,
        bad_maximal_simplices=bad_max,
        bad_edges=tuple(bad_edges),
        bad_vertices=tuple(bad_vertices),
        component_count=components,
    )


def orientable(complex_: SimplicialComplex) -> bool:
    """Decide orientability of a verified closed surface: can the
    triangles be oriented to agree across every shared edge?"""
    if not check_closed_surface(complex_).verdict:
        raise PreconditionError("orientability is defined here only for closed surfaces")
    return _triangle_walk(complex_)[1]


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
        if complexes.make_simplex((label, anchor)) not in complex_:
            raise PreconditionError(
                f"the {role} fill vertex {label!r} must be adjacent to {anchor!r}"
            )
    if complexes.make_simplex((w, w2)) not in complex_:
        raise PreconditionError(f"fill vertices {w!r} and {w2!r} must span an edge")
    before = homology.betti_numbers(complex_)
    merged, record = complexes.identify_vertices(complex_, v, v2)
    kept = record.simplices[0][0]
    triangle = complexes.make_simplex((kept, w, w2))
    filled = complexes.build_complex(merged.maximal_simplices() + (triangle,))
    after = homology.betti_numbers(filled)
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
            if complexes.make_simplex((a, b)) in triangulation:
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
            if complexes.make_simplex((a, b)) not in triangulation:
                raise PreconditionError(
                    f"the remaining 8 vertices must induce a complete graph; {a},{b} missing"
                )
    # the links of v and v2 lie among the other 8 vertices, which are
    # pairwise adjacent: the smallest vertex of each spans the fill edge
    w, w2 = triangulation._adjacency[v][0], triangulation._adjacency[v2][0]
    result = pinch_and_fill(triangulation, v, v2, w, w2)
    if len(result.vertices) != 9:
        raise InconsistencyError("construction did not land on 9 vertices")
    if homology.betti_numbers(result) != (1, 4, 1):
        raise InconsistencyError("construction lost the genus-2 homology")
    if not cohomology.has_property_A(result):
        raise InconsistencyError("construction lost the cup-product regularity")
    return result
