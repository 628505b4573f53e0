"""Finite abstract simplicial complexes with a canonical vertex order.

A simplex is a tuple of vertex labels in ascending lexicographic order;
a complex stores its simplices grouped by dimension with every group
sorted, which fixes a canonical order for each iteration, tie-break and
search in the package.  Complexes are immutable.

The module-level move functions here are the entry points of the four
structural moves (excision, elementary collapse, edge contraction,
vertex identification).  Each move, its MoveRecord and the replay of a
record belong to engine; an entry point changes a WorkingComplex in
place and returns it, or runs the move on a working copy of a frozen
complex and returns its freeze() snapshot, each with the record.  They
look the engine up when they run, so a command that moves nothing never
loads it.

Invariants of a complex (Betti numbers, property A, the surface check)
and its incidence tables are computed once per complex object and kept
on it, by value.per_complex.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from . import engine
from .errors import MalformedInputError, NotFoundError, PreconditionError
from .value import Value, per_complex

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .engine import MoveRecord, WorkingComplex

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "make_simplex",
    "build_complex",
    "remove_two_simplex",
    "collapse_free_face",
    "contract_edge",
    "identify_vertices",
]

Simplex = tuple[str, ...]


def check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise MalformedInputError("vertex labels must be non-empty strings")
    # every whitespace character but " " is unprintable; "#" would start
    # a comment in the file format, so the label could not be read back
    if not label.isprintable() or " " in label or "#" in label:
        raise MalformedInputError(
            f"invalid vertex label {label!r}: labels must be printable and contain"
            " no whitespace or '#'"
        )
    return label


def make_simplex(vertices: Iterable[str]) -> Simplex:
    """Canonical (ascending) form of a simplex given by its vertices."""
    return _sorted_simplex([check_label(v) for v in vertices])


def _sorted_simplex(labels: list[str]) -> Simplex:
    """make_simplex on labels that passed check_label."""
    vs = tuple(sorted(labels))
    if not vs:
        raise MalformedInputError("a simplex needs at least one vertex")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise MalformedInputError(f"duplicate vertex {a!r} in simplex")
    return vs


class SimplicialComplex(Value):
    """Simplices grouped by dimension: by_dim[n] lists the n-simplices."""

    by_dim: tuple[tuple[Simplex, ...], ...]

    # ------------------------------------------------------------------
    # queries

    @property
    def dim(self) -> int:
        return len(self.by_dim) - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self.by_dim)

    @property
    def is_empty(self) -> bool:
        return not self.by_dim

    @property
    def vertices(self) -> tuple[str, ...]:
        if not self.by_dim:
            return ()
        return tuple(s[0] for s in self.by_dim[0])

    def simplices(self, n: int) -> tuple[Simplex, ...]:
        if 0 <= n < len(self.by_dim):
            return self.by_dim[n]
        return ()

    def all_simplices(self) -> Iterator[Simplex]:
        return itertools.chain.from_iterable(self.by_dim)

    def __contains__(self, simplex: Simplex) -> bool:
        return simplex in self._facet_cofaces

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * a for n, a in enumerate(self.f_vector))

    def skeleton(self, n: int) -> "SimplicialComplex":
        """Subcomplex of all simplices of dimension at most n (the
        complex itself when n >= dim)."""
        if n < 0:
            raise PreconditionError("skeleton dimension must be >= 0")
        if n >= self.dim:
            return self
        return SimplicialComplex(self.by_dim[: n + 1])

    @property
    @per_complex
    def _facet_cofaces(self) -> dict[Simplex, list[Simplex]]:
        """Codimension-1 cofaces of every simplex, the one incidence
        table of the complex; its keys are the simplices.  Each list is
        filled from one dimension group, in its canonical order, so it
        comes out sorted.  The lists are the table's own: readers do
        not change them."""
        cof: dict[Simplex, list[Simplex]] = {s: [] for s in self.all_simplices()}
        for n, group in enumerate(self.by_dim[1:], 1):
            for s in group:
                try:
                    for f in itertools.combinations(s, n):
                        cof[f].append(s)
                except KeyError:
                    raise missing_facet(s, f) from None
        return cof

    def maximal_simplices(self) -> tuple[Simplex, ...]:
        """The simplices with no codimension-1 coface, which in a
        downward-closed complex are those in no larger simplex."""
        return tuple(sorted(s for s, cof in self._facet_cofaces.items() if not cof))

    def free_faces(self) -> tuple[tuple[Simplex, Simplex], ...]:
        """Pairs (face, coface) where the face lies in exactly one
        strictly larger simplex.  Sorted by face, so index 0 is the
        lexicographically smallest free face.

        A face f is free exactly when it has one codimension-1 coface
        c: every simplex strictly containing f contains a codimension-1
        coface of f, hence c, and c is maximal, since a coface c + {y}
        would contain a second codimension-1 coface f + {y} of f.
        """
        return tuple(
            sorted((s, cof[0]) for s, cof in self._facet_cofaces.items() if len(cof) == 1)
        )

    @property
    @per_complex
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        """Neighbours of each vertex, ascending: the other ends of its
        edges, whose canonical order lists every (u, v) with u < v
        before every (v, w)."""
        cofaces = self._facet_cofaces
        return {v: tuple(a if b == v else b for a, b in cofaces[(v,)]) for v in self.vertices}

    def vertex_degree(self, vertex: str) -> int:
        v = check_label(vertex)
        if (v,) not in self:
            raise NotFoundError(f"vertex {v!r} is not in the complex")
        return len(self._adjacency[v])


def missing_facet(simplex: Simplex, facet: Simplex) -> MalformedInputError:
    """The error for a complex that lacks a facet of one of its simplices."""
    return MalformedInputError(
        f"the complex is not closed under faces: {simplex} is in it but its facet {facet} is not"
    )


def build_complex(maximal_simplices: Iterable[Iterable[str]]) -> SimplicialComplex:
    """Downward closure of the given simplices, generated one dimension
    at a time: the vertices are the labels, and the faces with k
    vertices are the k-subsets of the simplices with at least k."""
    checked: set[str] = set()  # each distinct label is checked once
    simplices = []
    for raw in maximal_simplices:
        labels = list(raw)
        for v in labels:
            if not (isinstance(v, str) and v in checked):
                checked.add(check_label(v))
        simplices.append(_sorted_simplex(labels))
    if not checked:
        return SimplicialComplex(())
    by_dim = [tuple((v,) for v in sorted(checked))]
    for k in range(2, max(map(len, simplices)) + 1):
        faces = itertools.chain.from_iterable(
            itertools.combinations(s, k) for s in simplices if len(s) >= k
        )
        by_dim.append(tuple(sorted(set(faces))))
    return SimplicialComplex(tuple(by_dim))


# ----------------------------------------------------------------------
# structural moves


def remove_two_simplex(
    complex_: SimplicialComplex | WorkingComplex,
    triangle: Iterable[str],
    aux: tuple[Simplex, ...] = (),
) -> tuple[SimplicialComplex | WorkingComplex, MoveRecord]:
    """Delete one 2-simplex that lies in no higher simplex (its edges
    and vertices stay)."""
    return engine._in_place(complex_, engine.WorkingComplex._excise, triangle, aux)


def collapse_free_face(
    complex_: SimplicialComplex | WorkingComplex, face: Iterable[str]
) -> tuple[SimplicialComplex | WorkingComplex, MoveRecord]:
    """Elementary collapse: remove a free face and its unique coface."""
    return engine._in_place(complex_, engine.WorkingComplex._collapse, face)


def contract_edge(
    complex_: SimplicialComplex | WorkingComplex, edge: Iterable[str]
) -> tuple[SimplicialComplex | WorkingComplex, MoveRecord]:
    """Contract a maximal edge whose endpoints have no other connection.

    The edge must lie in no larger simplex, and removing it must
    disconnect its endpoints; otherwise the contraction would collapse
    an essential circle, which is exactly the configuration ruled out
    for complexes with cup-product regularity, so that case raises
    PropertyAViolationError.
    """
    return engine._in_place(complex_, engine.WorkingComplex._contract, edge)


def identify_vertices(
    complex_: SimplicialComplex | WorkingComplex, v: str, w: str
) -> tuple[SimplicialComplex | WorkingComplex, MoveRecord]:
    """Glue two non-adjacent vertices with vertex-disjoint links.

    Defined for complexes of dimension <= 2.  Under these hypotheses no
    simplices merge except the two vertices, so the quotient is again a
    simplicial complex with one vertex fewer.
    """
    return engine._in_place(complex_, engine.WorkingComplex._identify, v, w)
