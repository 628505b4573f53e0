"""Finite abstract simplicial complexes with a canonical vertex order.

A simplex is a tuple of vertex labels in ascending lexicographic order;
a complex stores its simplices grouped by dimension with every group
sorted, which fixes a canonical order for each iteration, tie-break and
search in the package.  Complexes are immutable.

The four structural moves (excision, elementary collapse, edge
contraction, vertex identification) each have one implementation, a
method of WorkingComplex that changes it in place; the last two share
_glue, which renames one vertex's star.  The module-level move functions
are their entry points: they change a WorkingComplex in place and return
it, or run the move on a working copy of a frozen complex and return
its freeze() snapshot, each with a MoveRecord, so a reduction pipeline
can be audited and replayed.

Invariants of a complex (Betti numbers, property A, the surface check)
are computed once per complex object and kept on it, by per_complex.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property, wraps

from .errors import (
    InconsistencyError,
    MalformedInputError,
    NotFoundError,
    PreconditionError,
    PropertyAViolationError,
)
from .value import Value

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "MoveRecord",
    "WorkingComplex",
    "make_simplex",
    "per_complex",
    "build_complex",
    "remove_two_simplex",
    "collapse_free_face",
    "contract_edge",
    "identify_vertices",
    "apply_move",
    "COLLAPSE",
    "CONTRACTION",
    "EXCISION",
    "IDENTIFICATION",
]

Simplex = tuple[str, ...]

COLLAPSE = "collapse"
CONTRACTION = "edge-contraction"
EXCISION = "simplex-excision"
IDENTIFICATION = "vertex-identification"


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

    def __init__(self, by_dim: tuple[tuple[Simplex, ...], ...]) -> None:
        vars(self).update(by_dim=by_dim)

    @classmethod
    def from_simplices(cls, simplices: Iterable[Simplex]) -> "SimplicialComplex":
        """Group canonical simplices by dimension.

        Downward closure is the caller's responsibility; use
        build_complex for raw input.
        """
        groups: dict[int, set[Simplex]] = {}
        for s in simplices:
            groups.setdefault(len(s) - 1, set()).add(s)
        if not groups:
            return cls(())
        top = max(groups)
        return cls(tuple(tuple(sorted(groups.get(n, ()))) for n in range(top + 1)))

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

    @cached_property
    def _facet_cofaces(self) -> dict[Simplex, tuple[Simplex, ...]]:
        """Codimension-1 cofaces of every simplex, the one incidence
        table of the complex; its keys are the simplices.  Each list is
        filled from one dimension group, in its canonical order, so it
        comes out sorted."""
        cof: dict[Simplex, list[Simplex]] = {s: [] for s in self.all_simplices()}
        for group in self.by_dim[1:]:
            for s in group:
                for i in range(len(s)):
                    cof[s[:i] + s[i + 1 :]].append(s)
        return {s: tuple(v) for s, v in cof.items()}

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

    @cached_property
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

    def strongly_connected_components(self) -> tuple[tuple[Simplex, ...], ...]:
        """Partition of the 2-simplices into classes connected through
        shared edges, each class sorted, classes ordered by first member."""
        tris = self.simplices(2)
        if not tris:
            return ()
        visited: set[Simplex] = set()
        comps: list[tuple[Simplex, ...]] = []
        for start in tris:
            if start in visited:
                continue
            comp = []
            queue = deque([start])
            visited.add(start)
            while queue:
                t = queue.popleft()
                comp.append(t)
                for i in range(3):
                    edge = t[:i] + t[i + 1 :]
                    for other in self._facet_cofaces[edge]:
                        if len(other) == 3 and other not in visited:
                            visited.add(other)
                            queue.append(other)
            comps.append(tuple(sorted(comp)))
        comps.sort()
        return tuple(comps)


TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import TypeVar

    T = TypeVar("T")


def per_complex(fn: Callable[[SimplicialComplex], T]) -> Callable[[SimplicialComplex], T]:
    """Run fn once per complex object: the value is kept in the
    immutable complex's own __dict__, as cached_property does, so it is
    freed with the complex, and an equal but distinct complex computes
    its own."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def once(complex_: SimplicialComplex) -> T:
        memo = complex_.__dict__
        if key not in memo:
            memo[key] = fn(complex_)
        return memo[key]

    return once


def build_complex(maximal_simplices: Iterable[Iterable[str]]) -> SimplicialComplex:
    """Downward closure of the given simplices."""
    closure: set[Simplex] = set()
    checked: set[str] = set()  # each distinct label is checked once
    for raw in maximal_simplices:
        labels = list(raw)
        for v in labels:
            if not (isinstance(v, str) and v in checked):
                checked.add(check_label(v))
        s = _sorted_simplex(labels)
        for k in range(1, len(s) + 1):
            closure.update(itertools.combinations(s, k))
    return SimplicialComplex.from_simplices(closure)


# ----------------------------------------------------------------------
# structural moves


class MoveRecord(Value):
    """One audited structural move: what kind, which simplices, and the
    f-vectors before and after.  ``aux`` carries optional evidence, e.g.
    the support of the 2-cycle that justified an excision."""

    kind: str
    simplices: tuple[Simplex, ...]
    before_f: tuple[int, ...]
    after_f: tuple[int, ...]
    aux: tuple[Simplex, ...]

    def __init__(
        self,
        kind: str,
        simplices: tuple[Simplex, ...],
        before_f: tuple[int, ...],
        after_f: tuple[int, ...],
        aux: tuple[Simplex, ...] = (),
    ) -> None:
        vars(self).update(
            kind=kind, simplices=simplices, before_f=before_f, after_f=after_f, aux=aux
        )


class WorkingComplex:
    """A mutable complex on which every move kind runs in place.

    It keeps the simplices of each dimension, the codimension-1 cofaces
    of each simplex, and a min-heap of (free face, coface) pairs.  A
    face is free when it has exactly one codimension-1 coface; as for
    SimplicialComplex.free_faces, that coface is then maximal, so this
    is the same as lying in exactly one strictly larger simplex.  Each
    move pushes every pair it may have made free (_remove, _glue), but
    an entry can go stale: its face no longer free, or free through
    another coface once a glue has renamed its coface.  So an entry is
    live only when its face is free through its coface; stale ones are
    dropped at the top, and the smallest live entry is exactly
    free_faces()[0] of a snapshot.
    """

    def __init__(self, complex_: SimplicialComplex):
        self._groups = [set(group) for group in complex_.by_dim]
        self._cofaces = {s: set(cof) for s, cof in complex_._facet_cofaces.items()}
        self._free = [(s, next(iter(self._cofaces[s]))) for s in self._cofaces if self._is_free(s)]
        heapq.heapify(self._free)

    def __contains__(self, simplex: Simplex) -> bool:
        return simplex in self._cofaces

    @property
    def dim(self) -> int:
        return len(self._groups) - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self._groups)

    def facet_cofaces(self, simplex: Simplex) -> frozenset[Simplex]:
        return frozenset(self._cofaces[simplex])

    def _is_free(self, face: Simplex) -> bool:
        return len(self._cofaces.get(face, ())) == 1

    def _neighbours(self, vertex: str) -> set[str]:
        return {x for edge in self._cofaces[(vertex,)] for x in edge if x != vertex}

    def smallest_free_face(self) -> tuple[Simplex, Simplex] | None:
        """The smallest (face, coface) pair whose face lies in exactly
        one strictly larger simplex, or None when there is none."""
        free = self._free
        while free:
            face, coface = free[0]
            if self._is_free(face) and coface in self._cofaces[face]:
                return face, coface
            heapq.heappop(free)
        return None

    def smallest_maximal_edge(self) -> Simplex | None:
        edges = self._groups[1] if len(self._groups) > 1 else ()
        return min((e for e in edges if not self._cofaces[e]), default=None)

    def freeze(self) -> SimplicialComplex:
        return SimplicialComplex(tuple(tuple(sorted(group)) for group in self._groups))

    def _push_free(self, faces: Iterable[Simplex]) -> None:
        for f in faces:
            if self._is_free(f):
                heapq.heappush(self._free, (f, next(iter(self._cofaces[f]))))

    def _remove(self, *simplices: Simplex) -> None:
        """Delete simplices, each maximal once those before it are gone,
        and push every face this leaves free.

        Only a facet of a deleted simplex can become free: a face is
        free when one codimension-1 coface is left, and it loses a
        coface only when that coface is deleted.  Nor can a deletion
        free a face h by leaving its coface g = s - {x} maximal:
        h = s - {x, y} also lies in the facet s - {y} of s, which stays
        unless it is deleted too, and then h is one of its facets.
        """
        facets: set[Simplex] = set()
        for s in simplices:
            del self._cofaces[s]
            self._groups[len(s) - 1].remove(s)
            if len(s) > 1:
                for f in itertools.combinations(s, len(s) - 1):
                    self._cofaces[f].discard(s)
                    facets.add(f)
        while self._groups and not self._groups[-1]:
            self._groups.pop()
        self._push_free(facets)

    def _glue(self, keep: str, drop: str) -> None:
        """Rename drop to keep in every simplex of drop's star.

        keep and drop must be non-adjacent with no common neighbour, so
        only the two vertices merge: t = g + {keep}, g nonempty, is new,
        else g would lie in both links.  Only the renamed simplices and
        their facets g gain or swap cofaces, so only they can become
        free through a new coface; those that are free are pushed.
        """
        cofaces, groups = self._cofaces, self._groups
        # every simplex with drop is a coface of a coface ... of (drop,)
        renamed = {(drop,): (keep,)}
        stack = [(drop,)]
        while stack:
            for c in cofaces[stack.pop()]:
                if c not in renamed:
                    renamed[c] = tuple(sorted(keep if x == drop else x for x in c))
                    stack.append(c)
        for s, t in renamed.items():
            if len(s) > 1 and t in cofaces:
                raise InconsistencyError(f"gluing {drop!r} to {keep!r} would merge {s} with {t}")
        old = {s: cofaces.pop(s) for s in renamed}
        for s, t in renamed.items():
            groups[len(s) - 1].remove(s)
            if len(s) > 1:
                g = tuple(x for x in s if x != drop)
                cofaces[g].remove(s)
                cofaces[g].add(t)
                cofaces[t] = {renamed[c] for c in old[s]}
                groups[len(t) - 1].add(t)
        cofaces[(keep,)].update(renamed[c] for c in old[(drop,)])
        touched = set(renamed.values())
        for t in renamed.values():
            touched.update(itertools.combinations(t, len(t) - 1))
        self._push_free(touched)

    def _excise(self, triangle: Iterable[str], aux: tuple[Simplex, ...]) -> MoveRecord:
        t = make_simplex(triangle)
        if len(t) != 3 or t not in self:
            raise PreconditionError(f"{t} is not a 2-simplex of the complex")
        if self._cofaces[t]:
            raise PreconditionError(f"{t} lies in a higher simplex; removing it would break closure")
        before = self.f_vector
        self._remove(t)
        return MoveRecord(EXCISION, (t,), before, self.f_vector, aux)

    def _collapse(self, face: Iterable[str]) -> MoveRecord:
        f = make_simplex(face)
        if f not in self:
            raise NotFoundError(f"{f} is not in the complex")
        if not self._is_free(f):
            raise PreconditionError(
                f"{f} has {len(self._cofaces[f])} codimension-1 cofaces; a free face has exactly one"
            )
        (coface,) = self._cofaces[f]
        before = self.f_vector
        self._remove(coface, f)
        return MoveRecord(COLLAPSE, (f, coface), before, self.f_vector)

    def _contract(self, edge: Iterable[str]) -> MoveRecord:
        e = make_simplex(edge)
        if len(e) != 2 or e not in self:
            raise NotFoundError(f"{e} is not an edge of the complex")
        if self._cofaces[e]:
            raise PreconditionError(f"edge {e} is not maximal")
        keep, drop = e  # ascending, so keep is the smaller label
        # a search from keep for a path to drop other than e
        seen, todo = {keep, drop}, [keep]
        for v in todo:
            neighbours = self._neighbours(v)
            if v != keep and drop in neighbours:
                raise PropertyAViolationError(
                    f"endpoints of {e} remain connected without it; contracting would kill an essential circle"
                )
            todo += neighbours - seen
            seen |= neighbours
        before = self.f_vector
        self._remove(e)
        self._glue(keep, drop)
        return MoveRecord(CONTRACTION, (e,), before, self.f_vector)

    def _identify(self, v: str, w: str) -> MoveRecord:
        va, vb = check_label(v), check_label(w)
        for x in (va, vb):
            if (x,) not in self:
                raise NotFoundError(f"vertex {x!r} is not in the complex")
        if va == vb:
            raise PreconditionError("the two vertices must be distinct")
        if self.dim > 2:
            raise PreconditionError("vertex identification is only defined in dimension <= 2")
        if make_simplex((va, vb)) in self:
            raise PreconditionError(f"{va} and {vb} are adjacent; identification needs non-adjacent vertices")
        # a vertex's neighbours are exactly the vertices of its link
        shared = sorted(self._neighbours(va) & self._neighbours(vb))
        if shared:
            raise PreconditionError(f"links of {va} and {vb} share vertices {shared}; they must be disjoint")
        keep, drop = sorted((va, vb))
        before = self.f_vector
        self._glue(keep, drop)
        return MoveRecord(IDENTIFICATION, ((keep,), (drop,)), before, self.f_vector)


def _in_place(
    complex_: SimplicialComplex | WorkingComplex, move: Callable[..., MoveRecord], *args
) -> tuple[SimplicialComplex | WorkingComplex, MoveRecord]:
    """Run a WorkingComplex move on a working complex, returned changed,
    or on a working copy of a frozen complex, whose snapshot is returned."""
    work = complex_ if isinstance(complex_, WorkingComplex) else WorkingComplex(complex_)
    record = move(work, *args)
    return (work if work is complex_ else work.freeze()), record


def remove_two_simplex(
    complex_: SimplicialComplex | WorkingComplex,
    triangle: Iterable[str],
    aux: tuple[Simplex, ...] = (),
) -> tuple[SimplicialComplex | WorkingComplex, MoveRecord]:
    """Delete one 2-simplex that lies in no higher simplex (its edges
    and vertices stay)."""
    return _in_place(complex_, WorkingComplex._excise, triangle, aux)


def collapse_free_face(
    complex_: SimplicialComplex | WorkingComplex, face: Iterable[str]
) -> tuple[SimplicialComplex | WorkingComplex, MoveRecord]:
    """Elementary collapse: remove a free face and its unique coface."""
    return _in_place(complex_, WorkingComplex._collapse, face)


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
    return _in_place(complex_, WorkingComplex._contract, edge)


def identify_vertices(
    complex_: SimplicialComplex | WorkingComplex, v: str, w: str
) -> tuple[SimplicialComplex | WorkingComplex, MoveRecord]:
    """Glue two non-adjacent vertices with vertex-disjoint links.

    Defined for complexes of dimension <= 2.  Under these hypotheses no
    simplices merge except the two vertices, so the quotient is again a
    simplicial complex with one vertex fewer.
    """
    return _in_place(complex_, WorkingComplex._identify, v, w)


def apply_move(complex_: SimplicialComplex, record: MoveRecord) -> SimplicialComplex:
    """Replay a recorded move; the complex must match the record's
    before state and the result must match its after state."""
    if complex_.f_vector != record.before_f:
        raise PreconditionError(
            f"complex f-vector {complex_.f_vector} does not match the record's {record.before_f}"
        )
    if record.kind == COLLAPSE:
        new, rec = collapse_free_face(complex_, record.simplices[0])
        if rec.simplices != record.simplices:
            raise InconsistencyError("collapse replay paired the face with a different coface")
    elif record.kind == CONTRACTION:
        new, _ = contract_edge(complex_, record.simplices[0])
    elif record.kind == EXCISION:
        new, _ = remove_two_simplex(complex_, record.simplices[0])
    elif record.kind == IDENTIFICATION:
        (keep,), (drop,) = record.simplices
        new, _ = identify_vertices(complex_, keep, drop)
    else:
        raise PreconditionError(f"unknown move kind {record.kind!r}")
    if new.f_vector != record.after_f:
        raise InconsistencyError("replayed move produced a different f-vector")
    return new
